//! report-audit pass fixture: every countable field of the report is
//! either read by a conservation assertion or exempted as a
//! measurement, and every exemption names a real field.

pub struct QueueingReport {
    pub router: String,
    pub cycles: u64,
    pub vcs: usize,
    pub injected: usize,
    pub delivered: usize,
    pub dropped_full: usize,
    pub in_flight: usize,
    pub link_down_events: u64,
    pub dateline_promotions: u64,
    pub dateline_relief: u64,
    pub source_stall_cycles: u64,
    pub delivered_hops: u64,
    pub wait_p50_cycles: u64,
    pub wait_p99_cycles: u64,
    pub wait_max_cycles: u64,
    pub delivered_per_link: Vec<u64>,
    pub multicast_groups: usize,
    pub replicated_copies: usize,
    pub multicast_forwarding_index: u64,
    pub uninjected: usize,
    pub max_hops: u32,
}

impl QueueingReport {
    pub fn dropped(&self) -> usize {
        self.dropped_full
    }

    pub fn conserves_packets(&self) -> bool {
        self.injected == self.delivered + self.dropped() + self.in_flight
    }

    pub fn dynamics_consistent(&self) -> bool {
        self.conserves_packets() && self.link_down_events < u64::MAX
    }
}
