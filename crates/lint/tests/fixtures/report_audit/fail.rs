//! report-audit fail fixture: `stranded_reinjected` is a countable
//! counter no conservation assertion ever reads, and `cycles` is
//! exempted as a measurement yet an assertion reads it.

pub struct QueueingReport {
    pub cycles: u64,
    pub vcs: usize,
    pub injected: usize,
    pub delivered: usize,
    pub in_flight: usize,
    pub stranded_reinjected: u64,
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
}

impl QueueingReport {
    pub fn conserves_packets(&self) -> bool {
        self.injected == self.delivered + self.in_flight && self.cycles > 0
    }
}
