//! The metric catalogue: every name the benchmark reports, its unit,
//! and which direction is better. `BENCHMARK.json` lists the same
//! names; the benchmark's tests hold the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 5] = [
    def("pkt_per_s", "pkt/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("sim_delivered_frac", "frac", Higher),
    def("success_rate", "frac", Higher),
];

/// Printed by a traced run (`--trace 1`). A metric of a layer the
/// workload does not use reads 0.
pub const PER_LAYER: [MetricDef; 31] = [
    def("workload.gen_s", "s", Lower),
    def("workload.ns_per_pkt", "ns", Lower),
    def("router.ns_per_query", "ns", Lower),
    def("router.queries", "count", Lower),
    def("router.queries_per_hop", "ratio", Lower),
    def("repair.table_build_s", "s", Lower),
    def("repair.events", "count", Lower),
    def("repair.ms_per_event_p50", "ms", Lower),
    def("repair.ms_per_event_max", "ms", Lower),
    def("repair.publish_ms", "ms", Lower),
    def("repair.publications", "count", Lower),
    def("repair.rows_patched", "count", Lower),
    def("repair.runs_patched", "count", Lower),
    def("repair.reroute_p50_cycles", "cycles", Lower),
    def("repair.stranded_reinjected", "count", Lower),
    def("mcast.tree_build_s", "s", Lower),
    def("mcast.tree_arcs", "count", Lower),
    def("layout.build_s", "s", Lower),
    def("engine.build_s", "s", Lower),
    def("sim_wait_p99_cycles", "cycles", Lower),
    def("engine.cycles", "cycles", Lower),
    def("engine.hops", "count", Lower),
    def("engine.ns_per_hop", "ns", Lower),
    def("engine.self_s", "s", Lower),
    def("engine.cpu_util", "frac", Higher),
    def("engine.source_stall_cycles", "cycles", Lower),
    def("engine.max_peak_occupancy", "pkt", Lower),
    def("engine.dateline_promotions", "count", Lower),
    def("engine.trace_overhead", "ratio", Lower),
    def("engine.scaling_2t", "ratio", Higher),
    def("error_rate", "frac", Lower),
];

/// Whether `name` is a valid metric or workload name: non-empty and
/// made only of ASCII letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}
