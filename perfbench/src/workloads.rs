//! The three benchmark workloads: how each builds its fabric, router,
//! engine and inputs from a seed, runs one batch, checks the result,
//! and replays its inputs through a single layer.
//!
//! Everything here goes through the public entry points of
//! `otis_optics`, `otis_core`, `otis_digraph` and `otis_layout`.

use crate::trace::SpanLog;
use otis_core::{
    DeBruijn, DeBruijnRouter, DigraphFamily, DynamicRoutingTable, MulticastTree, RelabeledRouter,
    RouteRepair, Router, RoutingTable,
};
use otis_optics::traffic::{generate_multicast_workload, generate_workload};
use otis_optics::{
    ContentionPolicy, HDigraph, MulticastGroup, QueueConfig, QueueingEngine, QueueingReport,
    StrandedPolicy, TrafficPattern, WorkloadSource,
};
use std::hint::black_box;
use std::time::Instant;

/// Every workload, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = [
    "uniform_arith_B18",
    "otis_hotspot_dyn_H14",
    "multicast_bp_B10",
];

/// Packets per `uniform_arith_B18` batch.
pub const B18_PACKETS: usize = 600_000;
/// Packets per `otis_hotspot_dyn_H14` batch. At [`H14_LOAD`] injection
/// lasts about 370 cycles, past the last scripted revival (cycle 350),
/// so every death is revived before the fabric drains.
pub const H14_PACKETS: usize = 300_000;
/// Offered packets per node per cycle on `otis_hotspot_dyn_H14`.
pub const H14_LOAD: f64 = 0.05;
/// Multicast groups per `multicast_bp_B10` batch.
pub const B10_GROUPS: usize = 50_000;
/// Destinations per multicast group.
pub const B10_FANOUT: u32 = 8;
/// Offered groups per node per cycle on `multicast_bp_B10`: just below
/// the fabric's saturation, which lies near 0.0205 for this shape.
pub const B10_LOAD: f64 = 0.018;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// B(2,18), uniform traffic streamed, tail-drop, arithmetic router.
    UniformArithB18,
    /// The OTIS layout of B(2,14) under hotspot traffic and link
    /// dynamics, routed through a repairable table in rank space.
    OtisHotspotDynH14,
    /// B(2,10) fanout-8 multicast under lossless backpressure.
    MulticastBpB10,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "uniform_arith_B18" => Some(Workload::UniformArithB18),
            "otis_hotspot_dyn_H14" => Some(Workload::OtisHotspotDynH14),
            "multicast_bp_B10" => Some(Workload::MulticastBpB10),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformArithB18 => WORKLOADS[0],
            Workload::OtisHotspotDynH14 => WORKLOADS[1],
            Workload::MulticastBpB10 => WORKLOADS[2],
        }
    }

    /// The pinned drain-thread count the measured runs use.
    pub fn drain_threads(self) -> usize {
        match self {
            Workload::UniformArithB18 | Workload::OtisHotspotDynH14 => 2,
            Workload::MulticastBpB10 => 1,
        }
    }

    /// Set-ups per untraced run (`setup_s` is their median): enough
    /// for about a second of set-up on the cheap workloads. A fixed
    /// count, so the allocation history before the batches, and with
    /// it `peak_rss_mb`, is the same in every run.
    pub fn setups(self) -> usize {
        match self {
            Workload::UniformArithB18 => 15,
            Workload::OtisHotspotDynH14 => 3,
            Workload::MulticastBpB10 => 40,
        }
    }

    /// The de Bruijn fabric the workload routes over (directly, or as
    /// the rank space of the OTIS layout).
    pub fn debruijn(self) -> DeBruijn {
        match self {
            Workload::UniformArithB18 => DeBruijn::new(2, 18),
            Workload::OtisHotspotDynH14 => DeBruijn::new(2, 14),
            Workload::MulticastBpB10 => DeBruijn::new(2, 10),
        }
    }

    fn config(self, drain_threads: usize) -> QueueConfig {
        let base = QueueConfig {
            buffers: 16,
            wavelengths: 1,
            vcs: 1,
            policy: ContentionPolicy::TailDrop,
            hop_limit: None,
            max_cycles: 100_000,
            drain_threads,
        };
        match self {
            Workload::UniformArithB18 => base,
            Workload::OtisHotspotDynH14 => QueueConfig {
                max_cycles: 3000,
                ..base
            },
            Workload::MulticastBpB10 => QueueConfig {
                buffers: 8,
                vcs: 2,
                policy: ContentionPolicy::Backpressure,
                max_cycles: 1_000_000,
                ..base
            },
        }
    }
}

/// The link-dynamics script of `otis_hotspot_dyn_H14`: a fade on a
/// rank-space link, a 16-node storm, and twelve random fades whose
/// seed is the workload seed.
pub fn dynamics_spec(seed: u64) -> String {
    format!("fade@60:rank:4096>8192:0:120,storm@120:rank:0-15:150,randfades@{seed}:12:250:100")
}

/// A workload's generated inputs.
pub enum Input {
    /// Decoded chunk by chunk inside the run.
    Streamed(WorkloadSource),
    /// Materialized `(src, dst)` pairs.
    Pairs(Vec<(u64, u64)>),
    /// Multicast groups.
    Groups(Vec<MulticastGroup>),
}

impl Input {
    /// Packets (unicast) or groups (multicast) in the input.
    pub fn len(&self) -> usize {
        match self {
            Input::Streamed(source) => source.len(),
            Input::Pairs(pairs) => pairs.len(),
            Input::Groups(groups) => groups.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Destination leaves the input asks for: the packet count for
    /// unicast, the summed fan-out for multicast.
    pub fn leaves(&self) -> usize {
        match self {
            Input::Groups(groups) => groups.iter().map(|g| g.dsts.len()).sum(),
            other => other.len(),
        }
    }

    /// Every `(src, dst)` pair, in input order (multicast: root to
    /// each destination). Decodes a streamed input.
    pub fn pairs(&self) -> Vec<(u64, u64)> {
        match self {
            Input::Streamed(source) => source.materialize(),
            Input::Pairs(pairs) => pairs.clone(),
            Input::Groups(groups) => groups
                .iter()
                .flat_map(|g| g.dsts.iter().map(move |&dst| (g.root, dst)))
                .collect(),
        }
    }
}

/// Generate `workload`'s inputs from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Input {
    let n = workload.debruijn().node_count();
    match workload {
        Workload::UniformArithB18 => Input::Streamed(WorkloadSource::new(
            TrafficPattern::Uniform,
            n,
            2,
            B18_PACKETS,
            seed,
        )),
        Workload::OtisHotspotDynH14 => Input::Pairs(generate_workload(
            TrafficPattern::Hotspot,
            n,
            2,
            H14_PACKETS,
            seed,
        )),
        Workload::MulticastBpB10 => Input::Groups(generate_multicast_workload(
            TrafficPattern::Multicast { fanout: B10_FANOUT },
            n,
            2,
            B10_GROUPS,
            seed,
        )),
    }
}

/// The router each workload runs.
pub enum Routing {
    /// The tableless arithmetic router.
    Arith(DeBruijnRouter),
    /// The repairable rank-space table behind the isomorphism witness.
    Repairable(Box<RelabeledRouter<DynamicRoutingTable>>),
    /// The dense all-pairs table.
    Dense(RoutingTable),
}

impl Routing {
    pub fn router(&self) -> &dyn Router {
        match self {
            Routing::Arith(r) => r,
            Routing::Repairable(r) => r.as_ref(),
            Routing::Dense(r) => r,
        }
    }

    /// Arcs the router currently considers dead.
    pub fn dead_arcs(&self) -> usize {
        match self {
            Routing::Repairable(r) => r.inner().dead_arc_count(),
            Routing::Arith(_) | Routing::Dense(_) => 0,
        }
    }
}

/// The simulated fabric, kept to rebuild engines at other thread
/// counts.
enum Fabric {
    DeBruijn(DeBruijn),
    Otis { h: HDigraph, witness: Vec<u32> },
}

/// Host seconds spent in each part of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `minimize_lenses`, `h_digraph` and `debruijn_witness`.
    pub layout_s: f64,
    /// Input generation.
    pub workload_s: f64,
    /// Router construction (`DynamicRoutingTable::new`, the dense
    /// table build, or the arithmetic router).
    pub router_s: f64,
    /// Engine construction and dynamics compilation.
    pub engine_s: f64,
}

/// A workload ready to run: everything built, nothing run yet.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub engine: QueueingEngine,
    pub routing: Routing,
    pub input: Input,
    /// Offered packets (unicast) or groups (multicast) per cycle,
    /// fabric-wide.
    pub offered: f64,
    pub times: SetupTimes,
    fabric: Fabric,
}

impl Setup {
    /// Build `workload` for `seed`, recording one span per part under
    /// `parent` in `log`.
    pub fn new(workload: Workload, seed: u64, log: &SpanLog, parent: Option<usize>) -> Self {
        let b = workload.debruijn();
        let n = b.node_count() as f64;
        let (fabric, layout_s) = match workload {
            Workload::OtisHotspotDynH14 => log.time("layout.build", parent, || {
                let spec = otis_layout::minimize_lenses(2, 14).expect("B(2,14) has an OTIS layout");
                let h = spec.h_digraph();
                let witness = spec
                    .debruijn_witness()
                    .expect("the lens-minimal layout is de Bruijn");
                Fabric::Otis { h, witness }
            }),
            _ => (Fabric::DeBruijn(b), 0.0),
        };
        let (input, workload_s) = log.time("workload.gen", parent, || generate(workload, seed));
        let (routing, router_s) = log.time("router.build", parent, || match &fabric {
            Fabric::Otis { witness, .. } => Routing::Repairable(Box::new(RelabeledRouter::new(
                DynamicRoutingTable::new(&b.digraph()),
                witness.clone(),
            ))),
            Fabric::DeBruijn(_) if workload == Workload::MulticastBpB10 => {
                Routing::Dense(RoutingTable::from_family(&b))
            }
            Fabric::DeBruijn(_) => Routing::Arith(DeBruijnRouter::new(b)),
        });
        let (engine, engine_s) = log.time("engine.build", parent, || {
            build_engine(workload, &fabric, workload.drain_threads(), seed)
        });
        let times = SetupTimes {
            layout_s,
            workload_s,
            router_s,
            engine_s,
        };

        let offered = match workload {
            // 1/D per node: about 46% of mean link saturation.
            Workload::UniformArithB18 => n / f64::from(b.diameter()),
            Workload::OtisHotspotDynH14 => H14_LOAD * n,
            Workload::MulticastBpB10 => B10_LOAD * n,
        };
        Setup {
            workload,
            seed,
            engine,
            routing,
            input,
            offered,
            times,
            fabric,
        }
    }

    /// A second engine over the same fabric and dynamics with another
    /// drain-thread count.
    pub fn engine_with_threads(&self, drain_threads: usize) -> QueueingEngine {
        build_engine(self.workload, &self.fabric, drain_threads, self.seed)
    }

    /// One batch on the set-up engine through `router`.
    pub fn run(&self, router: &dyn Router) -> QueueingReport {
        self.run_on(&self.engine, router)
    }

    /// One batch on `engine` through `router`.
    pub fn run_on(&self, engine: &QueueingEngine, router: &dyn Router) -> QueueingReport {
        match &self.input {
            Input::Streamed(source) => engine.run_streamed(router, source, self.offered),
            Input::Pairs(pairs) => engine.run(router, pairs, self.offered),
            Input::Groups(groups) => engine.run_multicast(router, groups, self.offered),
        }
    }

    /// Check one batch's report: the conservation and dynamics laws,
    /// a complete (not truncated or deadlocked) run, every input
    /// accounted for, and on the dynamic workload every death revived.
    pub fn check(&self, report: &QueueingReport) -> Result<(), String> {
        if !report.conserves_packets() {
            return Err("packet conservation broke".into());
        }
        if !report.dynamics_consistent() {
            return Err("dynamics conservation broke".into());
        }
        if report.deadlocked || report.in_flight > 0 {
            return Err(format!(
                "run did not finish: deadlocked {}, {} packets in flight at cycle {}",
                report.deadlocked, report.in_flight, report.cycles
            ));
        }
        if report.injected != self.input.leaves() {
            return Err(format!(
                "injected {} of {} requested leaves",
                report.injected,
                self.input.leaves()
            ));
        }
        if self.workload == Workload::OtisHotspotDynH14 {
            if report.link_down_events == 0 || report.snapshot_publications == 0 {
                return Err("the dynamics script never killed a link or published".into());
            }
            if report.link_down_events != report.link_up_events || self.routing.dead_arcs() > 0 {
                return Err(format!(
                    "{} deaths but {} revivals; {} arcs still dead in the router",
                    report.link_down_events,
                    report.link_up_events,
                    self.routing.dead_arcs()
                ));
            }
        }
        Ok(())
    }

    /// Replay every input pair hop by hop through the router the
    /// engine reads: [`Router::next_hop`] of the set-up router, or on
    /// the dynamic workload its published epoch snapshot. Returns
    /// `(queries, seconds)`; fails if a walk does not reach its
    /// destination within the fabric's diameter.
    pub fn replay_router(&self) -> Result<(u64, f64), String> {
        let pairs = self.input.pairs();
        let diameter = u64::from(self.workload.debruijn().diameter());
        let snapshot = match &self.routing {
            Routing::Repairable(r) => Some(
                r.published_snapshot()
                    .ok_or("the repairable router published no snapshot")?,
            ),
            _ => None,
        };
        let router = self.routing.router();
        let start = Instant::now();
        let mut queries = 0u64;
        for &(src, dst) in &pairs {
            let mut current = src;
            let mut steps = 0u64;
            while current != dst {
                let next = match &snapshot {
                    Some(s) => s.next_hop(black_box(current), black_box(dst)),
                    None => router.next_hop(black_box(current), black_box(dst)),
                };
                current = next.ok_or_else(|| format!("no route {src} -> {dst}"))?;
                steps += 1;
                if steps > diameter {
                    return Err(format!("route {src} -> {dst} exceeds diameter {diameter}"));
                }
            }
            queries += steps;
        }
        Ok((queries, start.elapsed().as_secs_f64()))
    }

    /// Decode every chunk of a streamed input with
    /// [`WorkloadSource::fill_chunk`], as the run's decode step does.
    /// Returns seconds, or `None` for a materialized input.
    pub fn replay_decode(&self) -> Option<f64> {
        let Input::Streamed(source) = &self.input else {
            return None;
        };
        let mut buf = Vec::new();
        let start = Instant::now();
        for chunk in 0..source.chunk_count() {
            source.fill_chunk(chunk, &mut buf);
            black_box(&buf);
        }
        Some(start.elapsed().as_secs_f64())
    }

    /// Build every group's tree with [`MulticastTree::build`] through
    /// the set-up router. Returns `(tree arcs, seconds)`, or `None` for
    /// a unicast input.
    pub fn replay_trees(&self) -> Option<(u64, f64)> {
        let Input::Groups(groups) = &self.input else {
            return None;
        };
        let router = self.routing.router();
        let start = Instant::now();
        let mut arcs = 0u64;
        for group in groups {
            let tree = MulticastTree::build(router, group.root, &group.dsts);
            arcs += tree.arc_count() as u64;
            black_box(&tree);
        }
        Some((arcs, start.elapsed().as_secs_f64()))
    }
}

fn build_engine(
    workload: Workload,
    fabric: &Fabric,
    drain_threads: usize,
    seed: u64,
) -> QueueingEngine {
    let config = workload.config(drain_threads);
    match fabric {
        Fabric::DeBruijn(b) => QueueingEngine::from_family(b, config),
        Fabric::Otis { h, witness } => {
            let mut engine = QueueingEngine::from_family(h, config);
            engine
                .try_set_dynamics_relabeled(
                    dynamics_spec(seed)
                        .parse()
                        .expect("the dynamics script parses"),
                    StrandedPolicy::Reinject,
                    Some(witness),
                )
                .expect("the dynamics script compiles through the witness");
            engine
        }
    }
}

/// Packets resolved by a batch: delivered plus dropped (destination
/// leaves for multicast).
pub fn resolved(report: &QueueingReport) -> usize {
    report.delivered + report.dropped()
}

/// The report as canonical JSON, the bytes the digest and the
/// traced-vs-untraced comparison use.
pub fn report_json(report: &QueueingReport) -> String {
    serde_json::to_string(report).expect("a queueing report serializes")
}
