//! Fault injection and fault-tolerant routing.
//!
//! Free-space optical hardware fails in characteristic units: a VCSEL
//! dies (one arc), a detector dies (one arc), or a whole lens is
//! occluded/misaligned (every arc through it — `q` arcs for a
//! first-array lens, `p` for a second-array lens). This module models
//! those fault classes on an [`HDigraph`], derives the surviving
//! digraph, and measures what the network can still do — the
//! resilience story a downstream adopter of an OTIS fabric needs,
//! and an exercise of the de Bruijn's known fault-tolerance (`d`
//! arc-disjoint-ish alternatives per hop).

use crate::HDigraph;
use otis_core::{DigraphFamily, DynamicRoutingTable, Router};
use otis_digraph::repair::RepairStats;
use otis_digraph::{Digraph, DigraphBuilder};
use serde::{Deserialize, Serialize};

/// A set of hardware faults on one OTIS bench.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSet {
    /// Dead transmitters (global indices).
    pub dead_transmitters: Vec<u64>,
    /// Dead receivers (global indices).
    pub dead_receivers: Vec<u64>,
    /// Occluded first-array lenses (index `i ∈ Z_p`): kills every beam
    /// from transmitter group `i`.
    pub dead_lens1: Vec<u64>,
    /// Occluded second-array lenses (index `a ∈ Z_q`): kills every
    /// beam into receiver group `a`.
    pub dead_lens2: Vec<u64>,
}

impl FaultSet {
    /// No faults.
    pub fn none() -> Self {
        FaultSet::default()
    }

    /// True iff the beam of transmitter `t` (global index) survives
    /// all faults on the given system.
    pub fn beam_alive(&self, h: &HDigraph, t: u64) -> bool {
        let otis = h.otis();
        let tx = otis.transmitter(t);
        if self.dead_transmitters.contains(&t) || self.dead_lens1.contains(&tx.group) {
            return false;
        }
        let r = otis.connect(tx);
        if self.dead_lens2.contains(&r.group) {
            return false;
        }
        !self.dead_receivers.contains(&otis.receiver_index(r))
    }

    /// Number of beams this fault set kills on the given system.
    pub fn killed_beam_count(&self, h: &HDigraph) -> usize {
        (0..h.otis().link_count())
            .filter(|&t| !self.beam_alive(h, t))
            .count()
    }
}

/// The digraph that survives a fault set: same nodes, minus every arc
/// whose beam is dead.
pub fn surviving_digraph(h: &HDigraph, faults: &FaultSet) -> Digraph {
    let n = h.node_count();
    let d = h.degree() as u64;
    let mut builder = DigraphBuilder::with_arc_capacity(n as usize, (n * d) as usize);
    for u in 0..n {
        for k in 0..h.degree() {
            let t = u * d + k as u64;
            if faults.beam_alive(h, t) {
                builder.add_arc(u as u32, h.out_neighbor(u, k) as u32);
            }
        }
    }
    builder.build()
}

/// A [`Router`] that routes around hardware faults: it keeps an
/// incrementally repairable next-hop table over the full fabric with
/// the dead beams marked down, so any packet with a surviving path is
/// delivered on a shortest surviving route, and packets with no path
/// fail cleanly (`next_hop` → `None`, which the simulator reports as
/// `SimError::Unreachable`).
///
/// Single-beam faults repair *in place*:
/// [`FaultAwareRouter::kill_transmitter`] and
/// [`FaultAwareRouter::revive_transmitter`] patch only the next-hop
/// runs whose min-first-hop changed — no table rebuild — and land on
/// exactly the table a fresh [`FaultAwareRouter::new`] over the same
/// fault set would build. A bulk fault-set swap is a fresh
/// [`FaultAwareRouter::new`].
///
/// The table rides [`DynamicRoutingTable`], so every repair also
/// publishes an epoch-stamped [`otis_core::RouteSnapshot`] and
/// [`Router::as_repair`] exposes the engine-facing repair hook —
/// a fault-aware router dropped into a `--dynamics` queueing run gets
/// the same lock-free snapshot reads as a bare dynamic table. Wrapped
/// in an [`otis_core::AdaptiveRouter`], its candidate set already
/// excludes dead beams, so the adaptive choice spreads load over
/// surviving hardware only.
pub struct FaultAwareRouter {
    table: DynamicRoutingTable,
    faults: FaultSet,
    /// `beam_arc[t]` = the full-digraph arc index implemented by beam
    /// `t` — a per-node bijection (the digraph sorts each node's arc
    /// targets, so slot order and arc order differ, and parallel
    /// beams to one target must map to *distinct* arcs).
    beam_arc: Vec<usize>,
    label: String,
}

impl std::fmt::Debug for FaultAwareRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultAwareRouter")
            .field("label", &self.label)
            .field("faults", &self.faults)
            .field("dead_beams", &self.table.dead_arc_count())
            .finish()
    }
}

impl FaultAwareRouter {
    /// Router over what survives of `h` under `faults`.
    pub fn new(h: &HDigraph, faults: FaultSet) -> Self {
        let full = surviving_digraph(h, &FaultSet::none());
        let d = u64::from(h.degree());
        // Beam t = u·d + k implements the arc u → out_neighbor(u, k).
        // Match each node's slots against its sorted arc slice by
        // (target, slot) so the assignment is a bijection even with
        // parallel beams.
        let mut beam_arc = vec![0usize; h.otis().link_count() as usize];
        for u in 0..h.node_count() {
            let mut slots: Vec<(u32, u32)> = (0..h.degree())
                .map(|k| (h.out_neighbor(u, k) as u32, k))
                .collect();
            slots.sort_unstable();
            for (arc, &(target, k)) in full.arc_range(u as u32).zip(slots.iter()) {
                debug_assert_eq!(full.arc_target(arc), target);
                beam_arc[(u * d + u64::from(k)) as usize] = arc;
            }
        }
        let dead: Vec<usize> = (0..h.otis().link_count())
            .filter(|&t| !faults.beam_alive(h, t))
            .map(|t| beam_arc[t as usize])
            .collect();
        let label = h.name();
        FaultAwareRouter {
            table: DynamicRoutingTable::with_dead_arcs(&full, &dead, label.clone()),
            faults,
            beam_arc,
            label,
        }
    }

    /// The fault set currently routed around.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Rebuild-free single-beam fault: transmitter `t` dies, and only
    /// the next-hop runs whose min-first-hop changed get patched.
    /// Returns the repair bill (a no-op if the beam was already dead
    /// under some other fault). A transmitter the fabric does not
    /// have is a costless no-op that leaves the fault set unchanged.
    pub fn kill_transmitter(&mut self, t: u64) -> RepairStats {
        let Some(&arc) = self.beam_arc.get(t as usize) else {
            return RepairStats::default();
        };
        if !self.faults.dead_transmitters.contains(&t) {
            self.faults.dead_transmitters.push(t);
        }
        self.table.apply_arc_event(arc, false)
    }

    /// Rebuild-free single-beam revival: drop transmitter `t` from the
    /// fault set and, if no *other* fault still covers its beam (an
    /// occluded lens, a dead receiver), patch the table back. An
    /// out-of-range `t` is a costless no-op, as for
    /// [`FaultAwareRouter::kill_transmitter`].
    pub fn revive_transmitter(&mut self, h: &HDigraph, t: u64) -> RepairStats {
        assert_eq!(h.name(), self.label, "revive must use the same fabric");
        let Some(&arc) = self.beam_arc.get(t as usize) else {
            return RepairStats::default();
        };
        self.faults.dead_transmitters.retain(|&dead| dead != t);
        if self.faults.beam_alive(h, t) {
            self.table.apply_arc_event(arc, true)
        } else {
            RepairStats::default()
        }
    }

    /// The current next-hop rows as a static compressed table — the
    /// equivalence hook the kill/revive battery pins against a fresh
    /// build over the same fault set.
    pub fn snapshot(&self) -> otis_digraph::compressed::CompressedNextHopTable {
        self.table.snapshot()
    }
}

impl Router for FaultAwareRouter {
    fn node_count(&self) -> u64 {
        self.table.node_count()
    }

    fn name(&self) -> String {
        format!(
            "fault-aware({}, {} faults)",
            self.label,
            self.faults.dead_transmitters.len()
                + self.faults.dead_receivers.len()
                + self.faults.dead_lens1.len()
                + self.faults.dead_lens2.len()
        )
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        self.table.next_hop(current, dst)
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> otis_core::RankedCandidates {
        // Live out-beams only, ranked ascending by remaining distance
        // (ties keep the fabric's transceiver order) — the same
        // contract as every other table router, minus the dead beams.
        self.table.ranked_candidates(current, dst)
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        self.table.distance(src, dst)
    }

    fn as_repair(&self) -> Option<&dyn otis_core::RouteRepair> {
        // The raw endpoint-addressed repair hook of the underlying
        // table: a dynamics-driving engine feeds deaths/revivals here.
        // Note this bypasses the [`FaultSet`] bookkeeping — hardware
        // faults and timeline events are separate ledgers by design.
        self.table.as_repair()
    }
}

/// Resilience report for a fault set on a fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Beams killed by the faults (out of `pq`).
    pub beams_lost: usize,
    /// Is the surviving digraph still strongly connected?
    pub strongly_connected: bool,
    /// Diameter of the surviving digraph (`None` if disconnected).
    pub diameter: Option<u32>,
    /// Ordered node pairs that can no longer communicate.
    pub unreachable_pairs: u64,
}

/// Evaluate a fault set end to end.
pub fn assess(h: &HDigraph, faults: &FaultSet) -> ResilienceReport {
    let g = surviving_digraph(h, faults);
    let n = g.node_count();
    let strongly_connected = otis_digraph::connectivity::is_strongly_connected(&g);
    let diameter = otis_digraph::bfs::diameter(&g);
    // Unreachable ordered pairs via the distance distribution.
    let reachable: u64 = otis_digraph::bfs::distance_distribution(&g).iter().sum();
    let unreachable_pairs = (n as u64) * (n as u64) - reachable;
    ResilienceReport {
        beams_lost: faults.killed_beam_count(h),
        strongly_connected,
        diameter,
        unreachable_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> HDigraph {
        HDigraph::new(16, 32, 2) // ≅ B(2,8)
    }

    #[test]
    fn no_faults_baseline() {
        let h = fabric();
        let report = assess(&h, &FaultSet::none());
        assert_eq!(report.beams_lost, 0);
        assert!(report.strongly_connected);
        assert_eq!(report.diameter, Some(8));
        assert_eq!(report.unreachable_pairs, 0);
    }

    #[test]
    fn one_dead_transmitter_kills_one_beam() {
        let h = fabric();
        let faults = FaultSet {
            dead_transmitters: vec![42],
            ..FaultSet::none()
        };
        let report = assess(&h, &faults);
        assert_eq!(report.beams_lost, 1);
        // B(2,8) survives one arc loss: still strongly connected, the
        // diameter can only grow.
        assert!(report.strongly_connected);
        assert!(report.diameter.unwrap() >= 8);
        let g = surviving_digraph(&h, &faults);
        assert_eq!(g.arc_count(), 511);
    }

    #[test]
    fn dead_lens_kills_a_whole_group() {
        let h = fabric();
        // First-array lens 3: kills the q = 32 beams of group 3.
        let faults = FaultSet {
            dead_lens1: vec![3],
            ..FaultSet::none()
        };
        assert_eq!(faults.killed_beam_count(&h), 32);
        let report = assess(&h, &faults);
        assert_eq!(report.beams_lost, 32);
        // 32 of 512 arcs gone: the 16 nodes of group 3 lose ALL their
        // out-arcs (each node has both transmitters in one group), so
        // the digraph cannot remain strongly connected.
        assert!(!report.strongly_connected);
        assert!(report.unreachable_pairs > 0);
    }

    #[test]
    fn second_array_lens_kills_p_beams() {
        let h = fabric();
        let faults = FaultSet {
            dead_lens2: vec![0],
            ..FaultSet::none()
        };
        assert_eq!(faults.killed_beam_count(&h), 16);
    }

    #[test]
    fn dead_receiver_blocks_exactly_its_beam() {
        let h = fabric();
        let otis = *h.otis();
        // Find the transmitter feeding receiver 100.
        let t = otis.transmitter_index(otis.source_of(otis.receiver(100)));
        let faults = FaultSet {
            dead_receivers: vec![100],
            ..FaultSet::none()
        };
        assert!(!faults.beam_alive(&h, t));
        assert_eq!(faults.killed_beam_count(&h), 1);
    }

    #[test]
    fn rerouting_around_a_fault() {
        let h = fabric();
        // Kill node 0's transceiver 0 (the beam implementing one of
        // its two out-arcs) and verify traffic reroutes via the other.
        let faults = FaultSet {
            dead_transmitters: vec![0],
            ..FaultSet::none()
        };
        let g = surviving_digraph(&h, &faults);
        let lost_target = h.out_neighbor(0, 0);
        let dist = otis_digraph::bfs::distances(&g, 0);
        // Still reachable, just (possibly) farther.
        assert!(dist[lost_target as usize] != otis_digraph::INFINITY);
        assert!(dist[lost_target as usize] >= 1);
    }

    #[test]
    fn fault_aware_router_delivers_whenever_a_path_survives() {
        let h = fabric();
        let faults = FaultSet {
            dead_transmitters: vec![0, 17, 301],
            dead_lens2: vec![5],
            ..FaultSet::none()
        };
        let router = FaultAwareRouter::new(&h, faults.clone());
        let survivors = surviving_digraph(&h, &faults);
        for src in (0..h.node_count()).step_by(7) {
            let dist = otis_digraph::bfs::distances(&survivors, src as u32);
            for dst in (0..h.node_count()).step_by(5) {
                let expected = dist[dst as usize];
                match router.route(src, dst) {
                    None => assert_eq!(expected, otis_digraph::INFINITY, "{src}→{dst}"),
                    Some(path) => {
                        assert_eq!(path.len() as u32 - 1, expected, "{src}→{dst}");
                        // Every hop must ride a *surviving* beam.
                        for pair in path.windows(2) {
                            assert!(
                                survivors.has_arc(pair[0] as u32, pair[1] as u32),
                                "hop {} → {} uses a dead beam",
                                pair[0],
                                pair[1]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fault_aware_router_refresh_tracks_new_faults() {
        let h = fabric();
        let router = FaultAwareRouter::new(&h, FaultSet::none());
        let full_distance = router.distance(1, h.out_neighbor(1, 0));
        assert_eq!(full_distance, Some(1));
        // Kill node 1's first transmitter: that 1-hop route must now
        // detour (or keep length 1 only via the other transceiver).
        let faults = FaultSet {
            dead_transmitters: vec![2],
            ..FaultSet::none()
        };
        let router = FaultAwareRouter::new(&h, faults);
        let degraded = router.distance(1, h.out_neighbor(1, 0));
        assert!(degraded.is_some(), "B(2,8) survives one arc loss");
        assert!(degraded.unwrap() >= 1);
    }

    #[test]
    fn incremental_kill_and_revive_match_a_fresh_build() {
        let h = fabric();
        let mut router = FaultAwareRouter::new(&h, FaultSet::none());
        // Kill scattered transmitters one at a time; after every step
        // the patched table must be byte-identical to a fresh build
        // over the same fault set, at strictly sub-rebuild cost.
        let total_runs = router.snapshot().run_count();
        let mut faults = FaultSet::none();
        for &t in &[7u64, 42, 301] {
            let bill = router.kill_transmitter(t);
            assert!(bill.rows_patched > 0, "beam {t} feeds some route");
            assert!(
                bill.runs_patched < total_runs,
                "beam {t} patched everything"
            );
            faults.dead_transmitters.push(t);
            let fresh = FaultAwareRouter::new(&h, faults.clone());
            assert_eq!(router.snapshot(), fresh.snapshot(), "after killing {t}");
            assert_eq!(router.faults(), fresh.faults());
        }
        // Revive in a different order; the end state is the pristine
        // fabric, byte-identical to a no-fault build.
        for &t in &[42u64, 301, 7] {
            router.revive_transmitter(&h, t);
        }
        let pristine = FaultAwareRouter::new(&h, FaultSet::none());
        assert_eq!(router.snapshot(), pristine.snapshot());
        assert_eq!(router.faults(), &FaultSet::none());
    }

    #[test]
    fn kill_revive_kill_same_beam_is_epoch_clean() {
        // The double-transition regression: the same beam dying,
        // reviving, and dying again must land on the fresh-build table
        // at every step, with the published snapshot tracking each
        // transition under a strictly advancing epoch (a stale epoch
        // here is exactly the stale-route wedge the snapshot-path
        // engine would inherit).
        let h = fabric();
        let mut router = FaultAwareRouter::new(&h, FaultSet::none());
        let t = 42u64;
        let dead = FaultSet {
            dead_transmitters: vec![t],
            ..FaultSet::none()
        };
        let epoch = |r: &FaultAwareRouter| r.as_repair().expect("repairable").snapshot_epoch();
        let mut epochs = vec![epoch(&router)];
        router.kill_transmitter(t);
        epochs.push(epoch(&router));
        assert_eq!(
            router.snapshot(),
            FaultAwareRouter::new(&h, dead.clone()).snapshot()
        );
        router.revive_transmitter(&h, t);
        epochs.push(epoch(&router));
        assert_eq!(
            router.snapshot(),
            FaultAwareRouter::new(&h, FaultSet::none()).snapshot()
        );
        router.kill_transmitter(t);
        epochs.push(epoch(&router));
        assert_eq!(
            router.snapshot(),
            FaultAwareRouter::new(&h, dead).snapshot()
        );
        assert!(
            epochs.windows(2).all(|w| w[0] < w[1]),
            "every row-changing transition must publish: {epochs:?}"
        );
        // The published read view answers exactly like the locked path
        // after the full kill→revive→kill sequence.
        let snap = router
            .as_repair()
            .expect("repairable")
            .published_snapshot()
            .expect("published");
        for src in (0..h.node_count()).step_by(13) {
            for dst in (0..h.node_count()).step_by(11) {
                assert_eq!(
                    snap.next_hop(src, dst),
                    router.next_hop(src, dst),
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_transmitter_is_a_costless_no_op() {
        let h = fabric();
        let faults = FaultSet {
            dead_transmitters: vec![42],
            ..FaultSet::none()
        };
        let mut router = FaultAwareRouter::new(&h, faults.clone());
        let before = router.snapshot();
        let epoch = |r: &FaultAwareRouter| r.as_repair().expect("repairable").snapshot_epoch();
        let epoch_before = epoch(&router);
        let links = h.otis().link_count();
        for t in [links, links + 1, u64::MAX] {
            assert_eq!(router.kill_transmitter(t), RepairStats::default());
            assert_eq!(router.revive_transmitter(&h, t), RepairStats::default());
        }
        assert_eq!(router.faults(), &faults, "fault ledger untouched");
        assert_eq!(router.snapshot(), before);
        assert_eq!(epoch(&router), epoch_before, "nothing published");
        // An in-range transmitter still repairs normally.
        assert!(router.kill_transmitter(7).rows_patched > 0);
    }

    #[test]
    fn revive_keeps_a_lens_covered_beam_dead() {
        let h = fabric();
        // Transmitter 70 is doubly dead: as a transmitter fault AND
        // under occluded first-array lens 2 (groups are q = 32 wide,
        // so lens 2 covers beams 64..96).
        let faults = FaultSet {
            dead_transmitters: vec![70],
            dead_lens1: vec![2],
            ..FaultSet::none()
        };
        let mut router = FaultAwareRouter::new(&h, faults);
        // Clearing the transmitter fault must NOT revive the beam —
        // the lens still occludes it, so the repair is a free no-op.
        let bill = router.revive_transmitter(&h, 70);
        assert_eq!(bill, RepairStats::default());
        let fresh = FaultAwareRouter::new(
            &h,
            FaultSet {
                dead_lens1: vec![2],
                ..FaultSet::none()
            },
        );
        assert_eq!(router.snapshot(), fresh.snapshot());
    }

    #[test]
    fn compound_faults_accumulate() {
        let h = fabric();
        let faults = FaultSet {
            dead_transmitters: vec![7, 8],
            dead_receivers: vec![100],
            dead_lens1: vec![5],
            dead_lens2: vec![],
        };
        let killed = faults.killed_beam_count(&h);
        // Lens 5 kills 32; transmitters 7, 8 are outside group 5
        // (group = t / 32, so 7/32 = 0); receiver 100's source may or
        // may not overlap — bound it instead of hardcoding.
        assert!((33..=35).contains(&killed), "killed = {killed}");
        let report = assess(&h, &faults);
        assert_eq!(report.beams_lost, killed);
    }

    #[test]
    fn degraded_but_connected_fabric_still_routes() {
        // Two scattered transmitter faults leave B(2,8) strongly
        // connected; diameter grows by a bounded amount.
        let h = fabric();
        let faults = FaultSet {
            dead_transmitters: vec![3, 200],
            ..FaultSet::none()
        };
        let report = assess(&h, &faults);
        assert!(report.strongly_connected);
        let diameter = report.diameter.unwrap();
        assert!((8..=12).contains(&diameter), "diameter {diameter}");
    }
}
