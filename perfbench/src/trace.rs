//! The traced run's instruments: an in-memory span log and a
//! forwarding wrapper that records the engine's calls into the router
//! and repair layers.
//!
//! Nothing here reaches into the library. [`TracedRouter`] implements
//! [`Router`] and [`RouteRepair`] by forwarding *every* trait method to
//! the wrapped router, so the engine sees the same capabilities
//! (`hops_are_stateless`, `as_repair`, the published epoch snapshot)
//! and produces a byte-identical report.
//!
//! Router queries are far too many to log one span each (about 10M per
//! `uniform_arith_B18` batch), and a shared atomic counter would bounce
//! one cache line between the drain threads on every query. So each
//! thread counts its own queries in a private, cache-line-aligned slot,
//! and times one query in [`SAMPLE_EVERY`] with a pair of clock reads;
//! the router's busy time is the sampled time scaled by the query
//! count. Repair calls are rare (tens per batch) and each gets a real
//! span.

use otis_core::{Candidates, RankedCandidates, RouteRepair, RouteSnapshot, Router};
use otis_digraph::repair::RepairStats;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One query in this many (per thread) is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// A closed span: `name` ran from `start_ns` to `end_ns` (nanoseconds
/// since the log's origin), caused by span `parent`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory until the benchmark writes them out.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under `parent`; returns its id. It
    /// stays zero-length until [`SpanLog::end`] closes it.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        })
    }

    /// Close span `id` now; returns its length in seconds.
    pub fn end(&self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans[id].end_ns = end_ns;
        spans[id].seconds()
    }

    /// Record a span that ran from `start_ns` until now; returns its id.
    pub fn close(&self, name: &'static str, start_ns: u64, parent: Option<usize>) -> usize {
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        })
    }

    /// Record a finished span; returns its id.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans.push(span);
        spans.len() - 1
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's length in seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.end(id))
    }

    /// The span with id `id`.
    pub fn span(&self, id: usize) -> Span {
        self.spans.lock().expect("span log poisoned by a panic")[id].clone()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panic")
            .clone()
    }

    /// Spans named `name` whose parent is `parent`.
    pub fn children(&self, parent: usize, name: &str) -> Vec<Span> {
        self.spans()
            .into_iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .collect()
    }
}

/// One thread's router counters. Only its owning thread writes it, so
/// plain load-and-store updates suffice and no cache line is shared.
#[repr(align(128))]
#[derive(Default)]
pub struct ThreadSlot {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
    last_end_ns: AtomicU64,
}

/// A thread's router counters, read after the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadCounts {
    /// Router queries this thread made.
    pub calls: u64,
    /// Queries whose duration was measured.
    pub timed: u64,
    /// Total measured duration.
    pub timed_ns: u64,
    /// End of the last timed query (log nanoseconds).
    pub last_end_ns: u64,
}

impl ThreadCounts {
    /// Estimated busy time in the router: the sampled mean times the
    /// query count.
    pub fn busy_s(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.timed_ns as f64 / self.timed as f64 * self.calls as f64 * 1e-9
    }
}

static NEXT_WRAPPER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's slot in the wrapper it last used.
    static CURRENT: RefCell<Option<(u64, Arc<ThreadSlot>)>> = const { RefCell::new(None) };
}

/// The traced run's forwarding wrapper around the router under test.
pub struct TracedRouter<'a> {
    inner: &'a dyn Router,
    log: &'a SpanLog,
    /// Parent span of the repair spans (the engine run).
    parent: Option<usize>,
    id: u64,
    slots: Mutex<Vec<Arc<ThreadSlot>>>,
}

impl<'a> TracedRouter<'a> {
    pub fn new(inner: &'a dyn Router, log: &'a SpanLog, parent: Option<usize>) -> Self {
        TracedRouter {
            inner,
            log,
            parent,
            id: NEXT_WRAPPER_ID.fetch_add(1, Relaxed),
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Per-thread counters, in the order threads first called in. Call
    /// after the run: its thread joins order the slots' stores before
    /// these Relaxed loads.
    pub fn thread_counts(&self) -> Vec<ThreadCounts> {
        self.slots
            .lock()
            .expect("slot registry poisoned by a panic")
            .iter()
            .map(|s| ThreadCounts {
                calls: s.calls.load(Relaxed),
                timed: s.timed.load(Relaxed),
                timed_ns: s.timed_ns.load(Relaxed),
                last_end_ns: s.last_end_ns.load(Relaxed),
            })
            .collect()
    }

    /// Count one query on the calling thread's slot, timing it if it is
    /// a sampled one.
    #[inline]
    fn query<T>(&self, f: impl FnOnce(&dyn Router) -> T) -> T {
        CURRENT.with(|current| {
            let mut current = current.borrow_mut();
            if !matches!(&*current, Some((id, _)) if *id == self.id) {
                let slot = Arc::new(ThreadSlot::default());
                self.slots
                    .lock()
                    .expect("slot registry poisoned by a panic")
                    .push(Arc::clone(&slot));
                *current = Some((self.id, slot));
            }
            let slot = &current.as_ref().expect("slot registered above").1;
            // ORDERING: only this thread writes its slot, so Relaxed
            // load-and-store loses no count; the reader runs after the
            // engine has joined its threads, which orders every store.
            let calls = slot.calls.load(Relaxed);
            slot.calls.store(calls + 1, Relaxed);
            if calls % SAMPLE_EVERY != 0 {
                return f(self.inner);
            }
            let start = self.log.now_ns();
            let out = f(self.inner);
            let end = self.log.now_ns();
            slot.timed.store(slot.timed.load(Relaxed) + 1, Relaxed);
            slot.timed_ns
                .store(slot.timed_ns.load(Relaxed) + (end - start), Relaxed);
            slot.last_end_ns.store(end, Relaxed);
            out
        })
    }

    fn repair(&self) -> &dyn RouteRepair {
        self.inner
            .as_repair()
            .expect("as_repair only exposes the wrapper when the inner router repairs")
    }
}

impl Router for TracedRouter<'_> {
    fn node_count(&self) -> u64 {
        self.inner.node_count()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn next_hop(&self, current: u64, dst: u64) -> Option<u64> {
        self.query(|r| r.next_hop(current, dst))
    }

    fn next_hop_on_vc(&self, current: u64, dst: u64, vc: u8) -> Option<u64> {
        self.query(|r| r.next_hop_on_vc(current, dst, vc))
    }

    fn hops_are_stateless(&self) -> bool {
        self.inner.hops_are_stateless()
    }

    fn candidates(&self, current: u64, dst: u64) -> Candidates {
        self.query(|r| r.candidates(current, dst))
    }

    fn ranked_candidates(&self, current: u64, dst: u64) -> RankedCandidates {
        self.query(|r| r.ranked_candidates(current, dst))
    }

    fn route(&self, src: u64, dst: u64) -> Option<Vec<u64>> {
        self.query(|r| r.route(src, dst))
    }

    fn distance(&self, src: u64, dst: u64) -> Option<u64> {
        self.query(|r| r.distance(src, dst))
    }

    fn as_repair(&self) -> Option<&dyn RouteRepair> {
        self.inner.as_repair().map(|_| self as &dyn RouteRepair)
    }
}

impl RouteRepair for TracedRouter<'_> {
    fn apply_link_event(&self, from: u64, to: u64, alive: bool) -> RepairStats {
        let start = self.log.now_ns();
        let stats = self.repair().apply_link_event(from, to, alive);
        self.log.close("repair.event", start, self.parent);
        stats
    }

    fn apply_link_event_deferred(&self, from: u64, to: u64, alive: bool) -> RepairStats {
        let start = self.log.now_ns();
        let stats = self.repair().apply_link_event_deferred(from, to, alive);
        self.log.close("repair.event", start, self.parent);
        stats
    }

    fn publish_deferred(&self) {
        let start = self.log.now_ns();
        self.repair().publish_deferred();
        self.log.close("repair.publish", start, self.parent);
    }

    fn repair_table_runs(&self) -> usize {
        self.repair().repair_table_runs()
    }

    fn snapshot_epoch(&self) -> u64 {
        self.repair().snapshot_epoch()
    }

    fn published_snapshot(&self) -> Option<RouteSnapshot> {
        self.repair().published_snapshot()
    }
}
