//! Minimal scoped-thread data parallelism.
//!
//! The workspace needs exactly three parallel shapes:
//!
//! * [`par_map`] — map a function over `0..n` and collect the results
//!   in index order (all-pairs BFS eccentricities, per-`n` search rows);
//! * [`par_chunks_with`] — per-worker state plus one shared chunk
//!   cursor: each worker owns one `&mut` state (a repair scratch, an
//!   output buffer) for the whole call and pulls fixed-size chunks of
//!   `0..n` until none are left;
//! * [`par_workers`] — one worker per caller-built state, for a static
//!   partition the caller has already split into disjoint `&mut`
//!   pieces (a slab filled over disjoint row ranges).
//!
//! All are built on `std::thread::scope`, so borrowed data flows in
//! without `Arc` gymnastics and panics propagate to the caller. The
//! chunked shapes distribute work by an atomic cursor over fixed-size
//! chunks, which keeps threads busy when per-item cost is skewed
//! (small `p` divisors of the Table 1 sweep are much cheaper than
//! large ones; one destination's repair cone can be a hundred times
//! another's).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use: the available parallelism, capped
/// so tiny inputs do not pay thread spawn cost for idle workers.
pub fn num_threads(items: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    hw.min(items).max(1)
}

/// Parallel map over the index range `0..n`, preserving order.
///
/// `f` must be `Sync` (it is shared across workers) and is invoked
/// exactly once per index. Results are written into a pre-allocated
/// vector of `Option<T>` slots, then unwrapped — no ordering races are
/// possible because each index is claimed by exactly one worker.
///
/// Falls back to a sequential loop when `n` is small or only one
/// hardware thread is available, so callers never branch themselves.
pub fn par_map<T, F>(n: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let workers = num_threads(n);
    if workers <= 1 || n <= chunk {
        return (0..n).map(f).collect();
    }

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let cursor = ChunkCursor::new(n, chunk);
    let slots_ptr = SendPtr(slots.as_mut_ptr());

    std::thread::scope(|scope| {
        // The slot writes become visible to the caller through the
        // scope join, which synchronizes-with every worker's exit; no
        // load on this thread observes a slot before that.
        for _ in 0..workers {
            let f = &f;
            let cursor = &cursor;
            let slots_ptr = &slots_ptr;
            scope.spawn(move || {
                while let Some(range) = cursor.claim() {
                    for i in range {
                        let value = f(i);
                        // SAFETY: each index in 0..n is claimed by
                        // exactly one worker (the cursor hands out
                        // disjoint ranges), the pointer outlives the
                        // scope, and the slot was initialized to None.
                        unsafe { *slots_ptr.0.add(i) = Some(value) };
                    }
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("par_map: every index visited"))
        .collect()
}

/// Per-worker state plus one shared chunk cursor: one worker per
/// element of `states`, each holding its `&mut S` for the whole call
/// and pulling fixed-size chunks of `0..n` (as half-open ranges, in
/// ascending claim order) until none are left.
///
/// Every index is visited exactly once; *which* worker visits it is
/// up to the scheduler, so callers that need a deterministic result
/// record what each chunk produced (its range start orders the
/// merge). The caller picks the worker count by the length of
/// `states` — one state runs inline on the calling thread with no
/// spawn, which is the sequential fallback.
pub fn par_chunks_with<S, F>(states: &mut [S], n: usize, chunk: usize, f: F)
where
    S: Send,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    let cursor = ChunkCursor::new(n, chunk);
    par_workers(states, |state| {
        while let Some(range) = cursor.claim() {
            f(state, range);
        }
    });
}

/// Run `f` once on every element of `states`, each on its own scoped
/// worker: the first on the calling thread, the rest spawned. The
/// static-partition shape — the caller has already split its output
/// into disjoint `&mut` pieces, so no index needs claiming. Returns
/// when every worker has finished; a worker's panic propagates.
pub fn par_workers<S, F>(states: &mut [S], f: F)
where
    S: Send,
    F: Fn(&mut S) + Sync,
{
    let Some((first, rest)) = states.split_first_mut() else {
        return;
    };
    if rest.is_empty() {
        f(first);
        return;
    }
    std::thread::scope(|scope| {
        for state in rest {
            let f = &f;
            scope.spawn(move || f(state));
        }
        f(first);
    });
}

/// A shared cursor handing out consecutive fixed-size chunks of
/// `0..n` to whichever worker asks next.
struct ChunkCursor {
    next: AtomicUsize,
    n: usize,
    chunk: usize,
}

impl ChunkCursor {
    fn new(n: usize, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        ChunkCursor {
            next: AtomicUsize::new(0),
            n,
            chunk,
        }
    }

    /// The next unclaimed chunk, or `None` once `0..n` is exhausted.
    fn claim(&self) -> Option<Range<usize>> {
        // ORDERING: Relaxed — the cursor's only job is to hand out
        // disjoint chunk ranges, which needs the fetch_add's atomicity
        // (each claim sees a unique start), not any cross-thread
        // ordering of the work done on a chunk. That work becomes
        // visible to the caller through the scope join, which
        // synchronizes-with every worker's exit.
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        (start < self.n).then(|| start..(start + self.chunk).min(self.n))
    }
}

/// Raw pointer wrapper asserting cross-thread sendability for the
/// disjoint-slot write pattern in [`par_map`].
struct SendPtr<T>(*mut T);
// SAFETY: only used to write disjoint indices from multiple threads;
// the owning Vec outlives the scope and is not read concurrently.
unsafe impl<T: Send> Sync for SendPtr<T> {}
// SAFETY: the wrapper is moved into scoped workers only to write
// `T: Send` values through it; the pointee storage is owned by the
// spawning thread and outlives every worker (scoped join), so sending
// the pointer itself transfers no ownership and aliases nothing.
unsafe impl<T: Send> Send for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_matches_sequential() {
        let seq: Vec<u64> = (0..10_000)
            .map(|i| (i as u64).wrapping_mul(37) ^ 11)
            .collect();
        let par = par_map(10_000, 64, |i| (i as u64).wrapping_mul(37) ^ 11);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_empty_and_tiny() {
        assert_eq!(par_map(0, 16, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 16, |i| i * 2), vec![0]);
        assert_eq!(par_map(3, 1, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn par_map_borrows_environment() {
        let base = vec![5u32; 100];
        let out = par_map(100, 8, |i| base[i] + i as u32);
        assert_eq!(out[99], 104);
    }

    #[test]
    fn par_chunks_with_covers_all_indices_once() {
        let n = 1000;
        for workers in [1usize, 2, 3, 8] {
            // Every index is hit once; each state logs its claims,
            // which come in ascending order per worker.
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let mut logs = vec![Vec::new(); workers];
            par_chunks_with(&mut logs, n, 7, |log, range| {
                log.push(range.start);
                for hit in &hits[range] {
                    hit.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert!(logs.iter().all(|log| log.windows(2).all(|w| w[0] < w[1])));
            assert_eq!(logs.iter().map(Vec::len).sum::<usize>(), n.div_ceil(7));
        }
        let mut none: Vec<u32> = Vec::new();
        par_chunks_with(&mut none, 10, 4, |_, _| unreachable!("no workers"));
    }

    #[test]
    fn par_workers_runs_every_state_once() {
        let mut parts = vec![0u32; 5];
        par_workers(&mut parts, |part| *part += 1);
        assert_eq!(parts, vec![1; 5]);
        let mut slab = vec![0usize; 10];
        let (left, right) = slab.split_at_mut(4);
        par_workers(&mut [left, right], |piece| {
            let len = piece.len();
            piece.iter_mut().for_each(|x| *x = len);
        });
        assert_eq!(slab, [4, 4, 4, 4, 6, 6, 6, 6, 6, 6]);
    }

    #[test]
    fn num_threads_bounds() {
        assert_eq!(num_threads(0), 1);
        assert!(num_threads(1) >= 1);
        assert!(num_threads(1_000_000) >= 1);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_panics() {
        par_map(10, 0, |i| i);
    }
}
