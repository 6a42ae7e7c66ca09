//! Breadth-first search, eccentricities and diameters.
//!
//! Table 1 of the paper is an exhaustive degree–diameter search over
//! OTIS digraphs `H(p,q,2)`, and the de Bruijn families are defined by
//! their diameter, so fast exact diameters are the substrate's hot
//! path. The all-pairs BFS here is embarrassingly parallel: sources
//! are sharded over scoped threads ([`otis_util::par_map`]) with
//! per-shard queue/distance buffers reused across sources, following
//! the "reuse workhorse collections" guidance of the Rust Performance
//! Book.

use crate::{Digraph, INFINITY};

/// BFS distances from `source`; unreachable vertices get
/// [`INFINITY`](crate::INFINITY).
pub fn distances(g: &Digraph, source: u32) -> Vec<u32> {
    let mut dist = vec![INFINITY; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    distances_into(g, source, &mut dist, &mut queue);
    dist
}

/// Buffer-reusing BFS core: fills `dist` (resized and reset inside).
fn distances_into(
    g: &Digraph,
    source: u32,
    dist: &mut Vec<u32>,
    queue: &mut std::collections::VecDeque<u32>,
) {
    dist.clear();
    dist.resize(g.node_count(), INFINITY);
    queue.clear();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.out_neighbors(u) {
            if dist[v as usize] == INFINITY {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
}

/// Eccentricity of `source`: max distance to any vertex, or
/// [`INFINITY`](crate::INFINITY) if some vertex is unreachable.
pub fn eccentricity(g: &Digraph, source: u32) -> u32 {
    distances(g, source).into_iter().max().unwrap_or(0)
}

/// All eccentricities, computed by parallel all-pairs BFS.
///
/// Sources are processed in chunks; each worker reuses one distance
/// vector and one queue across its whole shard, so the only per-source
/// cost is the BFS proper.
pub fn eccentricities(g: &Digraph) -> Vec<u32> {
    let n = g.node_count();
    // Chunk so each worker amortizes buffer allocation but load stays
    // balanced; 16 sources per task works well from tiny to huge n.
    const CHUNK: usize = 16;
    let chunk_results = otis_util::par_map(n.div_ceil(CHUNK), 1, |chunk_index| {
        let start = chunk_index * CHUNK;
        let end = ((chunk_index + 1) * CHUNK).min(n);
        let mut dist = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        let mut out = Vec::with_capacity(end - start);
        for source in start..end {
            distances_into(g, source as u32, &mut dist, &mut queue);
            out.push(dist.iter().copied().max().unwrap_or(0));
        }
        out
    });
    let mut ecc = Vec::with_capacity(n);
    for chunk in chunk_results {
        ecc.extend(chunk);
    }
    ecc
}

/// Sequential [`eccentricities`], kept as the ablation baseline for
/// the `diameter_par` bench.
pub fn eccentricities_seq(g: &Digraph) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    let mut ecc = Vec::with_capacity(n);
    for source in 0..n as u32 {
        distances_into(g, source, &mut dist, &mut queue);
        ecc.push(dist.iter().copied().max().unwrap_or(0));
    }
    ecc
}

/// Exact diameter: `Some(max eccentricity)` if the digraph is strongly
/// connected, `None` otherwise (some pair is unreachable).
pub fn diameter(g: &Digraph) -> Option<u32> {
    if g.node_count() == 0 {
        return None;
    }
    let ecc = eccentricities(g);
    let max = ecc.into_iter().max().expect("nonempty");
    (max != INFINITY).then_some(max)
}

/// Diameter with early abort: returns `None` as soon as any
/// eccentricity exceeds `cap` (or on disconnection). The Table 1 sweep
/// uses this to discard oversized candidates cheaply.
pub fn diameter_at_most(g: &Digraph, cap: u32) -> Option<u32> {
    let n = g.node_count();
    if n == 0 {
        return None;
    }
    let mut dist = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    let mut best = 0u32;
    for source in 0..n as u32 {
        distances_into(g, source, &mut dist, &mut queue);
        let ecc = dist.iter().copied().max().expect("nonempty");
        if ecc > cap {
            // covers INFINITY (disconnected) too
            return None;
        }
        best = best.max(ecc);
    }
    Some(best)
}

/// All-destinations next-hop table: for every ordered pair `(u, dst)`,
/// the first hop of some shortest `u → dst` path, plus the distance.
///
/// Built once with one reverse-BFS per destination (destinations
/// sharded over scoped threads like [`eccentricities`]); after that,
/// every routing query is an array load. This is the precomputation
/// that turns per-packet BFS routing into per-packet table lookups —
/// the batched traffic engine's whole speedup.
///
/// Storage is two `n²` arrays of `u32`, so the table is meant for
/// fabrics up to a few thousand nodes (`n = 4096` costs 128 MiB);
/// [`NextHopTable::try_build`] refuses larger fabrics with a
/// [`TableCapExceeded`] error rather than thrashing silently.
#[derive(Debug, Clone)]
pub struct NextHopTable {
    n: usize,
    /// `next[dst * n + u]`: next hop from `u` toward `dst`;
    /// [`INFINITY`] when `dst` is unreachable from `u` (or `u == dst`).
    next: Box<[u32]>,
    /// `dist[dst * n + u]`: shortest-path distance `u → dst`.
    dist: Box<[u32]>,
}

/// A fabric too large for the requested next-hop table.
///
/// Carries the offending node count and the cap that rejected it, so
/// callers can render a precise message; [`std::fmt::Display`] spells
/// out the alternative — the interval-compressed table
/// ([`crate::compressed::CompressedNextHopTable`]) above the dense
/// cap, and the `O(D)` arithmetic routers beyond every table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableCapExceeded {
    /// Node count of the rejected digraph.
    pub nodes: usize,
    /// The cap the node count tripped (the dense table's
    /// [`NextHopTable::MAX_NODES`] or the compressed table's
    /// [`crate::compressed::CompressedNextHopTable::MAX_NODES`]).
    pub cap: usize,
}

impl TableCapExceeded {
    /// The dense (quadratic) table's rejection of `nodes`.
    pub(crate) fn dense(nodes: usize) -> Self {
        TableCapExceeded {
            nodes,
            cap: NextHopTable::MAX_NODES,
        }
    }
}

impl std::fmt::Display for TableCapExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cap == NextHopTable::MAX_NODES {
            write!(
                f,
                "fabric has {} nodes; the dense next-hop table caps at {} \
                 (its two n² arrays would need {} entries) — use the \
                 interval-compressed table instead (CompressedNextHopTable; \
                 RoutingTable::try_new picks it automatically above the dense \
                 cap), or route arithmetically (the tableless de Bruijn/Kautz \
                 routers)",
                self.nodes,
                NextHopTable::MAX_NODES,
                2 * self.nodes * self.nodes,
            )
        } else {
            write!(
                f,
                "fabric has {} nodes; even the interval-compressed next-hop \
                 table caps at {} — route arithmetically instead (the \
                 tableless de Bruijn/Kautz routers scale to any d^D)",
                self.nodes, self.cap,
            )
        }
    }
}

impl std::error::Error for TableCapExceeded {}

impl NextHopTable {
    /// Maximum node count the quadratic table accepts (512 MiB of
    /// entries); larger fabrics should route arithmetically.
    pub const MAX_NODES: usize = 8192;

    /// Build the table for `g` by parallel reverse-BFS, one source per
    /// destination, or report [`TableCapExceeded`] when the quadratic
    /// storage would blow past [`Self::MAX_NODES`].
    pub fn try_build(g: &Digraph) -> Result<Self, TableCapExceeded> {
        let n = g.node_count();
        if n > Self::MAX_NODES {
            return Err(TableCapExceeded::dense(n));
        }
        let rev = crate::ops::reverse(g);
        // One (next, dist) column pair per destination; chunked so each
        // worker reuses its BFS buffers across its whole shard.
        const CHUNK: usize = 8;
        let columns = otis_util::par_map(n.div_ceil(CHUNK), 1, |chunk_index| {
            let start = chunk_index * CHUNK;
            let end = ((chunk_index + 1) * CHUNK).min(n);
            let mut dist_to = Vec::new();
            let mut queue = std::collections::VecDeque::new();
            let mut next = Vec::with_capacity((end - start) * n);
            let mut dist = Vec::with_capacity((end - start) * n);
            for dst in start..end {
                // Distances *toward* dst = BFS on the reverse digraph.
                distances_into(&rev, dst as u32, &mut dist_to, &mut queue);
                for u in 0..n as u32 {
                    let here = dist_to[u as usize];
                    let hop = if here == INFINITY || here == 0 {
                        INFINITY
                    } else {
                        // Any out-neighbor one step closer to dst; the
                        // first (smallest, since CSR neighbors are
                        // sorted) keeps routes deterministic. Compare
                        // with `here - 1` so INFINITY neighbors never
                        // overflow.
                        *g.out_neighbors(u)
                            .iter()
                            .find(|&&v| dist_to[v as usize] == here - 1)
                            .expect("a finite-distance vertex has a descending neighbor")
                    };
                    next.push(hop);
                    dist.push(here);
                }
            }
            (next, dist)
        });
        let mut next = Vec::with_capacity(n * n);
        let mut dist = Vec::with_capacity(n * n);
        for (next_chunk, dist_chunk) in columns {
            next.extend(next_chunk);
            dist.extend(dist_chunk);
        }
        Ok(NextHopTable {
            n,
            next: next.into_boxed_slice(),
            dist: dist.into_boxed_slice(),
        })
    }

    /// Number of vertices the table covers.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Next hop from `u` toward `dst`: `None` if `u == dst` or `dst`
    /// is unreachable from `u`.
    #[inline]
    pub fn next_hop(&self, u: u32, dst: u32) -> Option<u32> {
        let hop = self.next[dst as usize * self.n + u as usize];
        (hop != INFINITY).then_some(hop)
    }

    /// Shortest-path distance `u → dst` ([`INFINITY`] if unreachable).
    #[inline]
    pub fn distance(&self, u: u32, dst: u32) -> u32 {
        self.dist[dst as usize * self.n + u as usize]
    }
}

/// Histogram of finite pairwise distances: `out[k]` = number of
/// ordered pairs at distance exactly `k`. A cheap isomorphism
/// invariant and the basis of average-distance reporting.
pub fn distance_distribution(g: &Digraph) -> Vec<u64> {
    let n = g.node_count();
    const CHUNK: usize = 16;
    let partials = otis_util::par_map(n.div_ceil(CHUNK), 1, |chunk_index| {
        let start = chunk_index * CHUNK;
        let end = ((chunk_index + 1) * CHUNK).min(n);
        let mut dist = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        let mut hist: Vec<u64> = Vec::new();
        for source in start..end {
            distances_into(g, source as u32, &mut dist, &mut queue);
            for &d in &dist {
                if d != INFINITY {
                    if hist.len() <= d as usize {
                        hist.resize(d as usize + 1, 0);
                    }
                    hist[d as usize] += 1;
                }
            }
        }
        hist
    });
    let mut hist = Vec::new();
    for partial in partials {
        if hist.len() < partial.len() {
            hist.resize(partial.len(), 0);
        }
        for (k, count) in partial.into_iter().enumerate() {
            hist[k] += count;
        }
    }
    hist
}

/// Mean finite pairwise distance over ordered pairs (excluding
/// self-pairs), or `None` for graphs with < 2 vertices.
pub fn mean_distance(g: &Digraph) -> Option<f64> {
    if g.node_count() < 2 {
        return None;
    }
    let hist = distance_distribution(g);
    let (mut pairs, mut total) = (0u64, 0u64);
    for (k, &count) in hist.iter().enumerate().skip(1) {
        pairs += count;
        total += count * k as u64;
    }
    (pairs > 0).then(|| total as f64 / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Digraph {
        Digraph::from_fn(n, |u| [(u + 1) % n as u32])
    }

    #[test]
    fn distances_on_cycle() {
        let g = cycle(5);
        assert_eq!(distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(distances(&g, 3), vec![2, 3, 4, 0, 1]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = Digraph::from_fn(3, |u| if u == 0 { vec![1] } else { vec![] });
        let d = distances(&g, 0);
        assert_eq!(d, vec![0, 1, INFINITY]);
        assert_eq!(eccentricity(&g, 0), INFINITY);
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn diameter_of_cycles() {
        for n in 1..=20 {
            assert_eq!(diameter(&cycle(n)), Some(n as u32 - 1));
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // A mildly irregular digraph: cycle plus chords.
        let g = Digraph::from_fn(257, |u| {
            let n = 257u32;
            vec![(u + 1) % n, (u * 3 + 1) % n]
        });
        assert_eq!(eccentricities(&g), eccentricities_seq(&g));
    }

    #[test]
    fn diameter_at_most_matches_exact() {
        let g = cycle(12);
        assert_eq!(diameter_at_most(&g, 11), Some(11));
        assert_eq!(diameter_at_most(&g, 20), Some(11));
        assert_eq!(diameter_at_most(&g, 10), None);
        let disconnected = Digraph::empty(4);
        assert_eq!(diameter_at_most(&disconnected, 100), None);
    }

    #[test]
    fn distance_distribution_cycle() {
        let hist = distance_distribution(&cycle(4));
        // Each of 4 sources sees one vertex at each distance 0..=3.
        assert_eq!(hist, vec![4, 4, 4, 4]);
        assert_eq!(mean_distance(&cycle(4)), Some(2.0));
    }

    #[test]
    fn mean_distance_edge_cases() {
        assert_eq!(mean_distance(&Digraph::empty(1)), None);
        assert_eq!(mean_distance(&Digraph::empty(3)), None, "no finite pairs");
    }

    #[test]
    fn next_hop_table_on_cycle() {
        let g = cycle(7);
        let table = NextHopTable::try_build(&g).expect("under the cap");
        for u in 0..7u32 {
            for dst in 0..7u32 {
                assert_eq!(table.distance(u, dst), (dst + 7 - u) % 7);
                if u == dst {
                    assert_eq!(table.next_hop(u, dst), None);
                } else {
                    assert_eq!(table.next_hop(u, dst), Some((u + 1) % 7));
                }
            }
        }
    }

    #[test]
    fn next_hop_table_matches_bfs_and_walks_shortest_paths() {
        // Irregular digraph: cycle plus multiplicative chords.
        let n = 97u32;
        let g = Digraph::from_fn(n as usize, |u| vec![(u + 1) % n, (u * 5 + 2) % n]);
        let table = NextHopTable::try_build(&g).expect("under the cap");
        for src in 0..n {
            let dist = distances(&g, src);
            for dst in 0..n {
                assert_eq!(table.distance(src, dst), dist[dst as usize], "{src}->{dst}");
                // Walking the table must reach dst in exactly that many hops.
                let mut current = src;
                let mut hops = 0;
                while current != dst {
                    current = table.next_hop(current, dst).expect("strongly connected");
                    hops += 1;
                    assert!(hops <= n, "routing loop {src}->{dst}");
                }
                assert_eq!(hops, dist[dst as usize]);
            }
        }
    }

    #[test]
    fn next_hop_table_cap_is_a_descriptive_error() {
        let oversized = Digraph::empty(NextHopTable::MAX_NODES + 1);
        let err = NextHopTable::try_build(&oversized).unwrap_err();
        assert_eq!(err.nodes, NextHopTable::MAX_NODES + 1);
        let message = err.to_string();
        assert!(message.contains("8193 nodes"), "{message}");
        assert!(message.contains("caps at 8192"), "{message}");
        assert!(message.contains("arithmetic"), "{message}");
        // Below the cap the table builds fine. (The exact n = 8192
        // boundary is not exercised: even empty, it allocates two
        // 256 MiB arrays — too heavy for a unit test.)
        assert!(NextHopTable::try_build(&Digraph::empty(4)).is_ok());
    }

    #[test]
    fn next_hop_table_unreachable_is_none() {
        let g = Digraph::from_fn(3, |u| if u == 0 { vec![1] } else { vec![] });
        let table = NextHopTable::try_build(&g).expect("under the cap");
        assert_eq!(table.next_hop(0, 1), Some(1));
        assert_eq!(table.next_hop(1, 0), None);
        assert_eq!(table.distance(2, 0), INFINITY);
        assert_eq!(table.next_hop(2, 2), None, "self-route needs no hop");
        assert_eq!(table.distance(2, 2), 0);
    }
}
