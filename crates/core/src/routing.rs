//! Routing and broadcasting on `B(d, D)` — the distributed-computing
//! applications the paper's introduction motivates (refs [19], [28],
//! [3]).
//!
//! De Bruijn routing needs no tables and no search: the distance from
//! `x` to `y` is `D - ℓ` where `ℓ` is the longest suffix of `x` that
//! is a prefix of `y` (equivalently, the smallest `k` with
//! `⌊y / d^k⌋ = x mod d^{D-k}`), and the unique shortest path shifts
//! in the digits of `y` one per hop. Everything here is `O(D)` per
//! query, compared against BFS ground truth in the tests.

use crate::{DeBruijn, DigraphFamily, Kautz, Router};
use otis_util::digits;
use otis_words::Word;

/// Shortest-path distance from `x` to `y` in `B(d, D)`: the smallest
/// `k` such that the top `D-k` digits of `y` equal the bottom `D-k`
/// digits of `x`. Always `≤ D`.
pub fn distance(b: &DeBruijn, x: u64, y: u64) -> u32 {
    let n = b.node_count();
    assert!(x < n && y < n, "vertices out of range");
    let d = b.d() as u64;
    let dim = b.diameter();
    // Both powers run incrementally — no `pow` calls in the loop.
    let mut suffix_modulus = n; // d^{D-k}
    let mut prefix_divisor = 1u64; // d^k
    for k in 0..=dim {
        if y / prefix_divisor == x % suffix_modulus {
            return k;
        }
        suffix_modulus /= d;
        prefix_divisor = prefix_divisor.saturating_mul(d);
    }
    unreachable!("k = D always matches (both sides become the whole word)")
}

/// The shortest path from `x` to `y` (inclusive of both endpoints):
/// hop `t` shifts in digit `y_{k-t}` of the target. Length =
/// `distance(x, y) + 1` vertices.
pub fn shortest_path(b: &DeBruijn, x: u64, y: u64) -> Vec<u64> {
    let d = b.d() as u64;
    let n = b.node_count();
    let k = distance(b, x, y);
    let mut path = Vec::with_capacity(k as usize + 1);
    // d^t and d^{k-t} run incrementally across hops — one `pow` call
    // total instead of three per hop.
    let mut dt = 1u64; // d^t
    let mut dkt = digits::pow(d, k); // d^{k-t}
    for _ in 0..=k {
        // z_t = (x mod d^{D-t})·d^t + top-t digits of y's low-k block.
        let kept = x % (n / dt);
        let injected = (y / dkt) % dt;
        path.push(kept * dt + injected);
        dt = dt.saturating_mul(d);
        dkt /= d;
    }
    path
}

/// BFS levels from `root` computed arithmetically (no digraph
/// materialization): `levels[t]` lists the vertices first reached in
/// exactly `t` hops. `levels.len() - 1 == D` for any root.
pub fn broadcast_levels(b: &DeBruijn, root: u64) -> Vec<Vec<u64>> {
    let n = b.node_count();
    assert!(root < n);
    let mut level_of = vec![u32::MAX; n as usize];
    level_of[root as usize] = 0;
    let mut levels = vec![vec![root]];
    loop {
        let mut next = Vec::new();
        let t = levels.len() as u32;
        for &u in levels.last().expect("nonempty") {
            for k in 0..b.degree() {
                let v = b.out_neighbor(u, k);
                if level_of[v as usize] == u32::MAX {
                    level_of[v as usize] = t;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            return levels;
        }
        levels.push(next);
    }
}

/// Single-port broadcast schedule from `root`: per round, every
/// informed vertex forwards to at most **one** uninformed out-neighbor
/// (greedy over BFS levels). Returns the list of rounds, each a list
/// of `(sender, receiver)` pairs; all `n` vertices are informed after
/// `rounds.len()` rounds.
///
/// This is the single-port model of the broadcasting literature the
/// paper cites ([3], [28]); the greedy makespan is an upper bound on
/// the optimal broadcast time `b(B(d,D))`.
pub fn single_port_broadcast(b: &DeBruijn, root: u64) -> Vec<Vec<(u64, u64)>> {
    let n = b.node_count() as usize;
    let mut informed = vec![false; n];
    informed[root as usize] = true;
    let mut informed_list = vec![root];
    let mut rounds = Vec::new();
    while informed_list.len() < n {
        let mut round = Vec::new();
        let mut newly = Vec::new();
        for &u in &informed_list {
            for k in 0..b.degree() {
                let v = b.out_neighbor(u, k);
                if !informed[v as usize] {
                    informed[v as usize] = true;
                    newly.push(v);
                    round.push((u, v));
                    break; // single-port: one message per round
                }
            }
        }
        assert!(
            !round.is_empty(),
            "broadcast stalled with {} of {n} informed",
            informed_list.len()
        );
        informed_list.extend_from_slice(&newly);
        rounds.push(round);
    }
    rounds
}

// ----- multicast trees -------------------------------------------------------

/// Sentinel for "no parent arc" (the arc hangs off the root), "not in
/// the tree" (the builder's node table) and "no link" (a cut arc).
const NO_ARC: u32 = u32::MAX;

/// A multicast delivery tree: the union of a router's shortest-path
/// walks from one root to a set of destinations, greedily merged onto
/// shared prefixes.
///
/// Construction walks [`Router::next_hop`] from the root toward each
/// destination and adds only the arcs not already in the tree. Because
/// every subpath of a shortest path is itself shortest, a node's
/// position is the same in every walk that visits it — `d(root, v)` —
/// so merges are depth-consistent, each node gets exactly one parent,
/// and the tree's depth never exceeds the root's eccentricity (≤ the
/// fabric diameter). The full-fabric special case (every node a
/// destination) covers exactly the BFS levels of
/// [`broadcast_levels`]; [`MulticastTree::broadcast`] builds that case
/// directly from the level arithmetic, no router queries at all.
///
/// Arcs are indexed `0..arc_count()` with parents strictly before
/// children, so a single forward pass can propagate any root-to-leaf
/// quantity (depths, latencies). Per arc the tree records the requests
/// delivered at its child endpoint (an O(1) lookup) and its *leaf
/// load* — how many requested destinations sit in the subtree under
/// it, i.e. how many unicast packets the arc would have carried had
/// each destination been served by its own shortest-path copy. Child
/// lists are stored flat (CSR: one offsets array, one list).
/// `max(trees per link)` over a workload is the **multicast forwarding
/// index** of the BCube analysis in PAPERS.md; `max(leaf load per
/// link)` is its unicast counterpart, and the gap between the two is
/// the replication the tree saved.
///
/// Every tree comes out of a [`TreeBuilder`]; build many trees through
/// one builder to reuse its buffers.
#[derive(Debug, Clone, Default)]
pub struct MulticastTree {
    root: u64,
    /// The tree arcs, parents before children.
    arcs: Vec<TreeArc>,
    /// CSR child lists: `child_list[child_off[a]..child_off[a + 1]]`
    /// are arc `a`'s child arcs, ascending.
    child_off: Vec<u32>,
    child_list: Vec<u32>,
    /// Arc indices hanging directly off the root.
    root_arcs: Vec<u32>,
    /// How many times the root itself was requested (delivered at the
    /// source, like a unicast self-pair).
    self_requests: usize,
    /// Requested destinations with no route from the root.
    unreachable: Vec<u64>,
}

/// One arc of a [`MulticastTree`].
#[derive(Debug, Clone, Copy)]
struct TreeArc {
    /// Parent endpoint.
    from: u64,
    /// Child endpoint.
    to: u64,
    /// Index of the arc into `from` ([`NO_ARC`] = `from` is the root).
    parent: u32,
    /// Depth of `to` (root = depth 0).
    depth: u32,
    /// The link the builder's resolver named ([`NO_ARC`] = cut).
    link: u32,
    /// Requests delivered at `to`.
    deliveries: u64,
    /// Requested destinations in the subtree under the arc.
    leaf_load: u64,
}

/// Reusable scratch for building [`MulticastTree`]s: once its buffers
/// have grown, a builder (start from `default()`) makes any number of
/// trees without allocating. Its node → incoming-arc table spans the
/// fabric but is reset only at the nodes the previous tree touched, so
/// a small tree on a large fabric costs its own size, not the
/// fabric's.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    /// node → index of its incoming tree arc ([`NO_ARC`] = not in the
    /// tree): pure lookups, so a map would buy nothing but hashing.
    incoming: Vec<u32>,
    tree: MulticastTree,
}

impl TreeBuilder {
    /// Build the delivery tree for `root → dsts` over `router`'s
    /// shortest-path next hops. Duplicate destinations are delivered
    /// once per request (`leaf_load` counts requests); destinations
    /// the router cannot reach — off-fabric, no next hop, an
    /// off-fabric hop, or a walk past the hop limit `max(n, 64)` —
    /// are recorded in [`MulticastTree::unreachable`].
    ///
    /// `link(from, to)` names the fabric link each new arc rides, in
    /// arc order. `None` (no such link) cuts the arc and its whole
    /// subtree; the resolver is not asked about arcs below a cut.
    pub fn build(
        &mut self,
        router: &dyn Router,
        root: u64,
        dsts: &[u64],
        mut link: impl FnMut(u64, u64) -> Option<u32>,
    ) -> &MulticastTree {
        let n = router.node_count();
        assert!(
            root < n,
            "root {root} is not a fabric node (fabric has {n})"
        );
        self.reset(n, root);
        let hop_limit = n.max(64);
        let TreeBuilder { incoming, tree } = self;
        'dst: for &dst in dsts {
            if dst == root {
                tree.self_requests += 1;
                continue;
            }
            if dst >= n {
                // Off-fabric destination: unreachable by definition,
                // before any router is asked about it.
                tree.unreachable.push(dst);
                continue;
            }
            if incoming[dst as usize] == NO_ARC {
                // Walk the router's shortest path, adding unseen arcs.
                let mut current = root;
                let mut hops = 0u64;
                while current != dst {
                    hops += 1;
                    let next = (hops <= hop_limit)
                        .then(|| router.next_hop(current, dst))
                        .flatten()
                        .filter(|&next| next < n);
                    let Some(next) = next else {
                        // A routing loop, no next hop, or an off-fabric one.
                        tree.unreachable.push(dst);
                        continue 'dst;
                    };
                    if incoming[next as usize] == NO_ARC {
                        tree.push_arc(incoming, current, next, &mut link);
                    }
                    current = next;
                }
            }
            tree.arcs[incoming[dst as usize] as usize].deliveries += 1;
        }
        tree.finish();
        &self.tree
    }

    /// Forget the previous tree: reset the node table where it
    /// touched, grow it to `n` nodes, and start an empty tree at
    /// `root`.
    fn reset(&mut self, n: u64, root: u64) {
        for arc in &self.tree.arcs {
            self.incoming[arc.to as usize] = NO_ARC;
        }
        if self.incoming.len() < n as usize {
            self.incoming.resize(n as usize, NO_ARC);
        }
        let tree = &mut self.tree;
        tree.root = root;
        tree.self_requests = 0;
        tree.arcs.clear();
        tree.child_off.clear();
        tree.child_list.clear();
        tree.root_arcs.clear();
        tree.unreachable.clear();
    }
}

impl MulticastTree {
    /// [`TreeBuilder::build`] with a fresh builder, accepting every
    /// arc the router proposes ([`MulticastTree::link`] reads `0`
    /// throughout).
    pub fn build(router: &dyn Router, root: u64, dsts: &[u64]) -> Self {
        let mut builder = TreeBuilder::default();
        builder.build(router, root, dsts, |_, _| Some(0));
        builder.tree
    }

    /// The full-fabric broadcast tree from `root` on `B(d, D)`,
    /// assembled directly from the [`broadcast_levels`] BFS — the
    /// special case of [`MulticastTree::build`] with every other node
    /// a destination, no router in sight.
    pub fn broadcast(b: &DeBruijn, root: u64) -> Self {
        let n = b.node_count();
        assert!(root < n, "root {root} is not a vertex of {}", b.name());
        let mut builder = TreeBuilder::default();
        builder.reset(n, root);
        let TreeBuilder {
            mut incoming,
            mut tree,
        } = builder;
        let mut frontier = vec![root];
        while !frontier.is_empty() {
            let mut next_frontier = Vec::new();
            for &u in &frontier {
                for k in 0..b.degree() {
                    let v = b.out_neighbor(u, k);
                    if v == root || incoming[v as usize] != NO_ARC {
                        continue;
                    }
                    // Every non-root node is one delivery.
                    tree.push_arc(&mut incoming, u, v, &mut |_, _| Some(0));
                    tree.arcs[incoming[v as usize] as usize].deliveries = 1;
                    next_frontier.push(v);
                }
            }
            frontier = next_frontier;
        }
        tree.finish();
        tree
    }

    /// Append the arc `from → to`, hung under `from`'s incoming arc
    /// (or off the root), and record it as `to`'s incoming arc.
    fn push_arc(
        &mut self,
        incoming: &mut [u32],
        from: u64,
        to: u64,
        link: &mut impl FnMut(u64, u64) -> Option<u32>,
    ) {
        let index = self.arcs.len() as u32;
        let parent = if from == self.root {
            self.root_arcs.push(index);
            NO_ARC
        } else {
            incoming[from as usize]
        };
        let (depth, cut) = match parent {
            NO_ARC => (1, false),
            p => {
                let up = &self.arcs[p as usize];
                (up.depth + 1, up.link == NO_ARC)
            }
        };
        let link = if cut { None } else { link(from, to) };
        self.arcs.push(TreeArc {
            from,
            to,
            parent,
            depth,
            link: link.unwrap_or(NO_ARC),
            deliveries: 0,
            leaf_load: 0,
        });
        incoming[to as usize] = index;
    }

    /// Derive leaf loads (children before parents) and the CSR child
    /// lists (by counting) once every arc and delivery is in.
    fn finish(&mut self) {
        let arcs = self.arcs.len();
        for index in (0..arcs).rev() {
            let arc = &mut self.arcs[index];
            arc.leaf_load += arc.deliveries;
            let (parent, load) = (arc.parent, arc.leaf_load);
            if parent != NO_ARC {
                self.arcs[parent as usize].leaf_load += load;
            }
        }
        // Count children into `child_off[p + 1]`, prefix-sum into row
        // starts, fill each row in arc order (bumping its start), then
        // shift the bumped starts back into place.
        self.child_off.resize(arcs + 1, 0);
        for arc in &self.arcs {
            if arc.parent != NO_ARC {
                self.child_off[arc.parent as usize + 1] += 1;
            }
        }
        for arc in 0..arcs {
            self.child_off[arc + 1] += self.child_off[arc];
        }
        self.child_list.resize(self.child_off[arcs] as usize, 0);
        for (index, arc) in self.arcs.iter().enumerate() {
            if arc.parent != NO_ARC {
                let slot = &mut self.child_off[arc.parent as usize];
                self.child_list[*slot as usize] = index as u32;
                *slot += 1;
            }
        }
        self.child_off.copy_within(0..arcs, 1);
        self.child_off[0] = 0;
    }

    /// The tree's root node.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Number of tree arcs (= nodes reached, root excluded).
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The `(parent, child)` endpoints of the `arc`-th tree arc.
    pub fn endpoints(&self, arc: usize) -> (u64, u64) {
        (self.arcs[arc].from, self.arcs[arc].to)
    }

    /// Depth of the `arc`-th arc's child endpoint (root = 0).
    pub fn arc_depth(&self, arc: usize) -> u32 {
        self.arcs[arc].depth
    }

    /// Index of the arc into the `arc`-th arc's parent endpoint;
    /// `None` when the arc hangs off the root. Always `< arc` —
    /// parents precede children.
    pub fn parent_arc(&self, arc: usize) -> Option<usize> {
        let parent = self.arcs[arc].parent;
        (parent != NO_ARC).then_some(parent as usize)
    }

    /// The fabric link the `arc`-th arc rides, as named by the
    /// resolver given to [`TreeBuilder::build`]; `None` when the arc
    /// is cut — the resolver rejected it or one of its ancestors.
    pub fn link(&self, arc: usize) -> Option<u32> {
        let link = self.arcs[arc].link;
        (link != NO_ARC).then_some(link)
    }

    /// True iff the `arc`-th arc's child endpoint is a requested
    /// destination.
    pub fn delivers(&self, arc: usize) -> bool {
        self.arcs[arc].deliveries > 0
    }

    /// Requested destinations in the subtree under the `arc`-th arc —
    /// the unicast packets this arc would carry without replication.
    pub fn leaf_load(&self, arc: usize) -> u64 {
        self.arcs[arc].leaf_load
    }

    /// Child arc indices of the `arc`-th arc, ascending.
    pub fn child_arcs(&self, arc: usize) -> &[u32] {
        &self.child_list[self.child_off[arc] as usize..self.child_off[arc + 1] as usize]
    }

    /// Requests delivered at the `arc`-th arc's child endpoint: its
    /// leaf load minus what flows on to its children. Positive iff
    /// [`MulticastTree::delivers`]; counts duplicates per request, so
    /// deliveries summed over arcs equal [`MulticastTree::reached_leaves`].
    pub fn deliveries_at(&self, arc: usize) -> u64 {
        self.arcs[arc].deliveries
    }

    /// Arc indices hanging directly off the root.
    pub fn root_arcs(&self) -> &[u32] {
        &self.root_arcs
    }

    /// Requests for the root itself (delivered at the source).
    pub fn self_requests(&self) -> usize {
        self.self_requests
    }

    /// Requested destinations the router could not reach.
    pub fn unreachable(&self) -> &[u64] {
        &self.unreachable
    }

    /// Requested destinations reachable through the tree, duplicates
    /// counted per request (root self-requests excluded).
    pub fn reached_leaves(&self) -> u64 {
        self.root_arcs
            .iter()
            .map(|&arc| self.arcs[arc as usize].leaf_load)
            .sum()
    }

    /// Every requested leaf: reached + root self-requests +
    /// unreachable. The conservation total a multicast engine must
    /// account for.
    pub fn total_leaves(&self) -> u64 {
        self.reached_leaves() + self.self_requests as u64 + self.unreachable.len() as u64
    }

    /// Deepest arc of the tree, in hops from the root (`0` for an
    /// empty tree).
    pub fn max_depth(&self) -> u32 {
        self.arcs.iter().map(|arc| arc.depth).max().unwrap_or(0)
    }
}

// ----- Kautz routing ---------------------------------------------------------

/// Shortest-path distance in `K(d, D)`: the same longest-overlap rule
/// as de Bruijn — the smallest `k` such that the top `D-k` letters of
/// `y` equal the bottom `D-k` letters of `x`.
///
/// No extra feasibility condition is needed: the letters shifted in
/// along the path are exactly `y_{k-1} … y_0`, and `y` being a Kautz
/// word makes every junction legal (`y_{k-1} ≠ y_k = x_0`).
pub fn kautz_distance(k: &Kautz, x: &Word, y: &Word) -> u32 {
    let space = k.space();
    assert!(
        space.contains(x) && space.contains(y),
        "not Kautz({},{}) words",
        k.d(),
        k.diameter()
    );
    let dim = k.diameter() as usize;
    'shift: for steps in 0..=dim {
        for position in 0..dim - steps {
            if y.digit(position + steps) != x.digit(position) {
                continue 'shift;
            }
        }
        return steps as u32;
    }
    unreachable!("steps = D always matches")
}

/// The shortest path from `x` to `y` in `K(d, D)` as words (inclusive
/// of both endpoints).
pub fn kautz_shortest_path(k: &Kautz, x: &Word, y: &Word) -> Vec<Word> {
    let steps = kautz_distance(k, x, y) as usize;
    let mut path = Vec::with_capacity(steps + 1);
    let mut current: Vec<u8> = x.positions().to_vec();
    path.push(x.clone());
    for t in 1..=steps {
        // Shift left (drop the top letter) and append y_{steps-t}.
        current.rotate_right(1);
        current[0] = y.digit(steps - t);
        path.push(Word::from_positions(current.clone()));
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_digraph::bfs;

    #[test]
    fn distance_matches_bfs_exhaustively() {
        for (d, dd) in [(2u32, 4u32), (3, 3), (4, 2)] {
            let b = DeBruijn::new(d, dd);
            let g = b.digraph();
            for x in 0..b.node_count() {
                let dist = bfs::distances(&g, x as u32);
                for y in 0..b.node_count() {
                    assert_eq!(
                        distance(&b, x, y),
                        dist[y as usize],
                        "d({x},{y}) in B({d},{dd})"
                    );
                }
            }
        }
    }

    #[test]
    fn paths_are_valid_walks_of_right_length() {
        let b = DeBruijn::new(3, 4);
        let g = b.digraph();
        for x in [0u64, 5, 17, 80] {
            for y in [0u64, 3, 44, 80] {
                let path = shortest_path(&b, x, y);
                assert_eq!(path[0], x);
                assert_eq!(*path.last().unwrap(), y);
                assert_eq!(path.len() as u32 - 1, distance(&b, x, y));
                for pair in path.windows(2) {
                    assert!(
                        g.has_arc(pair[0] as u32, pair[1] as u32),
                        "invalid hop {} -> {}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }

    #[test]
    fn self_distance_zero_unless_shift_needed() {
        let b = DeBruijn::new(2, 3);
        assert_eq!(distance(&b, 5, 5), 0);
        assert_eq!(shortest_path(&b, 5, 5), vec![5]);
    }

    #[test]
    fn broadcast_levels_reach_everything_in_diameter_rounds() {
        for (d, dd) in [(2u32, 4u32), (3, 3)] {
            let b = DeBruijn::new(d, dd);
            let levels = broadcast_levels(&b, 1);
            assert_eq!(levels.len() as u32 - 1, dd, "eccentricity = D");
            let total: usize = levels.iter().map(Vec::len).sum();
            assert_eq!(total as u64, b.node_count());
        }
    }

    #[test]
    fn single_port_broadcast_informs_all() {
        let b = DeBruijn::new(2, 4);
        let rounds = single_port_broadcast(&b, 0);
        let informed: usize = rounds.iter().map(Vec::len).sum();
        assert_eq!(informed as u64 + 1, b.node_count());
        // Single-port lower bound: log2(n) rounds.
        assert!(rounds.len() >= 4);
        // Every sender sends at most once per round.
        for round in &rounds {
            let mut senders: Vec<u64> = round.iter().map(|&(s, _)| s).collect();
            senders.sort_unstable();
            senders.dedup();
            assert_eq!(senders.len(), round.len());
        }
    }

    #[test]
    fn multicast_tree_merges_shared_prefixes() {
        let b = DeBruijn::new(2, 4);
        let g = b.digraph();
        let router = crate::DeBruijnRouter::new(b);
        let dsts = [3u64, 7, 11, 15, 15, 0];
        let tree = MulticastTree::build(&router, 0, &dsts);
        // Root requests deliver at the source.
        assert_eq!(tree.self_requests(), 1);
        assert!(tree.unreachable().is_empty());
        // Every requested leaf accounted: 4 distinct + 1 duplicate.
        assert_eq!(tree.reached_leaves(), 5);
        assert_eq!(tree.total_leaves(), dsts.len() as u64);
        // Tree arcs are fabric arcs, each child has one parent, and
        // arc depths match shortest distances (merge consistency).
        let mut seen_children = std::collections::HashSet::new();
        for arc in 0..tree.arc_count() {
            let (from, to) = tree.endpoints(arc);
            assert!(g.has_arc(from as u32, to as u32), "{from}->{to}");
            assert!(seen_children.insert(to), "child {to} has two parents");
            assert_eq!(tree.arc_depth(arc) as u64, distance(&b, 0, to) as u64);
        }
        assert!(tree.max_depth() <= b.diameter());
        // The tree is strictly smaller than per-leaf unicast: paths to
        // 3, 7, 15 share the prefix through 1.
        let unicast_hops: u64 = [3u64, 7, 11, 15, 15]
            .iter()
            .map(|&dst| distance(&b, 0, dst) as u64)
            .sum();
        let tree_hops = tree.arc_count() as u64;
        assert!(tree_hops < unicast_hops, "{tree_hops} vs {unicast_hops}");
        // Deliveries per arc sum to the reached leaves.
        let delivered: u64 = (0..tree.arc_count()).map(|a| tree.deliveries_at(a)).sum();
        assert_eq!(delivered, tree.reached_leaves());
    }

    #[test]
    fn broadcast_tree_equals_broadcast_levels() {
        for (d, dd) in [(2u32, 4u32), (3, 3)] {
            let b = DeBruijn::new(d, dd);
            for root in [0u64, 1, b.node_count() / 2] {
                let tree = MulticastTree::broadcast(&b, root);
                let levels = broadcast_levels(&b, root);
                assert_eq!(tree.arc_count() as u64 + 1, b.node_count());
                assert_eq!(tree.max_depth() as usize, levels.len() - 1);
                // Each node's tree depth is exactly its BFS level.
                let mut level_of = vec![0u32; b.node_count() as usize];
                for (level, nodes) in levels.iter().enumerate() {
                    for &v in nodes {
                        level_of[v as usize] = level as u32;
                    }
                }
                for arc in 0..tree.arc_count() {
                    let (_, to) = tree.endpoints(arc);
                    assert_eq!(tree.arc_depth(arc), level_of[to as usize]);
                    assert!(tree.delivers(arc));
                    assert_eq!(tree.deliveries_at(arc), 1);
                }
                // The router-built full-fanout tree covers the same
                // levels — broadcast is the special case it claims.
                let router = crate::DeBruijnRouter::new(b);
                let all: Vec<u64> = (0..b.node_count()).filter(|&v| v != root).collect();
                let routed = MulticastTree::build(&router, root, &all);
                assert_eq!(routed.arc_count(), tree.arc_count());
                assert_eq!(routed.reached_leaves(), tree.reached_leaves());
                for arc in 0..routed.arc_count() {
                    let (_, to) = routed.endpoints(arc);
                    assert_eq!(routed.arc_depth(arc), level_of[to as usize]);
                }
            }
        }
    }

    #[test]
    fn multicast_tree_records_unreachable_destinations() {
        // A fabric where node 2 is a sink: 0→1→0, 2 isolated.
        use otis_digraph::Digraph;
        let g = Digraph::from_fn(3, |u| if u < 2 { vec![(u + 1) % 2] } else { vec![] });
        let table = crate::RoutingTable::new(&g);
        let tree = MulticastTree::build(&table, 0, &[1, 2]);
        assert_eq!(tree.reached_leaves(), 1);
        assert_eq!(tree.unreachable(), &[2]);
        assert_eq!(tree.total_leaves(), 2);
        assert_eq!(tree.arc_count(), 1);
    }

    #[test]
    fn kautz_distance_matches_bfs_exhaustively() {
        for (d, dd) in [(2u32, 3u32), (3, 2), (2, 4)] {
            let k = Kautz::new(d, dd);
            let g = k.digraph();
            let space = *k.space();
            for xr in 0..k.node_count() {
                let dist = bfs::distances(&g, xr as u32);
                let x = space.unrank(xr);
                for yr in 0..k.node_count() {
                    let y = space.unrank(yr);
                    assert_eq!(
                        kautz_distance(&k, &x, &y),
                        dist[yr as usize],
                        "d({x},{y}) in K({d},{dd})"
                    );
                }
            }
        }
    }

    #[test]
    fn kautz_paths_are_valid_kautz_walks() {
        let k = Kautz::new(2, 4);
        let g = k.digraph();
        let space = *k.space();
        for xr in (0..k.node_count()).step_by(5) {
            for yr in (0..k.node_count()).step_by(7) {
                let (x, y) = (space.unrank(xr), space.unrank(yr));
                let path = kautz_shortest_path(&k, &x, &y);
                assert_eq!(path[0], x);
                assert_eq!(*path.last().unwrap(), y);
                assert_eq!(path.len() as u32 - 1, kautz_distance(&k, &x, &y));
                for pair in path.windows(2) {
                    assert!(space.contains(&pair[1]), "{} is not a Kautz word", pair[1]);
                    assert!(
                        g.has_arc(space.rank(&pair[0]) as u32, space.rank(&pair[1]) as u32),
                        "invalid hop {} -> {}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }

    #[test]
    fn single_port_broadcast_upper_bound_reasonable() {
        // Known: b(B(2,D)) ≤ 2(D+1) roughly; greedy should stay within
        // a small factor of D for these sizes.
        for dd in 2..=6u32 {
            let b = DeBruijn::new(2, dd);
            let rounds = single_port_broadcast(&b, 0);
            assert!(
                (rounds.len() as u32) <= 3 * dd,
                "greedy broadcast used {} rounds at D = {dd}",
                rounds.len()
            );
        }
    }
}
