//! Compressed sparse row (CSR) graph storage with in-place patching.
//!
//! [`DiGraph`]'s `Vec<Vec<Arc>>` adjacency is convenient to build but costs
//! one heap allocation per node and scatters arc slabs across the heap — the
//! best-response inner loops of the game layer traverse the same graph
//! thousands of times per second and pay for that scatter on every arc hop.
//! [`CsrGraph`] packs all arcs into two flat arenas (`targets`, `lengths`)
//! with a per-node span, so a traversal walks contiguous memory and a
//! configuration change that rewires **one** node patches one slab in place
//! ([`CsrGraph::set_out_links`]) instead of rebuilding the graph.
//!
//! Patching policy: each node's slab carries a little spare capacity. A new
//! strategy that fits the slab is written in place; one that doesn't gets a
//! fresh slab at the arena tail and the old slots become garbage, reclaimed
//! by an automatic compaction once more than half the arena is dead. Spans
//! are node-local, so compaction never invalidates node indices.
//!
//! Shortest-path rows over this layout come from the clamped kernels of
//! [`crate::rows`] ([`crate::ClampedBfs`], [`crate::ClampedDijkstra`]),
//! including the *skip-node* traversal (`G∖u`: ignore one node's out-arcs)
//! that defines the game layer's deviation rows. [`ReverseCsr`] holds the
//! in-arcs that the game layer needs to derive those rows from full-graph
//! rows, and that the strong-connectivity check sweeps backwards.

use crate::{bitset::BitSet, DiGraph};

/// Per-node slab descriptor into the arc arenas.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// A directed graph in compressed-sparse-row form with patchable rows.
///
/// # Examples
///
/// ```
/// use bbc_graph::csr::CsrGraph;
///
/// let mut g = CsrGraph::new(4);
/// g.set_out_links(0, &[(1, 1), (2, 1)]);
/// g.set_out_links(2, &[(3, 5)]);
/// assert_eq!(g.arc_count(), 3);
/// assert_eq!(g.out_targets(0), &[1, 2]);
/// g.set_out_links(0, &[(3, 1)]); // in-place patch
/// assert_eq!(g.out_targets(0), &[3]);
/// assert_eq!(g.arc_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct CsrGraph {
    spans: Vec<Span>,
    targets: Vec<u32>,
    lengths: Vec<u64>,
    live_arcs: usize,
    non_unit_arcs: usize,
    dead_slots: usize,
}

impl CsrGraph {
    /// Creates an arc-less graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "node count {n} exceeds u32 range");
        Self {
            spans: vec![Span::default(); n],
            targets: Vec::new(),
            lengths: Vec::new(),
            live_arcs: 0,
            non_unit_arcs: 0,
            dead_slots: 0,
        }
    }

    /// Converts an adjacency-list graph (arc order per node is preserved).
    pub fn from_digraph(g: &DiGraph) -> Self {
        let mut csr = Self::new(g.node_count());
        let mut row: Vec<(u32, u64)> = Vec::new();
        for u in 0..g.node_count() {
            row.clear();
            row.extend(g.out_arcs(u).iter().map(|a| (a.to, a.len)));
            csr.set_out_links(u, &row);
        }
        csr
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of (live) arcs.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.live_arcs
    }

    /// `true` when every arc has length exactly 1.
    #[inline]
    pub fn is_unit_length(&self) -> bool {
        self.non_unit_arcs == 0
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: usize) -> usize {
        self.spans[u].len as usize
    }

    /// Targets of `u`'s out-arcs (contiguous slice).
    #[inline]
    pub fn out_targets(&self, u: usize) -> &[u32] {
        let s = self.spans[u];
        &self.targets[s.start as usize..(s.start + s.len) as usize]
    }

    /// Targets and lengths of `u`'s out-arcs (parallel slices).
    #[inline]
    pub fn out(&self, u: usize) -> (&[u32], &[u64]) {
        let s = self.spans[u];
        let range = s.start as usize..(s.start + s.len) as usize;
        (&self.targets[range.clone()], &self.lengths[range])
    }

    /// Replaces `u`'s out-links with `links`, patching the slab in place when
    /// it fits and relocating it to the arena tail otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `u` or any target is out of bounds, or any length is zero.
    pub fn set_out_links(&mut self, u: usize, links: &[(u32, u64)]) {
        let n = self.spans.len();
        assert!(u < n, "source {u} out of bounds");
        for &(to, len) in links {
            assert!((to as usize) < n, "target {to} out of bounds");
            assert!(len > 0, "arc length must be positive");
        }
        let old = self.spans[u];
        let old_range = old.start as usize..(old.start + old.len) as usize;
        self.non_unit_arcs -= self.lengths[old_range].iter().filter(|&&l| l != 1).count();
        self.non_unit_arcs += links.iter().filter(|&&(_, l)| l != 1).count();
        self.live_arcs = self.live_arcs - old.len as usize + links.len();

        if links.len() <= old.cap as usize {
            let start = old.start as usize;
            for (i, &(to, len)) in links.iter().enumerate() {
                self.targets[start + i] = to;
                self.lengths[start + i] = len;
            }
            // bbc-lint: allow(narrowing-cast, len <= cap already fits the span word)
            self.spans[u].len = links.len() as u32;
            return;
        }

        // Relocate: old slab becomes garbage, new slab (with a little
        // headroom so steady-state rewiring stays in place) goes at the tail.
        self.dead_slots += old.cap as usize;
        let cap = links.len() + 2;
        let start = self.targets.len();
        assert!(
            start + cap <= u32::MAX as usize,
            "arc arena exceeds u32 range"
        );
        self.targets.extend(links.iter().map(|&(to, _)| to));
        self.lengths.extend(links.iter().map(|&(_, len)| len));
        self.targets.resize(start + cap, 0);
        self.lengths.resize(start + cap, 0);
        self.spans[u] = Span {
            start: start as u32, // bbc-lint: allow(narrowing-cast, start+cap <= u32::MAX asserted above)
            len: links.len() as u32, // bbc-lint: allow(narrowing-cast, len < cap <= u32::MAX asserted above)
            cap: cap as u32, // bbc-lint: allow(narrowing-cast, start+cap <= u32::MAX asserted above)
        };

        if self.dead_slots > self.targets.len() / 2 && self.targets.len() > 64 {
            self.compact();
        }
    }

    /// Appends a new, arc-less node and returns its id (`node_count() - 1`).
    ///
    /// Existing node ids, spans and arenas are untouched — growth is purely
    /// additive, so cached traversal results for the old nodes stay valid
    /// (the new node is unreachable until someone links to it).
    pub fn add_node(&mut self) -> usize {
        let id = self.spans.len();
        assert!(id < u32::MAX as usize, "node count exceeds u32 range");
        self.spans.push(Span::default());
        id
    }

    /// Retires node `u` from the arc arenas: its out-links are dropped and
    /// its slab is reclaimed as garbage (compacted away by the standing
    /// dead-slot policy). The node id itself remains valid — `u` stays an
    /// addressable, arc-less node, so no other node's id shifts.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds or some other node still links to `u`
    /// (callers must strip in-arcs first; a departed node with dangling
    /// in-arcs would silently keep absorbing traffic).
    pub fn remove_node(&mut self, u: usize) {
        assert!(u < self.spans.len(), "node {u} out of bounds");
        for w in 0..self.spans.len() {
            if w != u {
                assert!(
                    // bbc-lint: allow(narrowing-cast, u < spans.len() <= u32::MAX per the constructor assert)
                    !self.out_targets(w).contains(&(u as u32)),
                    "node {w} still links to removed node {u}"
                );
            }
        }
        self.set_out_links(u, &[]);
        // The empty row fits any slab in place; explicitly retire the slab
        // so a long-lived graph does not leak capacity for departed nodes.
        let old = self.spans[u];
        self.dead_slots += old.cap as usize;
        self.spans[u] = Span::default();
        if self.dead_slots > self.targets.len() / 2 && self.targets.len() > 64 {
            self.compact();
        }
    }

    /// Rebuilds the arenas into the canonical layout a fresh
    /// [`CsrGraph::new`] + per-node [`CsrGraph::set_out_links`] build (in
    /// node order) produces — byte-identical spans and arenas, garbage-free.
    ///
    /// This is the determinism hook for node-churn workloads: after a
    /// membership change, canonicalizing makes the physical graph state
    /// (hence [`CsrGraph::arena_digest`]) independent of the patch history
    /// that led to it.
    pub fn rebuild_canonical(&mut self) {
        let n = self.spans.len();
        let mut fresh = CsrGraph::new(n);
        let mut row: Vec<(u32, u64)> = Vec::new();
        for u in 0..n {
            let (targets, lengths) = self.out(u);
            row.clear();
            row.extend(targets.iter().copied().zip(lengths.iter().copied()));
            fresh.set_out_links(u, &row);
        }
        *self = fresh;
    }

    /// FNV-1a digest of the physical graph state: node count, spans, and
    /// both arc arenas (garbage slots included). Two graphs with equal
    /// digests went through layout-equivalent build histories; pair with
    /// [`CsrGraph::rebuild_canonical`] to compare graphs modulo history.
    pub fn arena_digest(&self) -> u64 {
        let mut h = crate::digest::Fnv1a::new();
        h.write_u64(self.spans.len() as u64);
        for s in &self.spans {
            h.write_u64(u64::from(s.start));
            h.write_u64(u64::from(s.len));
            h.write_u64(u64::from(s.cap));
        }
        for &t in &self.targets {
            h.write_u64(u64::from(t));
        }
        for &l in &self.lengths {
            h.write_u64(l);
        }
        h.finish()
    }

    /// Rebuilds the arenas with no dead slots (spans keep their capacity).
    fn compact(&mut self) {
        let total_cap: usize = self.spans.iter().map(|s| s.cap as usize).sum();
        let mut targets = Vec::with_capacity(total_cap);
        let mut lengths = Vec::with_capacity(total_cap);
        for s in &mut self.spans {
            // bbc-lint: allow(narrowing-cast, compaction only shrinks an arena already asserted to fit u32)
            let start = targets.len() as u32;
            let range = s.start as usize..(s.start + s.len) as usize;
            targets.extend_from_slice(&self.targets[range.clone()]);
            lengths.extend_from_slice(&self.lengths[range]);
            targets.resize((start + s.cap) as usize, 0);
            lengths.resize((start + s.cap) as usize, 0);
            s.start = start;
        }
        self.targets = targets;
        self.lengths = lengths;
        self.dead_slots = 0;
    }
}

/// The reverse adjacency of a [`CsrGraph`]: each node's in-arcs as
/// `(source, length)` pairs, ascending by source.
///
/// [`ReverseCsr::rebuild`] makes one counting sort over the forward arcs
/// into pooled arenas, so a rebuild allocates nothing once the arenas have
/// grown to the graph's size.
///
/// # Examples
///
/// ```
/// use bbc_graph::csr::{CsrGraph, ReverseCsr};
///
/// let mut g = CsrGraph::new(3);
/// g.set_out_links(0, &[(2, 4)]);
/// g.set_out_links(1, &[(2, 1), (0, 1)]);
/// let mut rev = ReverseCsr::new();
/// rev.rebuild(&g);
/// assert_eq!(rev.in_arcs(2), (&[0, 1][..], &[4, 1][..]));
/// assert_eq!(rev.in_arcs(1), (&[][..], &[][..]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReverseCsr {
    /// `offsets[v]..offsets[v + 1]` spans `v`'s in-arcs.
    offsets: Vec<u32>,
    sources: Vec<u32>,
    lengths: Vec<u64>,
}

impl ReverseCsr {
    /// Creates an empty reverse adjacency (arenas grow on first rebuild).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the in-arcs of every node of `g`.
    pub fn rebuild(&mut self, g: &CsrGraph) {
        let n = g.node_count();
        // Count in-degrees one slot to the right, so the prefix sums below
        // leave `offsets[v]` at the start of `v`'s span.
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for u in 0..n {
            for &t in g.out_targets(u) {
                self.offsets[t as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        let m = self.offsets[n] as usize;
        self.sources.clear();
        self.sources.resize(m, 0);
        self.lengths.clear();
        self.lengths.resize(m, 0);
        // Place each arc at its target's cursor. Advancing `offsets[t]`
        // moves each span start to the next span's start; shifting right by
        // one slot afterwards restores the starts.
        for u in 0..n {
            let (targets, lengths) = g.out(u);
            for (&t, &len) in targets.iter().zip(lengths) {
                let slot = self.offsets[t as usize] as usize;
                // bbc-lint: allow(narrowing-cast, u < n <= u32::MAX per the CsrGraph constructor assert)
                self.sources[slot] = u as u32;
                self.lengths[slot] = len;
                self.offsets[t as usize] += 1;
            }
        }
        self.offsets.copy_within(0..n, 1);
        self.offsets[0] = 0;
    }

    /// Sources and lengths of `v`'s in-arcs (parallel slices).
    #[inline]
    pub fn in_arcs(&self, v: usize) -> (&[u32], &[u64]) {
        let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
        (&self.sources[range.clone()], &self.lengths[range])
    }

    /// Bytes held by the arenas (by capacity).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.sources.capacity() * std::mem::size_of::<u32>()
            + self.lengths.capacity() * std::mem::size_of::<u64>()
    }
}

/// Reusable scratch for strong-connectivity checks on [`CsrGraph`]s.
///
/// A graph is strongly connected iff node 0 reaches every node in both `G`
/// and the reverse graph. The reverse adjacency is rebuilt per call into a
/// pooled [`ReverseCsr`], so the check allocates nothing after warm-up —
/// the dynamics engine runs it after every applied move.
#[derive(Clone, Debug, Default)]
pub struct ConnectivityScratch {
    visited: Vec<bool>,
    stack: Vec<u32>,
    rev: ReverseCsr,
}

impl ConnectivityScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` iff `g` is strongly connected. Graphs with at most one node
    /// are vacuously strongly connected.
    pub fn is_strongly_connected(&mut self, g: &CsrGraph) -> bool {
        self.is_strongly_connected_among(g, None)
    }

    /// `true` iff the subgraph induced by `live` is strongly connected
    /// (`None` means every node is live). Dead nodes are neither expanded
    /// nor counted, so a churned graph whose departed members still occupy
    /// node ids is judged on its live membership only. At most one live
    /// node is vacuously strongly connected.
    pub fn is_strongly_connected_among(&mut self, g: &CsrGraph, live: Option<&BitSet>) -> bool {
        let n = g.node_count();
        let alive = |v: usize| live.is_none_or(|l| l.contains(v));
        let live_count = live.map_or(n, BitSet::len);
        if live_count <= 1 {
            return true;
        }
        let root = match live {
            None => 0,
            Some(l) => {
                // bbc-lint: allow(panic, the live_count() > 1 early-return above guarantees a live node)
                let first = l.iter().next().expect("live_count > 1");
                // bbc-lint: allow(narrowing-cast, live node ids are < n <= u32::MAX per the constructor assert)
                first as u32
            }
        };
        // Forward sweep from the first live node.
        self.visited.clear();
        self.visited.resize(n, false);
        self.stack.clear();
        self.visited[root as usize] = true;
        self.stack.push(root);
        let mut seen = 1usize;
        while let Some(u) = self.stack.pop() {
            for &t in g.out_targets(u as usize) {
                if !self.visited[t as usize] && alive(t as usize) {
                    self.visited[t as usize] = true;
                    seen += 1;
                    self.stack.push(t);
                }
            }
        }
        if seen != live_count {
            return false;
        }

        // Backward sweep from the same root over the reverse graph.
        self.rev.rebuild(g);
        self.visited.clear();
        self.visited.resize(n, false);
        self.stack.clear();
        self.visited[root as usize] = true;
        self.stack.push(root);
        let mut seen = 1usize;
        while let Some(u) = self.stack.pop() {
            for &t in self.rev.in_arcs(u as usize).0 {
                if !self.visited[t as usize] && alive(t as usize) {
                    self.visited[t as usize] = true;
                    seen += 1;
                    self.stack.push(t);
                }
            }
        }
        seen == live_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_distances;
    use crate::rows::{ClampedBfs, ClampedDijkstra};
    use crate::scc::is_strongly_connected;
    use crate::{Arc, UNREACHABLE};

    fn digraph_of(n: usize, edges: &[(usize, usize, u64)]) -> DiGraph {
        DiGraph::from_edges(n, edges.iter().copied())
    }

    #[test]
    fn from_digraph_preserves_structure() {
        let g = digraph_of(4, &[(0, 1, 1), (0, 2, 3), (2, 3, 1)]);
        let csr = CsrGraph::from_digraph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.arc_count(), 3);
        assert!(!csr.is_unit_length());
        assert_eq!(csr.out_targets(0), &[1, 2]);
        assert_eq!(csr.out(0).1, &[1, 3]);
        assert_eq!(csr.out_degree(3), 0);
    }

    #[test]
    fn patch_in_place_and_relocate() {
        let mut g = CsrGraph::new(5);
        g.set_out_links(0, &[(1, 1), (2, 1)]);
        g.set_out_links(1, &[(3, 1)]);
        // Shrink: fits in place.
        g.set_out_links(0, &[(4, 1)]);
        assert_eq!(g.out_targets(0), &[4]);
        // Grow past capacity (cap was 2 + 2 headroom): relocates.
        g.set_out_links(0, &[(1, 1), (2, 1), (3, 1), (4, 2)]);
        assert_eq!(g.out_targets(0), &[1, 2, 3, 4]);
        assert_eq!(g.arc_count(), 5);
        assert!(!g.is_unit_length());
        g.set_out_links(0, &[(1, 1)]);
        assert!(g.is_unit_length(), "non-unit arc was retired");
    }

    #[test]
    fn repeated_patching_stays_consistent_with_rebuild() {
        let mut g = CsrGraph::new(6);
        let mut rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); 6];
        // A deterministic little edit script that forces several relocations
        // and at least one compaction.
        for step in 0..200u32 {
            let u = (step % 6) as usize;
            let deg = (step % 4) as usize;
            let row: Vec<(u32, u64)> = (0..deg)
                .map(|i| (((u + 1 + i) % 6) as u32, u64::from(step % 3) + 1))
                .collect();
            g.set_out_links(u, &row);
            rows[u] = row;
        }
        let mut fresh = CsrGraph::new(6);
        for (u, row) in rows.iter().enumerate() {
            fresh.set_out_links(u, row);
        }
        assert_eq!(g.arc_count(), fresh.arc_count());
        assert_eq!(g.is_unit_length(), fresh.is_unit_length());
        let mut a = ClampedBfs::<u64>::new(6);
        let mut b = ClampedBfs::<u64>::new(6);
        for s in 0..6 {
            a.run(&g, s, 0, UNREACHABLE);
            b.run(&fresh, s, 0, UNREACHABLE);
            assert_eq!(a.distances(), b.distances(), "source {s}");
        }
    }

    #[test]
    fn bfs_matches_adjacency_list_bfs() {
        let g = digraph_of(6, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 1)]);
        let csr = CsrGraph::from_digraph(&g);
        let mut bfs = ClampedBfs::<u64>::new(6);
        for s in 0..6 {
            bfs.run(&csr, s, 0, UNREACHABLE);
            assert_eq!(bfs.distances(), &bfs_distances(&g, s)[..], "source {s}");
        }
    }

    #[test]
    fn bfs_skipping_matches_stripped_graph() {
        let mut g = digraph_of(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 4, 1)]);
        let csr = CsrGraph::from_digraph(&g);
        let mut bfs = ClampedBfs::<u64>::new(5);
        bfs.run_skipping(&csr, 0, 1, 0, UNREACHABLE);
        g.take_out_arcs(1);
        assert_eq!(bfs.distances(), &bfs_distances(&g, 0)[..]);
        // Node 1 is still reached (via 0's arc), just not expanded.
        assert_eq!(bfs.distances()[1], 1);
        assert!(!bfs.touched().contains(1));
        assert!(bfs.touched().contains(0));
    }

    #[test]
    fn dijkstra_matches_adjacency_list_dijkstra() {
        let g = digraph_of(5, &[(0, 1, 4), (0, 2, 1), (2, 1, 2), (1, 3, 7)]);
        let csr = CsrGraph::from_digraph(&g);
        let mut dij = ClampedDijkstra::<u64>::new(5);
        for s in 0..5 {
            dij.run(&csr, s, 0, UNREACHABLE);
            assert_eq!(
                dij.distances(),
                &crate::dijkstra::dijkstra_distances(&g, s)[..],
                "source {s}"
            );
        }
    }

    #[test]
    fn dijkstra_skipping_matches_stripped_graph() {
        let mut g = digraph_of(5, &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 9)]);
        let csr = CsrGraph::from_digraph(&g);
        let mut dij = ClampedDijkstra::<u64>::new(5);
        dij.run_skipping(&csr, 0, 1, 0, UNREACHABLE);
        g.take_out_arcs(1);
        assert_eq!(
            dij.distances(),
            &crate::dijkstra::dijkstra_distances(&g, 0)[..]
        );
        assert!(!dij.touched().contains(1));
    }

    #[test]
    fn touched_set_covers_exactly_expanded_nodes() {
        let g = digraph_of(6, &[(0, 1, 1), (1, 2, 1), (4, 5, 1)]);
        let csr = CsrGraph::from_digraph(&g);
        let mut bfs = ClampedBfs::<u64>::new(6);
        bfs.run(&csr, 0, 0, UNREACHABLE);
        let touched: Vec<usize> = bfs.touched().iter().collect();
        assert_eq!(touched, vec![0, 1, 2], "only the reachable side expands");
    }

    #[test]
    fn connectivity_matches_tarjan() {
        let mut scratch = ConnectivityScratch::new();
        let ring = digraph_of(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        assert!(scratch.is_strongly_connected(&CsrGraph::from_digraph(&ring)));
        assert!(is_strongly_connected(&ring));

        let path = digraph_of(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        assert!(!scratch.is_strongly_connected(&CsrGraph::from_digraph(&path)));
        assert!(!is_strongly_connected(&path));

        // Forward-complete but backward-broken: 0 reaches all, 3 unreachable
        // in reverse.
        let fan = digraph_of(4, &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 0, 1), (2, 0, 1)]);
        assert!(!scratch.is_strongly_connected(&CsrGraph::from_digraph(&fan)));

        let mut single = DiGraph::new(1);
        single.add_arc(0, Arc::unit(0));
        assert!(scratch.is_strongly_connected(&CsrGraph::from_digraph(&single)));
    }

    #[test]
    fn add_node_grows_without_disturbing_existing_rows() {
        let mut g = CsrGraph::new(3);
        g.set_out_links(0, &[(1, 1), (2, 1)]);
        let id = g.add_node();
        assert_eq!(id, 3);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.out_targets(0), &[1, 2]);
        assert_eq!(g.out_degree(3), 0);
        g.set_out_links(3, &[(0, 1)]);
        g.set_out_links(0, &[(3, 1)]);
        let mut bfs = ClampedBfs::<u64>::new(3);
        bfs.grow(4);
        bfs.run(&g, 0, 0, UNREACHABLE);
        assert_eq!(bfs.distances(), &[0, UNREACHABLE, UNREACHABLE, 1]);
    }

    #[test]
    fn remove_node_retires_the_slab_and_keeps_ids_stable() {
        let mut g = CsrGraph::new(4);
        g.set_out_links(0, &[(1, 1)]);
        g.set_out_links(1, &[(2, 1)]);
        g.set_out_links(2, &[(3, 1)]);
        // Strip the in-arc first (the caller's obligation), then remove.
        g.set_out_links(1, &[]);
        g.remove_node(2);
        assert_eq!(g.node_count(), 4, "ids stay addressable");
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.arc_count(), 1);
        let mut bfs = ClampedBfs::<u64>::new(4);
        bfs.run(&g, 0, 0, UNREACHABLE);
        assert_eq!(bfs.distances()[2], UNREACHABLE);
    }

    #[test]
    #[should_panic(expected = "still links to removed node")]
    fn remove_node_with_dangling_in_arcs_panics() {
        let mut g = CsrGraph::new(3);
        g.set_out_links(0, &[(1, 1)]);
        g.remove_node(1);
    }

    #[test]
    fn canonical_rebuild_matches_a_fresh_build_byte_for_byte() {
        // Drive a messy patch history, then canonicalize: the digest must
        // equal that of a graph built fresh from the same rows in node
        // order — and stay equal across *different* histories of the same
        // final rows.
        let mut g = CsrGraph::new(5);
        for step in 0..60u32 {
            let u = (step % 5) as usize;
            let deg = (step % 3) as usize;
            let row: Vec<(u32, u64)> = (0..deg).map(|i| (((u + 1 + i) % 5) as u32, 1)).collect();
            g.set_out_links(u, &row);
        }
        let mut fresh = CsrGraph::new(5);
        let mut row: Vec<(u32, u64)> = Vec::new();
        for u in 0..5 {
            let (targets, lengths) = g.out(u);
            row.clear();
            row.extend(targets.iter().copied().zip(lengths.iter().copied()));
            fresh.set_out_links(u, &row);
        }
        assert_ne!(
            g.arena_digest(),
            fresh.arena_digest(),
            "patched layout differs before canonicalization (else the test is vacuous)"
        );
        g.rebuild_canonical();
        assert_eq!(g.arena_digest(), fresh.arena_digest());
        assert_eq!(g.arc_count(), fresh.arc_count());
    }

    #[test]
    fn masked_connectivity_judges_the_live_subgraph() {
        // 0→1→2→0 ring plus an isolated (dead) node 3.
        let mut g = CsrGraph::new(4);
        g.set_out_links(0, &[(1, 1)]);
        g.set_out_links(1, &[(2, 1)]);
        g.set_out_links(2, &[(0, 1)]);
        let mut scratch = ConnectivityScratch::new();
        assert!(!scratch.is_strongly_connected(&g), "node 3 is unreachable");
        let mut live = BitSet::new(4);
        live.extend([0usize, 1, 2]);
        assert!(scratch.is_strongly_connected_among(&g, Some(&live)));
        // Kill a ring member: the remaining pair is not mutually reachable.
        let mut g2 = g.clone();
        g2.set_out_links(2, &[]);
        g2.set_out_links(1, &[]);
        g2.remove_node(2);
        let mut live2 = BitSet::new(4);
        live2.extend([0usize, 1]);
        assert!(!scratch.is_strongly_connected_among(&g2, Some(&live2)));
        // A single live node is vacuously connected.
        let mut one = BitSet::new(4);
        one.insert(3);
        assert!(scratch.is_strongly_connected_among(&g, Some(&one)));
    }

    #[test]
    fn reverse_csr_lists_every_in_arc_by_source() {
        let mut g = CsrGraph::new(5);
        g.set_out_links(3, &[(0, 2), (4, 1)]);
        g.set_out_links(0, &[(4, 3), (1, 1)]);
        g.set_out_links(2, &[(4, 5)]);
        // Relocate node 0's slab so the arena order differs from node order.
        g.set_out_links(0, &[(4, 3), (1, 1), (2, 1), (3, 7)]);
        let mut rev = ReverseCsr::new();
        rev.rebuild(&g);
        for v in 0..5 {
            let want: Vec<(u32, u64)> = (0..5u32)
                .flat_map(|u| {
                    let (targets, lengths) = g.out(u as usize);
                    targets
                        .iter()
                        .zip(lengths)
                        .filter(|&(&t, _)| t as usize == v)
                        .map(move |(_, &len)| (u, len))
                        .collect::<Vec<_>>()
                })
                .collect();
            let (sources, lengths) = rev.in_arcs(v);
            let got: Vec<(u32, u64)> = sources
                .iter()
                .copied()
                .zip(lengths.iter().copied())
                .collect();
            assert_eq!(got, want, "in-arcs of {v}");
        }
        // Rebuilding after a patch drops the old arcs.
        g.set_out_links(0, &[]);
        rev.rebuild(&g);
        assert_eq!(rev.in_arcs(4).0, &[2, 3]);
        assert!(rev.in_arcs(1).0.is_empty());
    }

    #[test]
    fn scratch_is_reusable_across_sizes() {
        let mut scratch = ConnectivityScratch::new();
        let small = digraph_of(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
        assert!(scratch.is_strongly_connected(&CsrGraph::from_digraph(&small)));
        let big = digraph_of(8, &[(0, 1, 1)]);
        assert!(!scratch.is_strongly_connected(&CsrGraph::from_digraph(&big)));
        assert!(scratch.is_strongly_connected(&CsrGraph::from_digraph(&small)));
    }
}
