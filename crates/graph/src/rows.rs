//! Width-tiered, penalty-clamped distance-row buffers.
//!
//! The game layer's deviation oracle aggregates *clamped through-rows*:
//! `row[v] = ℓ + d(c, v)` for reachable `v`, and the disconnection penalty
//! `M` otherwise — always strictly below `M` for finite entries because the
//! spec enforces `M > n·max ℓ`. Whenever `n·M` fits in 32 bits every row
//! entry (and every plain row sum) does too, so the rows can be stored and
//! streamed at half the memory bandwidth. [`ClampedBfs`] and
//! [`ClampedDijkstra`] are the traversal kernels for that tier, and the only
//! shortest-path kernels over a [`CsrGraph`]: generic over the row word
//! ([`RowWord`], `u32` or `u64`), pooled and growable, and clamped *at fill
//! time* — the buffer is initialised to the clamp value, the source is
//! seeded at `offset` (the link length ℓ), and unreached entries simply keep
//! the clamp. The caller gets a finished through-row with no
//! sentinel-substitution pass. Seeded at 0 and clamped at
//! [`crate::UNREACHABLE`], a `u64` kernel yields raw distances.
//!
//! Values are identical to running the raw traversal and clamping
//! afterwards: seeding at `offset` shifts every finite distance by the same
//! constant, which preserves BFS layer order and Dijkstra's heap order
//! (ties break by node id either way). The cross-width tests below and the
//! differential suite in `bbc-core` pin this.

use crate::{bitset::BitSet, csr::CsrGraph};

/// Integer width of a distance-row buffer.
///
/// Implemented for `u32` (the narrow tier: valid whenever `n·M ≤ u32::MAX`)
/// and `u64` (always valid). The trait carries just enough arithmetic for
/// the traversal kernels and the row-aggregation loops; everything wider
/// than a single row entry (weighted terms, running totals that may exceed
/// the clamp) goes through [`RowWord::widen`] into `u64`. `Sub` is only ever
/// used in the non-wrapping pattern `max(a, b) - b` (a branchless positive
/// difference), so unsigned words need no saturating variant.
pub trait RowWord:
    Copy
    + Ord
    + Eq
    + Send
    + Sync
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// One hop (the BFS arc length).
    const ONE: Self;
    /// Narrowing conversion; `None` when `v` does not fit the word.
    fn from_u64(v: u64) -> Option<Self>;
    /// Widening conversion (lossless).
    fn widen(self) -> u64;
}

impl RowWord for u32 {
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn from_u64(v: u64) -> Option<Self> {
        u32::try_from(v).ok()
    }

    #[inline(always)]
    fn widen(self) -> u64 {
        u64::from(self)
    }
}

impl RowWord for u64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn from_u64(v: u64) -> Option<Self> {
        Some(v)
    }

    #[inline(always)]
    fn widen(self) -> u64 {
        self
    }
}

/// Pooled BFS over [`CsrGraph`]s producing a clamped through-row directly.
///
/// Fills `dist` with `clamp` up front, seeds the source at `offset`, and
/// treats `dist[v] == clamp` as "unvisited". Besides the row it records the
/// *touched set* — every node whose out-arcs the traversal expanded. That
/// set is what makes rows cacheable across graph patches: a row from `c`
/// stays valid under a rewire of node `m` unless `m` was touched (an
/// unreached node's out-arcs cannot affect any distance from `c`, and
/// rewiring `m`'s *out*-links never makes `m` itself newly reachable).
///
/// The caller must guarantee `offset + d < clamp` for every reachable node
/// (the game spec's penalty rule `M > n·max ℓ` does exactly that); the
/// kernel checks it with debug assertions and skips any write that would
/// reach the clamp, so a violated precondition degrades to a too-coarse row
/// instead of wrapping.
///
/// # Examples
///
/// ```
/// use bbc_graph::csr::CsrGraph;
/// use bbc_graph::rows::ClampedBfs;
///
/// let mut g = CsrGraph::new(4);
/// g.set_out_links(0, &[(1, 1)]);
/// g.set_out_links(1, &[(2, 1)]);
/// let mut bfs = ClampedBfs::<u32>::new(4);
/// bfs.run(&g, 0, 5, 100); // offset 5, clamp 100
/// assert_eq!(bfs.distances(), &[5, 6, 7, 100]);
/// assert!(bfs.touched().contains(1));
/// assert!(!bfs.touched().contains(3));
///
/// // Seeded at 0 and clamped at UNREACHABLE: raw distances.
/// let mut raw = ClampedBfs::<u64>::new(4);
/// raw.run(&g, 0, 0, bbc_graph::UNREACHABLE);
/// assert_eq!(raw.distances(), &[0, 1, 2, bbc_graph::UNREACHABLE]);
/// ```
#[derive(Clone, Debug)]
pub struct ClampedBfs<W> {
    dist: Vec<W>,
    queue: Vec<u32>,
    touched: BitSet,
}

impl<W: RowWord> ClampedBfs<W> {
    /// Creates a buffer sized for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            dist: vec![W::ZERO; n],
            queue: Vec::with_capacity(n),
            touched: BitSet::new(n),
        }
    }

    /// Grows the buffer to serve graphs of at least `n` nodes (no-op when
    /// already that large); distances from earlier runs are discarded.
    pub fn grow(&mut self, n: usize) {
        if n > self.dist.len() {
            self.dist.resize(n, W::ZERO);
            self.touched.grow(n);
        }
    }

    /// Runs BFS from `source`, seeding the source at `offset`; unreached
    /// nodes hold `clamp`.
    pub fn run(&mut self, g: &CsrGraph, source: usize, offset: W, clamp: W) {
        self.run_impl(g, source, usize::MAX, offset, clamp);
    }

    /// Runs BFS from `source` in `G∖skip`, seeded at `offset`: `skip`'s
    /// out-arcs are ignored (`skip` itself stays reachable through other
    /// nodes' arcs, but is never expanded or touched). This is the
    /// deviation-row traversal: distances from a candidate target with the
    /// deviating node's links removed.
    pub fn run_skipping(&mut self, g: &CsrGraph, source: usize, skip: usize, offset: W, clamp: W) {
        self.run_impl(g, source, skip, offset, clamp);
    }

    fn run_impl(&mut self, g: &CsrGraph, source: usize, skip: usize, offset: W, clamp: W) {
        assert_eq!(
            g.node_count(),
            self.dist.len(),
            "buffer sized for a different graph"
        );
        assert!(source < self.dist.len(), "source {source} out of bounds");
        debug_assert!(offset < clamp, "offset at or above the clamp");
        self.dist.fill(clamp);
        self.touched.clear();
        self.queue.clear();
        self.dist[source] = offset;
        // bbc-lint: allow(narrowing-cast, source < n <= u32::MAX per the CSR constructor assert)
        self.queue.push(source as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            if u == skip {
                continue;
            }
            self.touched.insert(u);
            let nd = self.dist[u] + W::ONE;
            debug_assert!(nd < clamp, "finite distance saturated the clamp");
            if nd >= clamp {
                continue;
            }
            for &t in g.out_targets(u) {
                let v = t as usize;
                if self.dist[v] == clamp {
                    self.dist[v] = nd;
                    self.queue.push(t);
                }
            }
        }
    }

    /// The clamped through-row from the last run.
    #[inline]
    pub fn distances(&self) -> &[W] {
        &self.dist
    }

    /// Nodes whose out-arcs the last run expanded.
    #[inline]
    pub fn touched(&self) -> &BitSet {
        &self.touched
    }
}

/// Pooled Dijkstra over [`CsrGraph`]s with the same clamp-at-fill contract
/// and skip-node/touched semantics as [`ClampedBfs`].
#[derive(Clone, Debug)]
pub struct ClampedDijkstra<W> {
    dist: Vec<W>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(W, u32)>>,
    touched: BitSet,
}

impl<W: RowWord> ClampedDijkstra<W> {
    /// Creates a buffer sized for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            dist: vec![W::ZERO; n],
            heap: std::collections::BinaryHeap::with_capacity(n),
            touched: BitSet::new(n),
        }
    }

    /// Grows the buffer to serve graphs of at least `n` nodes (no-op when
    /// already that large); distances from earlier runs are discarded.
    pub fn grow(&mut self, n: usize) {
        if n > self.dist.len() {
            self.dist.resize(n, W::ZERO);
            self.touched.grow(n);
        }
    }

    /// Runs Dijkstra from `source`, seeded at `offset`; unreached nodes
    /// hold `clamp`.
    pub fn run(&mut self, g: &CsrGraph, source: usize, offset: W, clamp: W) {
        self.run_impl(g, source, usize::MAX, offset, clamp);
    }

    /// Runs Dijkstra from `source` in `G∖skip`, seeded at `offset`.
    pub fn run_skipping(&mut self, g: &CsrGraph, source: usize, skip: usize, offset: W, clamp: W) {
        self.run_impl(g, source, skip, offset, clamp);
    }

    fn run_impl(&mut self, g: &CsrGraph, source: usize, skip: usize, offset: W, clamp: W) {
        assert_eq!(
            g.node_count(),
            self.dist.len(),
            "buffer sized for a different graph"
        );
        assert!(source < self.dist.len(), "source {source} out of bounds");
        debug_assert!(offset < clamp, "offset at or above the clamp");
        self.dist.fill(clamp);
        self.touched.clear();
        self.heap.clear();
        self.dist[source] = offset;
        // bbc-lint: allow(narrowing-cast, source < n <= u32::MAX per the CSR constructor assert)
        self.heap.push(std::cmp::Reverse((offset, source as u32)));
        while let Some(std::cmp::Reverse((d, u))) = self.heap.pop() {
            let u = u as usize;
            if d > self.dist[u] || u == skip {
                continue;
            }
            self.touched.insert(u);
            let (targets, lengths) = g.out(u);
            for (&t, &len) in targets.iter().zip(lengths) {
                let v = t as usize;
                // Relax in u64 so an arc longer than the clamp cannot wrap
                // the narrow word; the write only happens below the current
                // entry (≤ clamp), where the narrow conversion is exact.
                let nd = d.widen() + len;
                if nd < self.dist[v].widen() {
                    debug_assert!(nd < clamp.widen(), "finite distance saturated the clamp");
                    // bbc-lint: allow(panic, nd < dist[v] <= clamp, and the tier guarantees clamp fits W)
                    let nd = W::from_u64(nd).expect("relaxed distance below the clamp");
                    self.dist[v] = nd;
                    self.heap.push(std::cmp::Reverse((nd, t)));
                }
            }
        }
    }

    /// The clamped through-row from the last run.
    #[inline]
    pub fn distances(&self) -> &[W] {
        &self.dist
    }

    /// Nodes whose out-arcs the last run expanded.
    #[inline]
    pub fn touched(&self) -> &BitSet {
        &self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_distances;
    use crate::dijkstra::dijkstra_distances;
    use crate::{Arc, DiGraph, UNREACHABLE};

    /// A small deterministic pseudo-random graph on `n` nodes.
    fn scrambled_graph(n: usize, arcs_per_node: usize, weighted: bool, seed: u64) -> CsrGraph {
        let mut g = CsrGraph::new(n);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut row: Vec<(u32, u64)> = Vec::new();
        for u in 0..n {
            row.clear();
            for _ in 0..arcs_per_node {
                let t = (next() % n as u64) as u32;
                if t as usize == u || row.iter().any(|&(x, _)| x == t) {
                    continue;
                }
                let len = if weighted { 1 + next() % 5 } else { 1 };
                row.push((t, len));
            }
            g.set_out_links(u, &row);
        }
        g
    }

    /// `g` as an adjacency list without `skip`'s out-arcs (`usize::MAX`
    /// keeps every arc): the graph a `G∖skip` traversal walks.
    fn stripped(g: &CsrGraph, skip: usize) -> DiGraph {
        let mut d = DiGraph::new(g.node_count());
        for u in (0..g.node_count()).filter(|&u| u != skip) {
            let (targets, lengths) = g.out(u);
            for (&t, &len) in targets.iter().zip(lengths) {
                d.add_arc(u, Arc::new(t as usize, len));
            }
        }
        d
    }

    /// The row and touched set a clamped run must produce, from the raw
    /// reference distances `dist`: `offset + d` where reached, `clamp`
    /// elsewhere; every reached node except `skip` is expanded.
    fn expected(dist: &[u64], skip: usize, offset: u64, clamp: u64) -> (Vec<u64>, BitSet) {
        let row = dist
            .iter()
            .map(|&d| if d == UNREACHABLE { clamp } else { offset + d })
            .collect();
        let mut touched = BitSet::new(dist.len());
        touched.extend((0..dist.len()).filter(|&v| dist[v] != UNREACHABLE && v != skip));
        (row, touched)
    }

    #[test]
    fn clamped_bfs_matches_raw_bfs_both_widths() {
        for seed in 0..20 {
            let n = 3 + (seed as usize % 13);
            let g = scrambled_graph(n, 2, false, seed);
            let clamp = (n as u64) * 3 + 10;
            let offset = 1 + seed % 3;
            let mut narrow = ClampedBfs::<u32>::new(n);
            let mut wide = ClampedBfs::<u64>::new(n);
            for skip in [usize::MAX, seed as usize % n] {
                let reference = stripped(&g, skip);
                for source in 0..n {
                    narrow.run_skipping(&g, source, skip, offset as u32, clamp as u32);
                    wide.run_skipping(&g, source, skip, offset, clamp);
                    let (want, touched) =
                        expected(&bfs_distances(&reference, source), skip, offset, clamp);
                    let got32: Vec<u64> = narrow.distances().iter().map(|&d| d.widen()).collect();
                    assert_eq!(got32, want, "u32 seed {seed} source {source}");
                    assert_eq!(
                        wide.distances(),
                        &want[..],
                        "u64 seed {seed} source {source}"
                    );
                    assert_eq!(narrow.touched(), &touched, "touched seed {seed}");
                    assert_eq!(wide.touched(), &touched, "touched seed {seed}");
                }
            }
        }
    }

    #[test]
    fn clamped_dijkstra_matches_raw_dijkstra_both_widths() {
        for seed in 0..20 {
            let n = 3 + (seed as usize % 11);
            let g = scrambled_graph(n, 3, true, seed);
            let clamp = (n as u64) * 6 + 10;
            let offset = 2 + seed % 4;
            let mut narrow = ClampedDijkstra::<u32>::new(n);
            let mut wide = ClampedDijkstra::<u64>::new(n);
            for skip in [usize::MAX, seed as usize % n] {
                let reference = stripped(&g, skip);
                for source in 0..n {
                    narrow.run_skipping(&g, source, skip, offset as u32, clamp as u32);
                    wide.run_skipping(&g, source, skip, offset, clamp);
                    let (want, touched) =
                        expected(&dijkstra_distances(&reference, source), skip, offset, clamp);
                    let got32: Vec<u64> = narrow.distances().iter().map(|&d| d.widen()).collect();
                    assert_eq!(got32, want, "u32 seed {seed} source {source}");
                    assert_eq!(
                        wide.distances(),
                        &want[..],
                        "u64 seed {seed} source {source}"
                    );
                    assert_eq!(narrow.touched(), &touched, "touched seed {seed}");
                    assert_eq!(wide.touched(), &touched, "touched seed {seed}");
                }
            }
        }
    }

    #[test]
    fn grow_preserves_reuse_across_sizes() {
        let small = scrambled_graph(4, 2, false, 7);
        let big = scrambled_graph(9, 2, false, 8);
        let mut bfs = ClampedBfs::<u32>::new(4);
        bfs.run(&small, 0, 1, 50);
        bfs.grow(9);
        bfs.run(&big, 3, 1, 50);
        let mut fresh = ClampedBfs::<u32>::new(9);
        fresh.run(&big, 3, 1, 50);
        assert_eq!(bfs.distances(), fresh.distances());
        assert_eq!(bfs.touched(), fresh.touched());
    }

    #[test]
    fn dijkstra_arc_longer_than_clamp_does_not_wrap() {
        // One arc of length far beyond the u32 clamp: the relaxation happens
        // in u64 and is discarded, leaving the target at the clamp.
        let mut g = CsrGraph::new(3);
        g.set_out_links(0, &[(1, 1), (2, u64::from(u32::MAX) + 5)]);
        let mut dij = ClampedDijkstra::<u32>::new(3);
        dij.run(&g, 0, 0, 100);
        assert_eq!(dij.distances(), &[0, 1, 100]);
    }
}
