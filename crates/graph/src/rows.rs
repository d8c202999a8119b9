//! Width-tiered, penalty-clamped distance-row buffers.
//!
//! The game layer's deviation oracle aggregates *clamped through-rows*:
//! `row[v] = ℓ + d(c, v)` for reachable `v`, and a clamp `C` otherwise. The
//! clamp is the disconnection penalty `M` when the row word can hold it,
//! and the word's saturated value [`RowWord::SATURATED`] when it cannot:
//! [`RowWord::lift`] charges `M` for an entry at `SATURATED`, so both
//! representations price a row identically. Every finite entry stays
//! strictly below the clamp — the spec enforces `M > n·max ℓ`, and the
//! narrow tier requires `n·max ℓ < SATURATED` too.
//!
//! Two words implement [`RowWord`]. `u64` holds any penalty (its saturated
//! value is [`crate::UNREACHABLE`], so its lift is the raw-distance rule).
//! `i16` is the narrow tier: `SATURATED = 2¹⁴ − 1`, low enough that two
//! entries, or the clamp plus a link length, sum in one 16-bit lane without
//! overflow. Its row kernels ([`RowWord::sum`], [`RowWord::sum_min`],
//! [`RowWord::sum_min_counts`], [`RowWord::copy_min_sum`]) add two minima
//! per lane before widening to 32 bits, so the minima run on the signed
//! 16-bit vector min every x86-64 target has (SSE2 has no unsigned 32-bit
//! min), at a quarter of the u64 tier's memory traffic; [`RowWord::counts`]
//! counts one row's low entries in 16-bit lanes.
//!
//! [`ClampedBfs`] and [`ClampedDijkstra`] are the traversal kernels for both
//! tiers, and the only shortest-path kernels over a [`CsrGraph`]: generic
//! over the row word, pooled and growable, and clamped *at fill time* — the
//! buffer is initialised to the clamp value, the source is seeded at
//! `offset` (the link length ℓ), and unreached entries simply keep the
//! clamp. The caller gets a finished through-row with no
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
/// Implemented for `i16` (the narrow tier: valid whenever `n·max ℓ <
/// 2¹⁴ − 1`) and `u64` (always valid). The trait carries just enough
/// arithmetic for the traversal kernels, plus the row-aggregation kernels
/// of the search; everything wider than a single row entry (weighted terms,
/// running totals that may exceed the clamp) goes through
/// [`RowWord::widen`] or [`RowWord::lift`] into `u64`. Entries are never
/// negative, and `Sub` is only ever used where it cannot wrap: a row
/// repair's headroom `clamp − d` for an entry `d` below the clamp.
///
/// The kernels take rows of equal length whose entries lie in
/// `0..=SATURATED`, at most `2¹⁴ − 2` of them for `i16`, and return raw
/// sums: an entry at [`RowWord::SATURATED`] counts as its own value, not as
/// the penalty it stands for. A raw sum never exceeds the lifted one, so a
/// caller may bail out on it early and recount the saturated entries only
/// when it needs the exact value.
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
    /// The widened value of the entry that stands for "unreachable" when
    /// the penalty does not fit below it. A row clamped at
    /// `min(M, SATURATED)` holds either finite distances below the clamp or
    /// the clamp itself, and [`RowWord::lift`] prices the clamp at `M`
    /// either way.
    const SATURATED: u64;
    /// Narrowing conversion; `None` when `v` does not fit the word.
    fn from_u64(v: u64) -> Option<Self>;
    /// Widening conversion (lossless).
    fn widen(self) -> u64;

    /// The entry as a cost term: `penalty` for an entry equal to
    /// [`RowWord::SATURATED`], the widened value otherwise.
    #[inline(always)]
    fn lift(self, penalty: u64) -> u64 {
        let d = self.widen();
        if d == Self::SATURATED {
            penalty
        } else {
            d
        }
    }

    /// `Σ row`, raw.
    #[inline(always)]
    fn sum(row: &[Self]) -> u64 {
        let mut total = Self::ZERO;
        for &d in row {
            total = total + d;
        }
        total.widen()
    }

    /// `Σ min(a[v], b[v])`, raw.
    #[inline(always)]
    fn sum_min(a: &[Self], b: &[Self]) -> u64 {
        let mut total = Self::ZERO;
        for (&x, &y) in a.iter().zip(b) {
            total = total + x.min(y);
        }
        total.widen()
    }

    /// `(Σ min(a[v], b[v]), #{v : min ≤ 1}, #{v : min ≤ 2})`, raw.
    #[inline(always)]
    fn sum_min_counts(a: &[Self], b: &[Self]) -> (u64, u64, u64) {
        let one = Self::ONE;
        let two = Self::ONE + Self::ONE;
        let mut total = Self::ZERO;
        let mut le1 = Self::ZERO;
        let mut le2 = Self::ZERO;
        for (&x, &y) in a.iter().zip(b) {
            let v = x.min(y);
            total = total + v;
            le1 = le1 + if v <= one { Self::ONE } else { Self::ZERO };
            le2 = le2 + if v <= two { Self::ONE } else { Self::ZERO };
        }
        (total.widen(), le1.widen(), le2.widen())
    }

    /// `(#{v : row[v] ≤ 1}, #{v : row[v] ≤ 2})`: the packing counts of one
    /// row.
    #[inline(always)]
    fn counts(row: &[Self]) -> (u64, u64) {
        let one = Self::ONE;
        let two = Self::ONE + Self::ONE;
        let (mut le1, mut le2) = (0u64, 0u64);
        for &v in row {
            le1 += u64::from(v <= one);
            le2 += u64::from(v <= two);
        }
        (le1, le2)
    }

    /// `dst[v] = min(a[v], b[v])`, returning `Σ dst`, raw.
    #[inline(always)]
    fn copy_min_sum(dst: &mut [Self], a: &[Self], b: &[Self]) -> u64 {
        let mut total = Self::ZERO;
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            let v = x.min(y);
            *d = v;
            total = total + v;
        }
        total.widen()
    }
}

impl RowWord for u64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const SATURATED: u64 = crate::UNREACHABLE;

    #[inline(always)]
    fn from_u64(v: u64) -> Option<Self> {
        Some(v)
    }

    #[inline(always)]
    fn widen(self) -> u64 {
        self
    }
}

/// Lanes of the i16 kernels: each lane adds the minima of entries `j` and
/// `j + LANES` of a `2·LANES`-entry block in 16 bits, then widens the pair
/// sum into a 32-bit accumulator.
const LANES: usize = 16;

/// A non-negative 32-bit kernel total, widened.
#[inline(always)]
fn widen_i32(total: i32) -> u64 {
    debug_assert!(total >= 0, "row entries are never negative");
    i64::from(total) as u64
}

impl RowWord for i16 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    /// `2¹⁴ − 1`: two entries, or the clamp plus a link length below it,
    /// sum in one i16 lane without overflow.
    const SATURATED: u64 = 16_383;

    #[inline(always)]
    fn from_u64(v: u64) -> Option<Self> {
        i16::try_from(v).ok()
    }

    #[inline(always)]
    fn widen(self) -> u64 {
        debug_assert!(self >= 0, "row entries are never negative");
        // A sign extension, exact for the non-negative entries.
        i64::from(self) as u64
    }

    // The kernels below share one loop shape: blocks of 2·LANES entries,
    // the two halves' minima added in the 16-bit lane (at most
    // 2·SATURATED = 32,766) and widened into i32 lanes once per pair. Row
    // sums stay below n·SATURATED < 2³¹ for n < 2¹⁴, so the i32 lanes
    // never wrap. Each ends with a scalar pass over the partial block; a
    // row shorter than one block skips the lanes and their reduction, which
    // would cost more than the row itself.

    #[inline(always)]
    fn sum(row: &[Self]) -> u64 {
        let mut blocks = row.chunks_exact(2 * LANES);
        let mut total = 0i32;
        if row.len() >= 2 * LANES {
            let mut lanes = [0i32; LANES];
            for block in &mut blocks {
                let (lo, hi) = block.split_at(LANES);
                for ((acc, &x), &y) in lanes.iter_mut().zip(lo).zip(hi) {
                    *acc += i32::from(x + y);
                }
            }
            total = lanes.iter().sum();
        }
        for &x in blocks.remainder() {
            total += i32::from(x);
        }
        widen_i32(total)
    }

    #[inline(always)]
    fn sum_min(a: &[Self], b: &[Self]) -> u64 {
        let (mut ba, mut bb) = (a.chunks_exact(2 * LANES), b.chunks_exact(2 * LANES));
        let mut total = 0i32;
        if a.len() >= 2 * LANES {
            let mut lanes = [0i32; LANES];
            for (xa, xb) in (&mut ba).zip(&mut bb) {
                let ((alo, ahi), (blo, bhi)) = (xa.split_at(LANES), xb.split_at(LANES));
                for (acc, ((&p, &q), (&r, &s))) in lanes
                    .iter_mut()
                    .zip(alo.iter().zip(blo).zip(ahi.iter().zip(bhi)))
                {
                    *acc += i32::from(p.min(q) + r.min(s));
                }
            }
            total = lanes.iter().sum();
        }
        for (&x, &y) in ba.remainder().iter().zip(bb.remainder()) {
            total += i32::from(x.min(y));
        }
        widen_i32(total)
    }

    #[inline(always)]
    fn sum_min_counts(a: &[Self], b: &[Self]) -> (u64, u64, u64) {
        let (mut ba, mut bb) = (a.chunks_exact(2 * LANES), b.chunks_exact(2 * LANES));
        let (mut total, mut n1, mut n2) = (0i32, 0i32, 0i32);
        if a.len() >= 2 * LANES {
            let mut lanes = [0i32; LANES];
            // At most two hits per lane per block, and fewer than 2⁹ blocks.
            let mut le1 = [0i16; LANES];
            let mut le2 = [0i16; LANES];
            for (xa, xb) in (&mut ba).zip(&mut bb) {
                let ((alo, ahi), (blo, bhi)) = (xa.split_at(LANES), xb.split_at(LANES));
                for (((acc, c1), c2), ((&p, &q), (&r, &s))) in lanes
                    .iter_mut()
                    .zip(&mut le1)
                    .zip(&mut le2)
                    .zip(alo.iter().zip(blo).zip(ahi.iter().zip(bhi)))
                {
                    let (lo, hi) = (p.min(q), r.min(s));
                    *acc += i32::from(lo + hi);
                    *c1 += i16::from(lo <= 1) + i16::from(hi <= 1);
                    *c2 += i16::from(lo <= 2) + i16::from(hi <= 2);
                }
            }
            total = lanes.iter().sum();
            n1 = le1.iter().map(|&c| i32::from(c)).sum();
            n2 = le2.iter().map(|&c| i32::from(c)).sum();
        }
        for (&x, &y) in ba.remainder().iter().zip(bb.remainder()) {
            let v = x.min(y);
            total += i32::from(v);
            n1 += i32::from(v <= 1);
            n2 += i32::from(v <= 2);
        }
        (widen_i32(total), widen_i32(n1), widen_i32(n2))
    }

    /// Two 16-lane i16 counters and no sum, so the lanes and both halves of
    /// a block stay in registers where [`RowWord::sum_min_counts`] spills.
    #[inline(always)]
    fn counts(row: &[Self]) -> (u64, u64) {
        let mut blocks = row.chunks_exact(2 * LANES);
        let (mut n1, mut n2) = (0i32, 0i32);
        if row.len() >= 2 * LANES {
            // At most two hits per lane per block, and fewer than 2⁹ blocks.
            let mut le1 = [0i16; LANES];
            let mut le2 = [0i16; LANES];
            for block in &mut blocks {
                let (lo, hi) = block.split_at(LANES);
                for (((c1, c2), &x), &y) in le1.iter_mut().zip(&mut le2).zip(lo).zip(hi) {
                    *c1 += i16::from(x <= 1) + i16::from(y <= 1);
                    *c2 += i16::from(x <= 2) + i16::from(y <= 2);
                }
            }
            n1 = le1.iter().map(|&c| i32::from(c)).sum();
            n2 = le2.iter().map(|&c| i32::from(c)).sum();
        }
        for &x in blocks.remainder() {
            n1 += i32::from(x <= 1);
            n2 += i32::from(x <= 2);
        }
        (widen_i32(n1), widen_i32(n2))
    }

    #[inline(always)]
    fn copy_min_sum(dst: &mut [Self], a: &[Self], b: &[Self]) -> u64 {
        let (mut ba, mut bb) = (a.chunks_exact(2 * LANES), b.chunks_exact(2 * LANES));
        let mut bd = dst.chunks_exact_mut(2 * LANES);
        let mut total = 0i32;
        if a.len() >= 2 * LANES {
            let mut lanes = [0i32; LANES];
            for ((xd, xa), xb) in (&mut bd).zip(&mut ba).zip(&mut bb) {
                let ((alo, ahi), (blo, bhi)) = (xa.split_at(LANES), xb.split_at(LANES));
                let (dlo, dhi) = xd.split_at_mut(LANES);
                for ((acc, (dl, dh)), ((&p, &q), (&r, &s))) in lanes
                    .iter_mut()
                    .zip(dlo.iter_mut().zip(dhi))
                    .zip(alo.iter().zip(blo).zip(ahi.iter().zip(bhi)))
                {
                    let (lo, hi) = (p.min(q), r.min(s));
                    *dl = lo;
                    *dh = hi;
                    *acc += i32::from(lo + hi);
                }
            }
            total = lanes.iter().sum();
        }
        for ((d, &x), &y) in bd
            .into_remainder()
            .iter_mut()
            .zip(ba.remainder())
            .zip(bb.remainder())
        {
            *d = x.min(y);
            total += i32::from(*d);
        }
        widen_i32(total)
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
/// let mut bfs = ClampedBfs::<i16>::new(4);
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

    /// `v` as a narrow row entry (test inputs always fit).
    fn narrow(v: u64) -> i16 {
        i16::from_u64(v).unwrap()
    }

    #[test]
    fn clamped_bfs_matches_raw_bfs_both_widths() {
        for seed in 0..20 {
            let n = 3 + (seed as usize % 13);
            let g = scrambled_graph(n, 2, false, seed);
            let clamp = (n as u64) * 3 + 10;
            let offset = 1 + seed % 3;
            let mut short = ClampedBfs::<i16>::new(n);
            let mut wide = ClampedBfs::<u64>::new(n);
            for skip in [usize::MAX, seed as usize % n] {
                let reference = stripped(&g, skip);
                for source in 0..n {
                    short.run_skipping(&g, source, skip, narrow(offset), narrow(clamp));
                    wide.run_skipping(&g, source, skip, offset, clamp);
                    let (want, touched) =
                        expected(&bfs_distances(&reference, source), skip, offset, clamp);
                    let got16: Vec<u64> = short.distances().iter().map(|&d| d.widen()).collect();
                    assert_eq!(got16, want, "i16 seed {seed} source {source}");
                    assert_eq!(
                        wide.distances(),
                        &want[..],
                        "u64 seed {seed} source {source}"
                    );
                    assert_eq!(short.touched(), &touched, "touched seed {seed}");
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
            let mut short = ClampedDijkstra::<i16>::new(n);
            let mut wide = ClampedDijkstra::<u64>::new(n);
            for skip in [usize::MAX, seed as usize % n] {
                let reference = stripped(&g, skip);
                for source in 0..n {
                    short.run_skipping(&g, source, skip, narrow(offset), narrow(clamp));
                    wide.run_skipping(&g, source, skip, offset, clamp);
                    let (want, touched) =
                        expected(&dijkstra_distances(&reference, source), skip, offset, clamp);
                    let got16: Vec<u64> = short.distances().iter().map(|&d| d.widen()).collect();
                    assert_eq!(got16, want, "i16 seed {seed} source {source}");
                    assert_eq!(
                        wide.distances(),
                        &want[..],
                        "u64 seed {seed} source {source}"
                    );
                    assert_eq!(short.touched(), &touched, "touched seed {seed}");
                    assert_eq!(wide.touched(), &touched, "touched seed {seed}");
                }
            }
        }
    }

    #[test]
    fn grow_preserves_reuse_across_sizes() {
        let small = scrambled_graph(4, 2, false, 7);
        let big = scrambled_graph(9, 2, false, 8);
        let mut bfs = ClampedBfs::<i16>::new(4);
        bfs.run(&small, 0, 1, 50);
        bfs.grow(9);
        bfs.run(&big, 3, 1, 50);
        let mut fresh = ClampedBfs::<i16>::new(9);
        fresh.run(&big, 3, 1, 50);
        assert_eq!(bfs.distances(), fresh.distances());
        assert_eq!(bfs.touched(), fresh.touched());
    }

    #[test]
    fn dijkstra_arc_longer_than_clamp_does_not_wrap() {
        // One arc of length far beyond the i16 clamp: the relaxation happens
        // in u64 and is discarded, leaving the target at the clamp.
        let mut g = CsrGraph::new(3);
        g.set_out_links(0, &[(1, 1), (2, u64::from(u32::MAX) + 5)]);
        let mut dij = ClampedDijkstra::<i16>::new(3);
        dij.run(&g, 0, 0, 100);
        assert_eq!(dij.distances(), &[0, 1, 100]);
    }

    // ----- i16 kernels against u64 arithmetic ------------------------

    /// Deterministic i16 row entries in `0..=SATURATED`, with the low
    /// distances 0–2 and the saturated value both frequent.
    fn kernel_row(len: usize, seed: u64) -> Vec<i16> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = match state % 8 {
                    0..=2 => state % 3,
                    3 => i16::SATURATED,
                    _ => (state >> 8) % (i16::SATURATED + 1),
                };
                narrow(v)
            })
            .collect()
    }

    /// Checks every i16 hook on `(a, b)` against the same sums in u64.
    fn assert_kernels_match_u64(a: &[i16], b: &[i16], context: &str) {
        let wa: Vec<u64> = a.iter().map(|&d| d.widen()).collect();
        let wb: Vec<u64> = b.iter().map(|&d| d.widen()).collect();
        let mins: Vec<u64> = wa.iter().zip(&wb).map(|(&x, &y)| x.min(y)).collect();
        let count = |limit: u64| mins.iter().filter(|&&v| v <= limit).count() as u64;
        assert_eq!(i16::sum(a), wa.iter().sum::<u64>(), "{context}: sum");
        assert_eq!(<u64 as RowWord>::sum(&wa), wa.iter().sum::<u64>());
        let total: u64 = mins.iter().sum();
        assert_eq!(i16::sum_min(a, b), total, "{context}: sum_min");
        assert_eq!(u64::sum_min(&wa, &wb), total, "{context}: u64 sum_min");
        let counts = (total, count(1), count(2));
        assert_eq!(i16::sum_min_counts(a, b), counts, "{context}: counts");
        assert_eq!(
            u64::sum_min_counts(&wa, &wb),
            counts,
            "{context}: u64 counts"
        );
        let mut dst = vec![0i16; a.len()];
        assert_eq!(i16::copy_min_sum(&mut dst, a, b), total, "{context}: copy");
        let copied: Vec<u64> = dst.iter().map(|&d| d.widen()).collect();
        assert_eq!(copied, mins, "{context}: copied row");
        let mut wdst = vec![0u64; a.len()];
        assert_eq!(u64::copy_min_sum(&mut wdst, &wa, &wb), total);
        assert_eq!(wdst, mins);
        for (row, wide) in [(a, &wa), (b, &wb), (&dst[..], &copied)] {
            let count = |limit: u64| wide.iter().filter(|&&v| v <= limit).count() as u64;
            let counts = (count(1), count(2));
            assert_eq!(i16::counts(row), counts, "{context}: row counts");
            assert_eq!(u64::counts(wide), counts, "{context}: u64 row counts");
        }
    }

    #[test]
    fn i16_kernels_match_u64_sums_at_every_block_boundary() {
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 64, 512, 16_382] {
            for seed in 0..3 {
                let a = kernel_row(len, seed);
                let b = kernel_row(len, seed + 100);
                assert_kernels_match_u64(&a, &b, &format!("len {len} seed {seed}"));
            }
        }
    }

    #[test]
    fn i16_kernels_hold_all_saturated_rows_without_overflow() {
        // Every pair sum in a lane reaches 2·SATURATED = 32,766, and a
        // 16,382-entry row sums to n·SATURATED in the 32-bit lanes. An
        // all-≤1 row fills the 16-bit count lanes of `counts` to their
        // widest: 2·⌊16,382 / 32⌋ = 1,022 hits per lane.
        for len in [1usize, 16, 17, 64, 512, 16_382] {
            let full = vec![narrow(i16::SATURATED); len];
            assert_kernels_match_u64(&full, &full, &format!("saturated len {len}"));
            assert_eq!(i16::sum(&full), len as u64 * i16::SATURATED);
            assert_eq!(i16::counts(&full), (0, 0));
            let low = vec![1i16; len];
            assert_kernels_match_u64(&full, &low, &format!("mixed len {len}"));
            assert_eq!(
                i16::sum_min_counts(&full, &low),
                (len as u64, len as u64, len as u64)
            );
            assert_eq!(i16::counts(&low), (len as u64, len as u64));
        }
    }

    #[test]
    fn lift_charges_the_penalty_for_the_saturated_entry_only() {
        let m = 100_003;
        assert_eq!(narrow(i16::SATURATED).lift(m), m);
        assert_eq!(narrow(i16::SATURATED - 1).lift(m), i16::SATURATED - 1);
        assert_eq!(0i16.lift(m), 0);
        // A clamp below SATURATED is the penalty itself: lift is the value.
        assert_eq!(narrow(81).lift(81), 81);
        assert_eq!(UNREACHABLE.lift(m), m);
        assert_eq!(81u64.lift(m), 81);
    }
}
