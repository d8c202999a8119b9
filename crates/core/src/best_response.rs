//! Single-node best response.
//!
//! The key structural fact (also behind Lemmas 3–5 of the paper): a shortest
//! path from `u` never revisits `u`, so with `u`'s out-links removed from the
//! graph (`G∖u`), the distance achieved by any strategy `S` is
//!
//! ```text
//! d_S(u, v) = min_{s ∈ S} ( ℓ(u,s) + d_{G∖u}(s, v) )
//! ```
//!
//! where `d_{G∖u}` is independent of `S`. One row per candidate target
//! therefore prices *every* strategy, and best response reduces to an
//! asymmetric k-median-style subset search over precomputed rows. The
//! [`crate::DistanceEngine`] derives those rows from its shared full-graph
//! rows and runs the one exact search: a branch-and-bound DFS whose
//! optimistic bound comes from exact rows built from the staged candidate
//! rows. [`exact`] is a one-shot wrapper over a fresh engine; [`greedy`] is
//! the greedy-plus-swaps approximation for instances where the exact search
//! is out of reach.
//!
//! ## The exact bound source
//!
//! Per query it builds two kinds of rows from the staged candidate rows
//! `r_0..r_{m−1}`: a *suffix row* `s_i = min(r_i, …, r_{m−1})` per
//! position, and a *block row* `b_g = min(r_{8g}, …, r_{8g+7})` per block
//! of 8 consecutive positions (the last block may be shorter).
//!
//! * **Suffix rows bound a loop.** The DFS loop that extends a selection
//!   with min-row `L` by candidates `i..` may stop at the first position
//!   whose bound `B(i) = min2(L, s_i)` reaches the incumbent: every
//!   selection after it draws only on `r_i..`, so its row is elementwise ≥
//!   `min(L, s_i)`. `B` is monotone in `i`: `s_{i+1} ≥ s_i`
//!   elementwise, and raising one entry from `x` to `y` adds at least
//!   `y − x` to the lifted sum while removing at most one packing count per
//!   threshold `d ∈ {1, 2}` with `x ≤ d < y` — at most `y − x` in all (the
//!   diagonal term is excluded from both). So the loop finds its cutoff by
//!   bisection over the positions it can still afford, and bisects again
//!   (below the old cutoff) only when the incumbent has dropped since. The
//!   cutoff is exactly where a check at every position would return, so
//!   the visit order and every recorded field are unchanged.
//! * **Block rows skip budget leaves.** A *leaf level* is one where even the
//!   two cheapest remaining candidates overrun the budget, so every include
//!   is a budget leaf costing `min2(L, r_j)` exactly. On a leaf level the
//!   loop checks `min2(L, b_g)` against the incumbent on entry and at every
//!   block boundary, and jumps past the block when it reaches the incumbent.
//!   The skip is admissible: each skipped leaf's row `min(L, r_j)` is
//!   elementwise ≥ `min(L, b_g)` and is a real strategy's row, so the
//!   uniform games' packing correction holds for it (the weighted
//!   aggregators are plainly monotone). No skipped leaf could have been
//!   recorded under the strict `<`, in first-improvement mode too, so only
//!   `evaluations` falls.
//! * **Row counts bracket the packing correction.** In a uniform game under
//!   full membership the bound `min2(L, R)` of a level row `L` against a
//!   suffix or block row `R` is the lifted sum of `min(L, R)` minus its
//!   diagonal, plus the packing correction `corr(c)`, where `c` counts the
//!   entries ≤ 1 and ≤ 2 off the diagonal and `corr` is nondecreasing in
//!   both counts. Every level, suffix and block row keeps its own counts
//!   `c_L`, `c_R`, counted once where it is built. An entry of `min(L, R)`
//!   is ≤ d exactly when one of the two entries is, so the count lies
//!   between `max(c_L, c_R) − δ` and `min(c_L + c_R, n) − δ`, where `δ` is
//!   the diagonal's share, read off `min(L[u], R[u])`. A check therefore
//!   runs one early-exit pass of plain sums: it prunes once the sum plus
//!   `lo = corr(max(c_L, c_R) − δ)` reaches the incumbent, it does not
//!   prune when the whole sum plus `hi = corr(min(c_L + c_R, n) − δ)` stays
//!   below it, and only in between does it count `min(L, R)` exactly. Each
//!   answer is the one the exact bound gives, so the cutoffs, the skipped
//!   blocks and every recorded field are those of a check that always
//!   counts; `engine/bound_recounts` reports how many checks had to. Rows
//!   of at most 64 entries (one early-exit chunk) keep no counts and count
//!   exactly in their one pass.
//!
//! ## Row representation
//!
//! Oracle rows are stored *penalty-clamped*: the entry for an unreachable
//! target holds the clamp `C = min(M, SATURATED)` of the engine's row word
//! (see [`bbc_graph::RowWord`]) instead of a sentinel, and every cost reads
//! it through [`RowWord::lift`], which charges the disconnection penalty `M`
//! for it. Because every finite through-distance `ℓ(u,c) + d` is strictly
//! below `C` (the spec enforces `M > n·max ℓ`, the i16 tier `n·max ℓ <
//! SATURATED`), clamping commutes with the elementwise `min` the search is
//! built on, and the branch-and-bound inner loops become branchless sums
//! over flat rows — the difference between ~300µs and ~40µs per
//! best-response step at `n = 24, k = 3`. The plain-sum kernels sum raw
//! entries, bail out early on the raw sums (a raw sum never exceeds the
//! lifted one), and recount the clamped entries only when they need the
//! exact value.
//!
//! Under partial membership a departed node is unreachable from every
//! candidate, so the empty strategy's row holds 0 at its entry. Every row the
//! search prices or bounds with is an elementwise min with that row or a
//! level built from it, so the plain row sum equals the masked cost over
//! live targets; the staged rows keep the clamp there. The frozen
//! pre-refactor implementation lives in [`crate::reference`] and the
//! differential suite proves the two byte-identical.

use bbc_graph::RowWord;

use crate::{Configuration, CostModel, DistanceEngine, Error, GameSpec, NodeId, Result};

/// Tuning knobs for the exact best-response search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BestResponseOptions {
    /// Maximum number of strategy-cost evaluations before the search aborts
    /// with [`Error::SearchBudgetExceeded`]. Each evaluated subset counts
    /// once.
    pub evaluation_limit: u64,
    /// Stop as soon as any strategy strictly cheaper than the node's current
    /// cost is found. The reported `best_*` fields then describe the first
    /// improvement, not the global optimum.
    pub stop_at_first_improvement: bool,
}

impl Default for BestResponseOptions {
    fn default() -> Self {
        Self {
            evaluation_limit: 20_000_000,
            stop_at_first_improvement: false,
        }
    }
}

/// Result of a best-response computation for one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BestResponseOutcome {
    /// The deviating node.
    pub node: NodeId,
    /// Cost of the node's current strategy (computed through the same oracle
    /// as the alternatives, so comparisons are exact).
    pub current_cost: u64,
    /// Cost of the best strategy found.
    pub best_cost: u64,
    /// The best strategy found (sorted target list).
    pub best_strategy: Vec<NodeId>,
    /// Number of strategies whose cost was evaluated — an *effort* counter,
    /// not part of the game-theoretic result. It depends on how aggressively
    /// the search pruned (e.g. [`crate::reference::exact`] evaluates more
    /// subsets than the incumbent-seeded search here, whose block rows also
    /// skip budget leaves unevaluated, for identical
    /// `best_cost`/`best_strategy`), so only the other fields are pinned by
    /// the differential suite.
    pub evaluations: u64,
    /// `true` when the search provably examined the whole strategy space
    /// (no early exit): `best_cost` is then the node's exact optimum.
    pub optimal: bool,
    /// Always 0. Kept for the benchmark package, which still reads it,
    /// until ROADMAP item 2(c) removes it.
    pub bounds_hit: u64,
    /// Always 0. Kept for the benchmark package, which still reads it,
    /// until ROADMAP item 2(c) removes it.
    pub rows_materialized: u64,
}

impl BestResponseOutcome {
    /// `true` when the node can strictly lower its cost by switching.
    pub fn improves(&self) -> bool {
        self.best_cost < self.current_cost
    }

    /// `true` when `other` reports the same game-theoretic result: same
    /// node, costs, strategy, and optimality claim. [`Self::evaluations`] is
    /// deliberately excluded — it measures search effort, which differs
    /// between the pruned search and [`crate::reference::exact`] while the
    /// decision itself is provably identical. This is the equality the
    /// differential suite pins.
    pub fn same_decision(&self, other: &Self) -> bool {
        self.node == other.node
            && self.current_cost == other.current_cost
            && self.best_cost == other.best_cost
            && self.best_strategy == other.best_strategy
            && self.optimal == other.optimal
    }
}

/// The strategy-independent inputs of one node's best-response search, as
/// the [`crate::DistanceEngine`] stages them. The clamped through-rows
/// travel beside the view, flattened with stride `n` at the engine's row
/// width: `rows[i*n + v] = ℓ(u, c_i) + d_{G∖u}(c_i, v)`, with the clamp for
/// unreachable (and departed) `v`.
pub(crate) struct OracleView<'r> {
    pub spec: &'r GameSpec,
    pub node: NodeId,
    /// Candidate targets, ascending by id.
    pub candidates: &'r [NodeId],
    /// Link cost of each candidate.
    pub prices: &'r [u64],
    /// `(v, w(u,v))` for positive-weight targets `v ≠ u`. Under partial
    /// membership ([`crate::DistanceEngine`] churn), restricted to live
    /// targets.
    pub weighted_targets: &'r [(u32, u64)],
    pub budget: u64,
    /// The departed nodes, ascending (empty under full membership). The
    /// empty strategy's row holds 0 at their entries, and every row a cost
    /// is read from is an elementwise min with it, so no plain sum charges
    /// them a distance or a penalty.
    pub departed: &'r [u32],
}

impl OracleView<'_> {
    #[inline]
    fn n(&self) -> usize {
        self.spec.node_count()
    }

    /// `true` when costs collapse to a plain row sum minus the diagonal:
    /// unit weights everywhere and the sum-distance model. Partial
    /// membership qualifies too, because departed entries read 0 in every
    /// row a cost is read from.
    #[inline]
    fn plain_sum(&self) -> bool {
        self.spec.is_uniform() && self.spec.cost_model() == CostModel::SumDistance
    }

    /// Aggregates a clamped distance row into a cost under the spec's model.
    fn aggregate<W: RowWord>(&self, row: &[W]) -> u64 {
        let m = self.spec.penalty();
        if self.plain_sum() {
            return row.iter().map(|d| d.lift(m)).sum::<u64>() - row[self.node.index()].lift(m);
        }
        match self.spec.cost_model() {
            CostModel::SumDistance => self
                .weighted_targets
                .iter()
                .map(|&(v, w)| w * row[v as usize].lift(m))
                .sum(),
            CostModel::MaxDistance => self
                .weighted_targets
                .iter()
                .map(|&(v, w)| w * row[v as usize].lift(m))
                .max()
                .unwrap_or(0),
        }
    }

    /// Aggregates the elementwise minimum of two clamped rows without
    /// materializing it.
    fn aggregate_min<W: RowWord>(&self, a: &[W], b: &[W]) -> u64 {
        let m = self.spec.penalty();
        if self.plain_sum() {
            let total: u64 = a.iter().zip(b).map(|(&x, &y)| x.min(y).lift(m)).sum();
            let u = self.node.index();
            return total - a[u].min(b[u]).lift(m);
        }
        match self.spec.cost_model() {
            CostModel::SumDistance => self
                .weighted_targets
                .iter()
                .map(|&(v, w)| w * a[v as usize].min(b[v as usize]).lift(m))
                .sum(),
            CostModel::MaxDistance => self
                .weighted_targets
                .iter()
                .map(|&(v, w)| w * a[v as usize].min(b[v as usize]).lift(m))
                .max()
                .unwrap_or(0),
        }
    }

    /// Writes 0 at every departed entry of `row`.
    #[inline]
    fn zero_departed<W: RowWord>(&self, row: &mut [W]) {
        for &v in self.departed {
            row[v as usize] = W::ZERO;
        }
    }

    /// Fills `row` with the empty strategy's row: every live target at the
    /// clamp, every departed one at 0.
    fn empty_row<W: RowWord>(&self, row: &mut [W]) {
        row.fill(clamp_for(self.spec));
        self.zero_departed(row);
    }

    /// Cost of `strategy` priced through `rows`, with `scratch` holding its
    /// min-row afterwards. Every target must be a candidate.
    fn strategy_cost<W: RowWord>(
        &self,
        rows: &[W],
        strategy: &[NodeId],
        scratch: &mut Vec<W>,
    ) -> u64 {
        let n = self.n();
        scratch.clear();
        scratch.resize(n, W::ZERO);
        self.empty_row(scratch);
        for &t in strategy {
            let i = self
                .candidates
                .binary_search(&t)
                // bbc-lint: allow(panic, the engine validated every held target as a live affordable candidate)
                .expect("a held strategy target is always a live, affordable candidate");
            min_into(scratch, &rows[i * n..(i + 1) * n]);
        }
        self.aggregate(scratch)
    }
}

/// The row clamp of `spec` at width `W`: `min(M, W::SATURATED)`. An entry
/// equal to it means "unreachable", and [`RowWord::lift`] charges `M` for it.
pub(crate) fn clamp_for<W: RowWord>(spec: &GameSpec) -> W {
    W::from_u64(spec.penalty().min(W::SATURATED))
        // bbc-lint: allow(panic, SATURATED fits its own word, and the engine's tier check proved a smaller penalty does too)
        .expect("the clamp fits the row tier")
}

/// `dst[v] = min(dst[v], src[v])` elementwise.
#[inline]
pub(crate) fn min_into<W: RowWord>(dst: &mut [W], src: &[W]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).min(s);
    }
}

/// `dst[v] = min(a[v], b[v])` elementwise (fused copy+min).
#[inline]
fn copy_min<W: RowWord>(dst: &mut [W], a: &[W], b: &[W]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x.min(y);
    }
}

/// Cost aggregation, monomorphized per game shape *and* per row word so the
/// branch-and-bound inner loops compile to tight branch-free passes (the
/// generic dispatch in [`OracleView::aggregate`] costs more than the
/// arithmetic at `n ≈ 24`). Minima run at the row width `W`; every cost is
/// the *lifted* one ([`RowWord::lift`] charges `M` for a clamped entry), so
/// both widths compute bit-identical costs and bounds.
pub(crate) trait Aggregate<W: RowWord> {
    /// Cost of a clamped row.
    fn row(&self, row: &[W]) -> u64;
    /// Cost of `min(a, b)` elementwise, without materializing it, used only
    /// as a prune bound: once the running value is provably `≥ cutoff` the
    /// implementation may bail out and return any value `≥ cutoff`.
    fn min2(&self, a: &[W], b: &[W], cutoff: u64) -> u64;
    /// `dst = min(a, b)` elementwise, returning the cost of `dst`.
    fn copy_min2(&self, dst: &mut [W], a: &[W], b: &[W]) -> u64;
    /// *Exact* cost of `min(a, b)` elementwise without materializing it,
    /// except that once the value is provably `≥ cutoff` the implementation
    /// may bail out with any value `≥ cutoff`. Unlike [`Aggregate::min2`]
    /// this must never over-report a value `< cutoff` (no admissible-bound
    /// corrections): the search records it as a real strategy cost at
    /// budget-leaf nodes. The default is correct wherever `min2` is already
    /// exact-or-bailout; [`PlainSum`] overrides to drop its packing
    /// correction.
    fn eval2(&self, a: &[W], b: &[W], cutoff: u64) -> u64 {
        self.min2(a, b, cutoff)
    }
    /// The counts of `row` that [`Aggregate::prunes`] reads; `(0, 0)` when
    /// it reads none. The default reads none.
    fn counts(&self, _row: &[W]) -> Counts {
        (0, 0)
    }
    /// Whether `min2(a, b, incumbent) >= incumbent`, given the rows'
    /// [`Aggregate::counts`] `ca` and `cb`, or `None` when this check cannot
    /// tell and the caller must ask [`Aggregate::min2`]. The default asks
    /// it.
    fn prunes(&self, a: &[W], _ca: Counts, b: &[W], _cb: Counts, incumbent: u64) -> Option<bool> {
        Some(self.min2(a, b, incumbent) >= incumbent)
    }
}

/// `(#{v : r[v] ≤ 1}, #{v : r[v] ≤ 2})` of a row `r`: the packing counts of
/// [`RowWord::counts`].
type Counts = (u64, u64);

/// Unit weights, sum-distance model: cost = Σ row − row[u], lifted.
///
/// Its prune bound adds the BFS-packing correction of Theorem 4's
/// accounting: in a `(n,k)`-uniform game at most `k` targets can sit at
/// distance 1 and at most `k + k²` at distance ≤ 2 (every node's out-degree
/// is at most `k`), so when the optimistic elementwise-min row packs more
/// targets that close, each excess target must pay at least one extra hop.
/// Formally, for any completion `f ≥ t` elementwise with `#{v : f(v) ≤ d} ≤
/// A_d`: `Σf − Σt = Σ_d #{v : t(v) ≤ d < f(v)} ≥ Σ_d (C_d − A_d)⁺` — the
/// correction is admissible, so pruning with it never cuts the subtree
/// holding the DFS-first optimum and every reported field stays identical.
/// Under partial membership the departed entries read 0 and would inflate
/// the counts, so the bound runs without the correction there.
///
/// A prune check ([`Aggregate::prunes`]) brackets the correction from the
/// two rows' own counts before it sums anything (see the module docs), and
/// leaves [`Aggregate::min2`]'s exact count pass to the checks the bracket
/// cannot settle.
///
/// The sums run through the row word's kernels ([`RowWord::sum_min`] and
/// friends) on raw entries. Only a sum that must be exact recounts the
/// clamped entries and adds `M − C` for each; a bail-out on a raw partial
/// sum is sound because the lifted sum is never smaller.
struct PlainSum<W> {
    u: usize,
    /// The row clamp `C`.
    clamp: W,
    /// The penalty `M` a clamped entry stands for.
    penalty: u64,
    /// `M − C`: what lifting adds per clamped entry (0 unless the penalty
    /// exceeds the row word's saturated value).
    extra: u64,
    /// `(A_1, A_2) = (k, k + k²)`: max targets at distance 1 and ≤ 2; `None`
    /// when the bound runs without the packing correction.
    packing: Option<(u64, u64)>,
}

impl<W: RowWord> PlainSum<W> {
    /// Whether a row whose raw sum is `raw` can hold a clamped entry that
    /// lifting would raise: each one adds `C` to the raw sum by itself.
    #[inline(always)]
    fn may_lift(&self, raw: u64) -> bool {
        self.extra > 0 && raw >= self.clamp.widen()
    }

    /// `M − C` for each clamped entry among `entries`, whose raw sum is
    /// `raw`.
    #[inline]
    fn recount(&self, entries: impl Iterator<Item = W>, raw: u64) -> u64 {
        if !self.may_lift(raw) {
            return 0;
        }
        self.extra * entries.filter(|&d| d == self.clamp).count() as u64
    }

    /// The packing capacities when a prune check on rows of `len` entries
    /// brackets the correction from row counts, `None` when it counts
    /// exactly in one pass. A row of at most one early-exit chunk gives the
    /// bracket no early exit to win, while a check the bracket leaves open
    /// costs a second pass, and short rows leave many open: bracketed
    /// throughout, a random-start (24,3)-uniform walk left 70% of its checks
    /// open and the 512-peer overlay walk 0.24%.
    #[inline(always)]
    fn bracket(&self, len: usize) -> Option<(u64, u64)> {
        self.packing.filter(|_| len > CHUNK)
    }

    /// The lifted diagonal `min(a[u], b[u])` and the limit a sum including
    /// it must stay below for the cost to stay below `cutoff`.
    #[inline(always)]
    fn diagonal(&self, a: &[W], b: &[W], cutoff: u64) -> (W, u64, u64) {
        let sub = a[self.u].min(b[self.u]);
        let lifted = sub.lift(self.penalty);
        (sub, lifted, cutoff.saturating_add(lifted))
    }
}

impl<W: RowWord> Aggregate<W> for PlainSum<W> {
    #[inline(always)]
    fn row(&self, row: &[W]) -> u64 {
        let raw = W::sum(row);
        raw + self.recount(row.iter().copied(), raw) - row[self.u].lift(self.penalty)
    }

    #[inline(always)]
    fn min2(&self, a: &[W], b: &[W], cutoff: u64) -> u64 {
        let Some(allowed) = self.packing else {
            return self.eval2(a, b, cutoff);
        };
        // The diagonal term is subtracted at the end; fold it into the limit
        // so the chunked partial sums compare against an exact threshold.
        let (sub, lifted, limit) = self.diagonal(a, b, cutoff);
        let (mut total, mut le1, mut le2) = (0u64, 0u64, 0u64);
        for (ca, cb) in a.chunks(CHUNK).zip(b.chunks(CHUNK)) {
            let (t, c1, c2) = W::sum_min_counts(ca, cb);
            total += t;
            le1 += c1;
            le2 += c2;
            // Early-exit granularity only decides whether a doomed bound
            // reports `u64::MAX` or its exact value ≥ cutoff — the caller
            // prunes either way, so the chunk size is a pure tuning knob.
            if total >= limit {
                return u64::MAX;
            }
        }
        total += self.recount(a.iter().zip(b).map(|(&x, &y)| x.min(y)), total);
        if total >= limit {
            return u64::MAX;
        }
        let correction = packing_excess(allowed, (le1, le2), diagonal_share(sub));
        (total - lifted).saturating_add(correction)
    }

    #[inline(always)]
    fn copy_min2(&self, dst: &mut [W], a: &[W], b: &[W]) -> u64 {
        let raw = W::copy_min_sum(dst, a, b);
        raw + self.recount(dst.iter().copied(), raw) - dst[self.u].lift(self.penalty)
    }

    #[inline(always)]
    fn eval2(&self, a: &[W], b: &[W], cutoff: u64) -> u64 {
        // Exact (no packing correction — that is a *bound* device and would
        // over-report a recordable cost), with an early exit per 64-entry
        // chunk. Fixed-size chunks plus one remainder pass: this runs at
        // every budget leaf, and on rows shorter than a chunk the
        // variable-size chunking measured slower than the plain pass.
        let (_, lifted, limit) = self.diagonal(a, b, cutoff);
        let mut total = 0u64;
        let (mut ca, mut cb) = (a.chunks_exact(CHUNK), b.chunks_exact(CHUNK));
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            total += W::sum_min(xa, xb);
            if total >= limit {
                return u64::MAX;
            }
        }
        total += W::sum_min(ca.remainder(), cb.remainder());
        if total >= limit {
            return u64::MAX;
        }
        total += self.recount(a.iter().zip(b).map(|(&x, &y)| x.min(y)), total);
        if total >= limit {
            return u64::MAX;
        }
        total - lifted
    }

    #[inline(always)]
    fn counts(&self, row: &[W]) -> Counts {
        match self.bracket(row.len()) {
            Some(_) => W::counts(row),
            None => (0, 0),
        }
    }

    #[inline(always)]
    fn prunes(&self, a: &[W], ca: Counts, b: &[W], cb: Counts, incumbent: u64) -> Option<bool> {
        let Some(allowed) = self.bracket(a.len()) else {
            return Some(self.min2(a, b, incumbent) >= incumbent);
        };
        // `min(a, b)` has at least as many entries ≤ d as either row and at
        // most as many as both, or as it has entries, so its correction lies
        // in `lo..=hi`.
        let share = diagonal_share(a[self.u].min(b[self.u]));
        let lo = packing_excess(allowed, (ca.0.max(cb.0), ca.1.max(cb.1)), share);
        let len = a.len() as u64;
        let most = ((ca.0 + cb.0).min(len), (ca.1 + cb.1).min(len));
        let hi = packing_excess(allowed, most, share);
        // The exact cost without the correction, or a bail-out once even
        // `lo` on top of it reaches the incumbent.
        let floor = incumbent.saturating_sub(lo);
        let plain = self.eval2(a, b, floor);
        if plain >= floor {
            Some(true)
        } else if plain.saturating_add(hi) < incumbent {
            Some(false)
        } else {
            None
        }
    }
}

/// Whether the diagonal entry `sub = min(a[u], b[u])` sits at distance ≤ 1
/// and ≤ 2: its share of each packing count, which the bound excludes.
#[inline(always)]
fn diagonal_share<W: RowWord>(sub: W) -> Counts {
    (u64::from(sub <= W::ONE), u64::from(sub <= W::ONE + W::ONE))
}

/// The packing correction for `counts` entries at distance ≤ 1 and ≤ 2, of
/// which `share` is the diagonal's: the excess over the capacities
/// `allowed`. Every count includes its row's diagonal entry, so `share`
/// never exceeds it.
#[inline(always)]
fn packing_excess(allowed: (u64, u64), counts: Counts, share: Counts) -> u64 {
    (counts.0 - share.0).saturating_sub(allowed.0) + (counts.1 - share.1).saturating_sub(allowed.1)
}

/// Entries per early-exit chunk of [`PlainSum`]'s passes.
const CHUNK: usize = 64;

/// General weights, sum-distance model.
struct WeightedSum<'a> {
    targets: &'a [(u32, u64)],
    penalty: u64,
}

impl<W: RowWord> Aggregate<W> for WeightedSum<'_> {
    #[inline(always)]
    fn row(&self, row: &[W]) -> u64 {
        self.targets
            .iter()
            .map(|&(v, w)| w * row[v as usize].lift(self.penalty))
            .sum()
    }

    #[inline(always)]
    fn min2(&self, a: &[W], b: &[W], cutoff: u64) -> u64 {
        let mut total = 0u64;
        for chunk in self.targets.chunks(16) {
            total += chunk
                .iter()
                .map(|&(v, w)| w * a[v as usize].min(b[v as usize]).lift(self.penalty))
                .sum::<u64>();
            if total >= cutoff {
                return u64::MAX;
            }
        }
        total
    }

    #[inline(always)]
    fn copy_min2(&self, dst: &mut [W], a: &[W], b: &[W]) -> u64 {
        copy_min(dst, a, b);
        self.row(dst)
    }
}

/// General weights, max-distance model (§5's BBC-max).
struct WeightedMax<'a> {
    targets: &'a [(u32, u64)],
    penalty: u64,
}

impl<W: RowWord> Aggregate<W> for WeightedMax<'_> {
    #[inline(always)]
    fn row(&self, row: &[W]) -> u64 {
        self.targets
            .iter()
            .map(|&(v, w)| w * row[v as usize].lift(self.penalty))
            .max()
            .unwrap_or(0)
    }

    #[inline(always)]
    fn min2(&self, a: &[W], b: &[W], cutoff: u64) -> u64 {
        let mut worst = 0u64;
        for &(v, w) in self.targets {
            worst = worst.max(w * a[v as usize].min(b[v as usize]).lift(self.penalty));
            if worst >= cutoff {
                return u64::MAX;
            }
        }
        worst
    }

    #[inline(always)]
    fn copy_min2(&self, dst: &mut [W], a: &[W], b: &[W]) -> u64 {
        copy_min(dst, a, b);
        self.row(dst)
    }
}

/// Reusable branch-and-bound workspace: the per-depth accumulated min-rows
/// flattened into one arena, so a search allocates nothing when the scratch
/// is warm.
#[derive(Clone, Debug)]
pub(crate) struct SearchScratch<W> {
    /// One row per depth up to the largest affordable selection, stride `n`.
    levels: Vec<W>,
    /// The [`Aggregate::counts`] of each level row.
    counts: Vec<Counts>,
    selection: Vec<usize>,
    /// `min_price_suffix[i]` = cheapest link cost among candidates `i..m`
    /// (`u64::MAX` at `m`): lets the search skip subtrees where the
    /// remaining budget cannot afford any further candidate.
    min_price_suffix: Vec<u64>,
    /// The current strategy's min-row (pricing scratch).
    current: Vec<W>,
}

impl<W: RowWord> SearchScratch<W> {
    /// Bytes held by the search levels and selection scratch (by capacity).
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.levels.capacity() + self.current.capacity()) * size_of::<W>()
            + self.counts.capacity() * size_of::<Counts>()
            + self.selection.capacity() * size_of::<usize>()
            + self.min_price_suffix.capacity() * size_of::<u64>()
    }
}

impl<W: RowWord> Default for SearchScratch<W> {
    fn default() -> Self {
        Self {
            levels: Vec::new(),
            counts: Vec::new(),
            selection: Vec::new(),
            min_price_suffix: Vec::new(),
            current: Vec::new(),
        }
    }
}

/// Exact best response for node `u` under `config`.
///
/// Enumerates every budget-feasible strategy by branch-and-bound over the
/// oracle rows. Deterministic: with equal costs, the first strategy in the
/// search order (candidates ascending, include-before-exclude) wins.
///
/// One-shot convenience over a fresh [`DistanceEngine`]; callers with more
/// than one query should hold an engine, whose row and outcome caches then
/// carry over.
///
/// # Errors
///
/// [`Error::SearchBudgetExceeded`] if more than
/// `options.evaluation_limit` strategies would need evaluating; fall back to
/// [`greedy`] in that case.
///
/// # Examples
///
/// ```
/// use bbc_core::{best_response, BestResponseOptions, Configuration, GameSpec, NodeId};
///
/// // Path 0->1->2 in a (3,1)-uniform game; node 2 is disconnected and its
/// // best response is to link back, say to node 0.
/// let spec = GameSpec::uniform(3, 1);
/// let cfg = Configuration::from_strategies(&spec, vec![
///     vec![NodeId::new(1)], vec![NodeId::new(2)], vec![],
/// ])?;
/// let out = best_response::exact(&spec, &cfg, NodeId::new(2), &BestResponseOptions::default())?;
/// assert!(out.improves());
/// assert_eq!(out.best_strategy, vec![NodeId::new(0)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn exact(
    spec: &GameSpec,
    config: &Configuration,
    u: NodeId,
    options: &BestResponseOptions,
) -> Result<BestResponseOutcome> {
    DistanceEngine::new(spec, config.clone()).best_response(u, options)
}

/// The branch-and-bound search over a staged view and its candidate `rows`
/// (stride `n`), pricing the node's current `strategy` through the same
/// rows.
///
/// The incumbent starts at `current_cost + 1` rather than `∞`. This is
/// sound and changes no reported field except `evaluations`: the node's
/// current strategy is itself in the search space, so the optimum is at
/// most `current_cost`, and any DFS subtree containing the first-in-order
/// optimal strategy has optimistic bound ≤ optimum < incumbent at every
/// moment before that strategy is reached — it is never pruned, and the
/// search records exactly the strategy the unseeded search would. In
/// first-improvement mode the same argument applies to the first improving
/// strategy (every improvement costs < `current_cost` < any pre-improvement
/// incumbent). The payoff is that testing an already-stable node — the
/// dominant operation in walk tails and stability sweeps — prunes almost
/// the entire subset lattice immediately.
///
/// A budget-leaf include (no deeper candidate affordable) is costed with
/// [`Aggregate::eval2`] instead of materializing a next-level row nothing
/// would read. It still records exactly one cost, so `evaluations` does not
/// move.
pub(crate) fn search<W: RowWord, B: BoundSource<W>>(
    view: &OracleView<'_>,
    rows: &[W],
    strategy: &[NodeId],
    bounds: &mut B,
    options: &BestResponseOptions,
    scratch: &mut SearchScratch<W>,
) -> Result<BestResponseOutcome> {
    let n = view.n();
    let m = view.candidates.len();
    let current_cost = view.strategy_cost(rows, strategy, &mut scratch.current);
    scratch.selection.clear();
    scratch.min_price_suffix.clear();
    scratch.min_price_suffix.resize(m + 1, u64::MAX);
    for i in (0..m).rev() {
        scratch.min_price_suffix[i] = scratch.min_price_suffix[i + 1].min(view.prices[i]);
    }
    // No selection outgrows the budget: at most `budget / cheapest`
    // candidates fit (all `m` when one is free), so no deeper level is ever
    // written. Level 0 is the empty strategy's row.
    let depth = match view.budget.checked_div(scratch.min_price_suffix[0]) {
        Some(fit) => usize::try_from(fit).map_or(m, |fit| fit.min(m)),
        None => m,
    };
    scratch.levels.clear();
    scratch.levels.resize((depth + 1) * n, W::ZERO);
    view.empty_row(&mut scratch.levels[..n]);
    scratch.counts.clear();
    scratch.counts.resize(depth + 1, (0, 0));

    // Monomorphize the hot loops on the game's cost shape.
    if view.plain_sum() {
        let k = view
            .spec
            .uniform_k()
            // bbc-lint: allow(panic, plain_sum() returns true only for uniform sum games)
            .expect("plain_sum implies a uniform game");
        let clamp: W = clamp_for(view.spec);
        let agg = PlainSum {
            u: view.node.index(),
            clamp,
            penalty: view.spec.penalty(),
            extra: view.spec.penalty() - clamp.widen(),
            packing: view
                .departed
                .is_empty()
                .then(|| (k, k.saturating_add(k.saturating_mul(k)))),
        };
        search_with(view, agg, rows, bounds, current_cost, options, scratch)
    } else {
        match view.spec.cost_model() {
            CostModel::SumDistance => {
                let agg = WeightedSum {
                    targets: view.weighted_targets,
                    penalty: view.spec.penalty(),
                };
                search_with(view, agg, rows, bounds, current_cost, options, scratch)
            }
            CostModel::MaxDistance => {
                let agg = WeightedMax {
                    targets: view.weighted_targets,
                    penalty: view.spec.penalty(),
                };
                search_with(view, agg, rows, bounds, current_cost, options, scratch)
            }
        }
    }
}

fn search_with<W: RowWord, A: Aggregate<W>, B: BoundSource<W>>(
    view: &OracleView<'_>,
    agg: A,
    rows: &[W],
    bounds: &mut B,
    current_cost: u64,
    options: &BestResponseOptions,
    scratch: &mut SearchScratch<W>,
) -> Result<BestResponseOutcome> {
    let n = view.n();
    bounds.prepare(&agg, rows, view.candidates.len(), n);
    scratch.counts[0] = agg.counts(&scratch.levels[..n]);
    let mut search = Search {
        view,
        agg,
        bounds,
        rows,
        options,
        scratch,
        best_cost: current_cost.saturating_add(1),
        best_strategy: Vec::new(),
        evaluations: 0,
        current_cost,
        done: false,
    };

    // The empty strategy is always feasible; evaluate it as the baseline.
    let empty_cost = search.agg.row(&search.scratch.levels[..n]);
    search.record(empty_cost)?;
    search.dfs(0, 0, 0)?;

    Ok(BestResponseOutcome {
        node: view.node,
        current_cost,
        best_cost: search.best_cost,
        best_strategy: search.best_strategy,
        evaluations: search.evaluations,
        optimal: !search.done,
        bounds_hit: 0,
        rows_materialized: 0,
    })
}

struct Search<'o, W: RowWord, A: Aggregate<W>, B: BoundSource<W>> {
    view: &'o OracleView<'o>,
    agg: A,
    bounds: &'o mut B,
    rows: &'o [W],
    options: &'o BestResponseOptions,
    scratch: &'o mut SearchScratch<W>,
    best_cost: u64,
    best_strategy: Vec<NodeId>,
    evaluations: u64,
    current_cost: u64,
    /// Set when stop_at_first_improvement has triggered.
    done: bool,
}

impl<W: RowWord, A: Aggregate<W>, B: BoundSource<W>> Search<'_, W, A, B> {
    /// Records the current selection, costing `cost`, against the incumbent
    /// and the evaluation budget.
    fn record(&mut self, cost: u64) -> Result<()> {
        self.evaluations += 1;
        if self.evaluations > self.options.evaluation_limit {
            return Err(Error::SearchBudgetExceeded {
                limit: self.options.evaluation_limit,
            });
        }
        if cost < self.best_cost {
            self.best_cost = cost;
            self.best_strategy = self
                .scratch
                .selection
                .iter()
                .map(|&i| self.view.candidates[i])
                .collect();
            self.best_strategy.sort_unstable();
            if self.options.stop_at_first_improvement && cost < self.current_cost {
                self.done = true;
            }
        }
        Ok(())
    }

    /// Extends the selection whose min-row is `level` by candidates
    /// `first..`, spending at most the budget left after `spent`. Each
    /// iteration includes candidate `i` (recursing only when the include
    /// is not a budget leaf) and then moves on to exclude it, so the visit
    /// order is include-before-exclude, candidates ascending.
    ///
    /// The loop returns at the first position whose optimistic bound —
    /// even taking every remaining candidate for free — cannot beat the
    /// incumbent. It finds that position by bisection and skips blocks of
    /// budget leaves on a leaf level (see the module docs).
    fn dfs(&mut self, first: usize, level: usize, spent: u64) -> Result<()> {
        let n = self.view.n();
        let m = self.view.candidates.len();
        let budget = self.view.budget;
        let min_price = &self.scratch.min_price_suffix;
        // From `stop` on nothing left is affordable: no deeper selection will
        // ever be evaluated, so the rest of the loop (an evaluation-free
        // exclude chain) can be skipped without touching any reported field.
        let stop =
            first + min_price[first..m].partition_point(|&p| spent.saturating_add(p) <= budget);
        // Even the two cheapest remaining candidates overrun the budget, so
        // every include of this loop is a budget leaf.
        let leaf_level = spent.saturating_add(min_price[first].saturating_mul(2)) > budget;
        // The cutoff: the first position whose bound prunes against the
        // incumbent it was bisected for.
        let (mut cut, mut cut_for) = (stop, None);
        let mut i = first;
        while i < stop {
            if self.done {
                return Ok(());
            }
            let cur = &self.scratch.levels[level * n..(level + 1) * n];
            let counts = self.scratch.counts[level];
            // A lower incumbent can only move the cutoff down.
            if cut_for != Some(self.best_cost) {
                cut = first_pruning(self.bounds, &self.agg, cur, counts, i, cut, self.best_cost);
                cut_for = Some(self.best_cost);
            }
            if i >= cut {
                return Ok(());
            }
            if leaf_level
                && (i == first || i.is_multiple_of(BLOCK))
                && self
                    .bounds
                    .block_prunes(&self.agg, cur, counts, i / BLOCK, self.best_cost)
            {
                i = (i / BLOCK + 1) * BLOCK;
                continue;
            }
            // Include candidate i if affordable; the next iteration
            // excludes it.
            if spent + self.view.prices[i] <= budget {
                self.include(i, level, spent)?;
            }
            i += 1;
        }
        Ok(())
    }

    /// Adds candidate `i` to the selection whose min-row is `level` and
    /// which has spent `spent`, records it, and extends it unless the
    /// include is a budget leaf.
    fn include(&mut self, i: usize, level: usize, spent: u64) -> Result<()> {
        let n = self.view.n();
        let row = &self.rows[i * n..(i + 1) * n];
        let spent = spent + self.view.prices[i];
        self.scratch.selection.push(i);
        if spent.saturating_add(self.scratch.min_price_suffix[i + 1]) > self.view.budget {
            // Budget leaf: the recursion below this include would exit at
            // its own price check before recording anything, so the
            // next-level row would be write-only — cost the selection
            // without materializing it.
            let cur = &self.scratch.levels[level * n..(level + 1) * n];
            let cost = self.agg.eval2(cur, row, self.best_cost);
            self.record(cost)?;
        } else {
            let (cur, next) = self.scratch.levels.split_at_mut((level + 1) * n);
            let next = &mut next[..n];
            let cost = self.agg.copy_min2(next, &cur[level * n..], row);
            self.scratch.counts[level + 1] = self.agg.counts(next);
            self.record(cost)?;
            self.dfs(i + 1, level + 1, spent)?;
        }
        self.scratch.selection.pop();
        Ok(())
    }
}

/// The first position in `lo..hi` at which `bounds` prunes the selection
/// whose min-row is `level`, with [`Aggregate::counts`] `counts`, against
/// `incumbent`, or `hi` when none does. Bisection: [`BoundSource::prunes`]
/// is monotone in the position.
fn first_pruning<W: RowWord, A: Aggregate<W>, B: BoundSource<W>>(
    bounds: &mut B,
    agg: &A,
    level: &[W],
    counts: Counts,
    mut lo: usize,
    mut hi: usize,
    incumbent: u64,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if bounds.prunes(agg, level, counts, mid, incumbent) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Consecutive staged candidates per block row of the bound source.
const BLOCK: usize = 8;

/// Where the search's optimistic-completion bound comes from: the engine
/// runs [`SuffixBounds`], and the unit tests wrap it to check each block
/// skip by brute force.
///
/// A source must be *admissible*: it may prune a subtree only when no
/// selection inside it costs less than the incumbent, so pruning changes no
/// recorded decision, only the `evaluations` effort counter.
pub(crate) trait BoundSource<W: RowWord> {
    /// Readies the per-query bound state for `agg`'s search. `rows` holds
    /// the `m` staged candidate rows with stride `n`.
    fn prepare<A: Aggregate<W>>(&mut self, agg: &A, rows: &[W], m: usize, n: usize);
    /// `true` when no selection extending the one whose min-row is `level`,
    /// with [`Aggregate::counts`] `counts`, by candidates `i..` can cost
    /// less than `incumbent`. Monotone in `i`, so the search bisects for
    /// each loop's cutoff.
    fn prunes<A: Aggregate<W>>(
        &mut self,
        agg: &A,
        level: &[W],
        counts: Counts,
        i: usize,
        incumbent: u64,
    ) -> bool;
    /// `true` when no affordable selection extending the one whose min-row
    /// is `level`, with [`Aggregate::counts`] `counts`, by exactly one
    /// candidate of block `g` (positions `8g..8g + 8`) can cost less than
    /// `incumbent`.
    fn block_prunes<A: Aggregate<W>>(
        &mut self,
        agg: &A,
        level: &[W],
        counts: Counts,
        g: usize,
        incumbent: u64,
    ) -> bool;
}

/// The exact bound source, built per query in `O(m·n)` from the staged
/// rows. Suffix row `i` is the elementwise minimum of the candidate rows
/// `i..m` — the best any completion drawing on those candidates can reach;
/// block row `g` is the elementwise minimum of the candidate rows
/// `8g..min(8g + 8, m)`. The module docs give the monotonicity the search's
/// bisection relies on and why the block skip is admissible.
#[derive(Clone, Debug)]
pub(crate) struct SuffixBounds<W> {
    /// Suffix rows, stride `n`, one per candidate.
    rows: Vec<W>,
    /// Block rows, stride `n`, one per block of [`BLOCK`] candidates.
    blocks: Vec<W>,
    /// The [`Aggregate::counts`] of each suffix row.
    row_counts: Vec<Counts>,
    /// The [`Aggregate::counts`] of each block row.
    block_counts: Vec<Counts>,
    /// Checks [`Aggregate::prunes`] could not settle, which
    /// [`Aggregate::min2`] then decided: observational only.
    recounts: u64,
}

impl<W: RowWord> Default for SuffixBounds<W> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            blocks: Vec::new(),
            row_counts: Vec::new(),
            block_counts: Vec::new(),
            recounts: 0,
        }
    }
}

impl<W: RowWord> SuffixBounds<W> {
    /// Bytes held by the suffix and block rows and their counts (by
    /// capacity).
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.rows.capacity() + self.blocks.capacity()) * size_of::<W>()
            + (self.row_counts.capacity() + self.block_counts.capacity()) * size_of::<Counts>()
    }

    /// Prune checks since construction that fell back to [`Aggregate::min2`]'s
    /// exact count pass.
    pub(crate) fn recounts(&self) -> u64 {
        self.recounts
    }

    /// Whether `level` (with counts `counts`) against bound row `bound`
    /// (with counts `bound_counts`) prunes at `incumbent`; a check the
    /// counts cannot settle is decided by [`Aggregate::min2`] and counted.
    #[inline]
    fn check<A: Aggregate<W>>(
        recounts: &mut u64,
        agg: &A,
        (level, counts): (&[W], Counts),
        (bound, bound_counts): (&[W], Counts),
        incumbent: u64,
    ) -> bool {
        agg.prunes(level, counts, bound, bound_counts, incumbent)
            .unwrap_or_else(|| {
                *recounts += 1;
                agg.min2(level, bound, incumbent) >= incumbent
            })
    }
}

impl<W: RowWord> BoundSource<W> for SuffixBounds<W> {
    fn prepare<A: Aggregate<W>>(&mut self, agg: &A, rows: &[W], m: usize, n: usize) {
        self.rows.clear();
        self.rows.resize(m * n, W::ZERO);
        self.blocks.clear();
        self.blocks.resize(m.div_ceil(BLOCK) * n, W::ZERO);
        self.row_counts.clear();
        self.block_counts.clear();
        if m == 0 {
            return;
        }
        self.rows[(m - 1) * n..].copy_from_slice(&rows[(m - 1) * n..]);
        for i in (0..m - 1).rev() {
            let (head, tail) = self.rows.split_at_mut((i + 1) * n);
            copy_min(&mut head[i * n..], &tail[..n], &rows[i * n..(i + 1) * n]);
        }
        for (dst, members) in self
            .blocks
            .chunks_exact_mut(n)
            .zip(rows[..m * n].chunks(BLOCK * n))
        {
            dst.copy_from_slice(&members[..n]);
            for row in members[n..].chunks_exact(n) {
                min_into(dst, row);
            }
        }
        self.row_counts
            .extend(self.rows.chunks_exact(n).map(|row| agg.counts(row)));
        self.block_counts
            .extend(self.blocks.chunks_exact(n).map(|row| agg.counts(row)));
    }

    #[inline]
    fn prunes<A: Aggregate<W>>(
        &mut self,
        agg: &A,
        level: &[W],
        counts: Counts,
        i: usize,
        incumbent: u64,
    ) -> bool {
        let n = level.len();
        let bound = (&self.rows[i * n..(i + 1) * n], self.row_counts[i]);
        Self::check(&mut self.recounts, agg, (level, counts), bound, incumbent)
    }

    #[inline]
    fn block_prunes<A: Aggregate<W>>(
        &mut self,
        agg: &A,
        level: &[W],
        counts: Counts,
        g: usize,
        incumbent: u64,
    ) -> bool {
        let n = level.len();
        let bound = (&self.blocks[g * n..(g + 1) * n], self.block_counts[g]);
        Self::check(&mut self.recounts, agg, (level, counts), bound, incumbent)
    }
}

/// Greedy-plus-swaps heuristic best response.
///
/// Builds a strategy by repeatedly adding the candidate with the largest
/// marginal cost reduction, then applies single-link swaps until no swap
/// improves. Always returns a strategy at least as good as the node's
/// current one *or* the node's current strategy itself; `optimal` is `false`
/// unless the strategy space was trivially small.
pub fn greedy(spec: &GameSpec, config: &Configuration, u: NodeId) -> BestResponseOutcome {
    DistanceEngine::new(spec, config.clone()).greedy(u)
}

/// The greedy heuristic over a staged view and its candidate `rows`,
/// starting from the node's current `strategy`.
pub(crate) fn greedy_on<W: RowWord>(
    view: &OracleView<'_>,
    rows: &[W],
    strategy: &[NodeId],
) -> BestResponseOutcome {
    let n = view.n();
    let m = view.candidates.len();
    let row_of = |i: usize| &rows[i * n..(i + 1) * n];
    let mut row = Vec::new();
    let current_cost = view.strategy_cost(rows, strategy, &mut row);
    let mut evaluations = 0u64;

    let mut selected: Vec<usize> = Vec::new();
    view.empty_row(&mut row);
    let mut spent = 0u64;

    // Greedy additions.
    loop {
        let mut best: Option<(u64, usize)> = None;
        for i in 0..m {
            if selected.contains(&i) || spent + view.prices[i] > view.budget {
                continue;
            }
            let cost = view.aggregate_min(&row, row_of(i));
            evaluations += 1;
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, i));
            }
        }
        let Some((_, i)) = best else { break };
        // Adding a link can never increase cost (the min-row only shrinks),
        // so keep adding while budget lasts; stop when nothing is affordable.
        min_into(&mut row, row_of(i));
        spent += view.prices[i];
        selected.push(i);
    }

    // 1-swap local search.
    let mut trial = vec![W::ZERO; n];
    let mut improved = true;
    while improved {
        improved = false;
        let base_cost = view.aggregate(&row);
        'swaps: for si in 0..selected.len() {
            let out = selected[si];
            for i in 0..m {
                if selected.contains(&i) {
                    continue;
                }
                if spent - view.prices[out] + view.prices[i] > view.budget {
                    continue;
                }
                // Rebuild the row without `out`, with `i`.
                view.empty_row(&mut trial);
                for &sj in &selected {
                    if sj != out {
                        min_into(&mut trial, row_of(sj));
                    }
                }
                min_into(&mut trial, row_of(i));
                let cost = view.aggregate(&trial);
                evaluations += 1;
                if cost < base_cost {
                    spent = spent - view.prices[out] + view.prices[i];
                    selected[si] = i;
                    std::mem::swap(&mut row, &mut trial);
                    improved = true;
                    break 'swaps;
                }
            }
        }
    }

    let best_cost = view.aggregate(&row);
    let mut best_strategy: Vec<NodeId> = selected.iter().map(|&i| view.candidates[i]).collect();
    best_strategy.sort_unstable();

    // Never report a "best" worse than what the node already has.
    let (best_cost, best_strategy) = if best_cost >= current_cost {
        (current_cost, strategy.to_vec())
    } else {
        (best_cost, best_strategy)
    };
    BestResponseOutcome {
        node: view.node,
        current_cost,
        best_cost,
        best_strategy,
        evaluations,
        optimal: false,
        bounds_hit: 0,
        rows_materialized: 0,
    }
}

#[cfg(test)]
mod tests {
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    use super::*;
    use crate::{Configuration, Evaluator};

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn opts() -> BestResponseOptions {
        BestResponseOptions::default()
    }

    /// Brute-force best response: evaluate every feasible subset through a
    /// full Evaluator re-evaluation.
    fn brute_force(spec: &GameSpec, config: &Configuration, u: NodeId) -> u64 {
        let mut eval = Evaluator::new(spec);
        let pool = spec.affordable_targets(u);
        let mut best = u64::MAX;
        for mask in 0u32..(1 << pool.len()) {
            let targets: Vec<NodeId> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &t)| t)
                .collect();
            if spec.validate_strategy(u, &targets).is_err() {
                continue;
            }
            let mut trial = config.clone();
            trial.set_strategy(spec, u, targets).unwrap();
            best = best.min(eval.node_cost(&trial, u));
        }
        best
    }

    #[test]
    fn oracle_cost_matches_evaluator_on_current_strategy() {
        // The search prices the current strategy through staged deviation
        // rows; that must equal a full evaluation.
        let spec = GameSpec::uniform(6, 2);
        for seed in 0..10 {
            let cfg = Configuration::random(&spec, seed);
            let mut eval = Evaluator::new(&spec);
            let mut engine = DistanceEngine::new(&spec, cfg.clone());
            for u in NodeId::all(6) {
                assert_eq!(
                    engine.best_response(u, &opts()).unwrap().current_cost,
                    eval.node_cost(&cfg, u),
                    "seed {seed} node {u}"
                );
            }
        }
    }

    #[test]
    fn exact_matches_brute_force_uniform() {
        let spec = GameSpec::uniform(6, 2);
        for seed in 0..10 {
            let cfg = Configuration::random(&spec, seed);
            for u in NodeId::all(6) {
                let out = exact(&spec, &cfg, u, &opts()).unwrap();
                assert!(out.optimal);
                assert_eq!(
                    out.best_cost,
                    brute_force(&spec, &cfg, u),
                    "seed {seed} node {u}"
                );
            }
        }
    }

    #[test]
    fn exact_matches_brute_force_weighted() {
        let spec = GameSpec::builder(6)
            .default_budget(3)
            .weight(0, 3, 9)
            .weight(1, 4, 5)
            .link_length(0, 1, 4)
            .link_length(2, 3, 6)
            .link_cost(0, 2, 2)
            .build()
            .unwrap();
        for seed in 0..10 {
            let cfg = Configuration::random(&spec, seed);
            for u in NodeId::all(6) {
                let out = exact(&spec, &cfg, u, &opts()).unwrap();
                assert_eq!(
                    out.best_cost,
                    brute_force(&spec, &cfg, u),
                    "seed {seed} node {u}"
                );
            }
        }
    }

    #[test]
    fn exact_matches_brute_force_max_model() {
        let spec = GameSpec::uniform(6, 2).with_cost_model(CostModel::MaxDistance);
        for seed in 0..10 {
            let cfg = Configuration::random(&spec, seed);
            for u in NodeId::all(6) {
                let out = exact(&spec, &cfg, u, &opts()).unwrap();
                assert_eq!(
                    out.best_cost,
                    brute_force(&spec, &cfg, u),
                    "seed {seed} node {u}"
                );
            }
        }
    }

    #[test]
    fn best_strategy_actually_achieves_best_cost() {
        let spec = GameSpec::uniform(7, 2);
        let cfg = Configuration::random(&spec, 3);
        let mut eval = Evaluator::new(&spec);
        for u in NodeId::all(7) {
            let out = exact(&spec, &cfg, u, &opts()).unwrap();
            let mut applied = cfg.clone();
            applied
                .set_strategy(&spec, u, out.best_strategy.clone())
                .unwrap();
            assert_eq!(eval.node_cost(&applied, u), out.best_cost);
        }
    }

    #[test]
    fn applying_best_response_makes_node_stable() {
        let spec = GameSpec::uniform(7, 2);
        let mut cfg = Configuration::random(&spec, 9);
        let u = v(3);
        let out = exact(&spec, &cfg, u, &opts()).unwrap();
        cfg.set_strategy(&spec, u, out.best_strategy).unwrap();
        let again = exact(&spec, &cfg, u, &opts()).unwrap();
        assert!(
            !again.improves(),
            "best response must be a fixpoint for the mover"
        );
        assert_eq!(again.best_cost, out.best_cost);
    }

    #[test]
    fn evaluation_limit_is_enforced() {
        let spec = GameSpec::uniform(12, 4);
        let cfg = Configuration::random(&spec, 1);
        let tight = BestResponseOptions {
            evaluation_limit: 10,
            stop_at_first_improvement: false,
        };
        let err = exact(&spec, &cfg, v(0), &tight).unwrap_err();
        assert_eq!(err, Error::SearchBudgetExceeded { limit: 10 });
    }

    #[test]
    fn first_improvement_mode_stops_early() {
        let spec = GameSpec::uniform(10, 2);
        // Disconnected node: almost anything improves.
        let mut cfg = Configuration::random(&spec, 5);
        cfg.set_strategy(&spec, v(0), vec![]).unwrap();
        let first = BestResponseOptions {
            stop_at_first_improvement: true,
            ..opts()
        };
        let out = exact(&spec, &cfg, v(0), &first).unwrap();
        assert!(out.improves());
        assert!(!out.optimal, "early exit must not claim optimality");
        let full = exact(&spec, &cfg, v(0), &opts()).unwrap();
        assert!(out.evaluations <= full.evaluations);
    }

    #[test]
    fn greedy_never_worse_than_current() {
        let spec = GameSpec::uniform(9, 3);
        for seed in 0..10 {
            let cfg = Configuration::random(&spec, seed);
            for u in NodeId::all(9) {
                let out = greedy(&spec, &cfg, u);
                assert!(out.best_cost <= out.current_cost);
                assert!(spec.validate_strategy(u, &out.best_strategy).is_ok());
            }
        }
    }

    #[test]
    fn greedy_matches_exact_on_easy_instances() {
        // k=1: greedy with swaps is exact (single link, swaps scan all).
        let spec = GameSpec::uniform(8, 1);
        for seed in 0..10 {
            let cfg = Configuration::random(&spec, seed);
            for u in NodeId::all(8) {
                let g = greedy(&spec, &cfg, u);
                let e = exact(&spec, &cfg, u, &opts()).unwrap();
                assert_eq!(g.best_cost, e.best_cost, "seed {seed} node {u}");
            }
        }
    }

    #[test]
    fn zero_budget_node_best_response_is_empty() {
        let spec = GameSpec::builder(4).budget(0, 0).build().unwrap();
        let cfg = Configuration::empty(4);
        let out = exact(&spec, &cfg, v(0), &opts()).unwrap();
        assert!(out.best_strategy.is_empty());
        assert_eq!(out.best_cost, 3 * spec.penalty());
        assert!(!out.improves());
    }

    #[test]
    fn single_node_game() {
        let spec = GameSpec::uniform(1, 1);
        let cfg = Configuration::empty(1);
        let out = exact(&spec, &cfg, v(0), &opts()).unwrap();
        assert_eq!(out.best_cost, 0);
        assert!(out.best_strategy.is_empty());
    }

    /// `count` random rows of `n` entries at width `W`: small distances,
    /// with about one entry in eight at the clamp.
    fn random_rows<W: RowWord>(rng: &mut SmallRng, count: usize, n: usize, clamp: u64) -> Vec<W> {
        (0..count * n)
            .map(|_| {
                let d = if rng.gen_range(0..8u64) == 0 {
                    clamp
                } else {
                    rng.gen_range(1..=6u64)
                };
                W::from_u64(d).unwrap()
            })
            .collect()
    }

    /// Every target but `u`, with random weights in `1..=3`.
    fn random_targets(rng: &mut SmallRng, n: usize, u: usize) -> Vec<(u32, u64)> {
        (0..n)
            .filter(|&v| v != u)
            .map(|v| (u32::try_from(v).unwrap(), rng.gen_range(1..=3u64)))
            .collect()
    }

    /// [`first_pruning`] over the exact source built from `rows` against a
    /// linear scan of the exact check `min2 >= incumbent` at each position,
    /// for every subrange and for incumbents at and beside every position's
    /// bound.
    fn assert_bisection_matches_scan<W: RowWord, A: Aggregate<W>>(
        agg: &A,
        rows: &[W],
        level: &[W],
        m: usize,
    ) {
        let n = level.len();
        let mut bounds = SuffixBounds::default();
        bounds.prepare(agg, rows, m, n);
        let counts = agg.counts(level);
        let suffixes = bounds.rows.clone();
        let incumbents: Vec<u64> = suffixes
            .chunks_exact(n)
            .map(|suffix| agg.min2(level, suffix, u64::MAX))
            .flat_map(|b| [b.saturating_sub(1), b, b.saturating_add(1)])
            .collect();
        for incumbent in incumbents {
            let pruned: Vec<bool> = suffixes
                .chunks_exact(n)
                .map(|suffix| agg.min2(level, suffix, incumbent) >= incumbent)
                .collect();
            assert!(
                pruned.windows(2).all(|w| w[0] <= w[1]),
                "the bound is monotone in the position: {pruned:?} at {incumbent}"
            );
            for lo in 0..=m {
                for hi in lo..=m {
                    let scan = (lo..hi).find(|&j| pruned[j]).unwrap_or(hi);
                    assert_eq!(
                        first_pruning(&mut bounds, agg, level, counts, lo, hi, incumbent),
                        scan,
                        "{lo}..{hi} at {incumbent}"
                    );
                }
            }
        }
    }

    fn bisection_cases<W: RowWord>() {
        let (m, u) = (13, 5);
        let mut rng = SmallRng::seed_from_u64(19);
        // Rows of one chunk count exactly; longer ones bracket.
        for (n, reps) in [(24, 6), (80, 2)] {
            for penalty in [576, 100_003] {
                let clamp = penalty.min(W::SATURATED);
                let clamp_w = W::from_u64(clamp).unwrap();
                for _ in 0..reps {
                    let rows: Vec<W> = random_rows(&mut rng, m, n, clamp);
                    // The empty strategy's row, and a level holding two links.
                    let mut level = vec![clamp_w; n];
                    assert_bisection_matches_scan(
                        &WeightedMax {
                            targets: &random_targets(&mut rng, n, u),
                            penalty,
                        },
                        &rows,
                        &level,
                        m,
                    );
                    for row in random_rows::<W>(&mut rng, 2, n, clamp).chunks_exact(n) {
                        min_into(&mut level, row);
                    }
                    for k in [1, 2, 3] {
                        for packing in [Some((k, k + k * k)), None] {
                            let agg = PlainSum {
                                u,
                                clamp: clamp_w,
                                penalty,
                                extra: penalty - clamp,
                                packing,
                            };
                            assert_bisection_matches_scan(&agg, &rows, &level, m);
                        }
                    }
                    let targets = random_targets(&mut rng, n, u);
                    assert_bisection_matches_scan(
                        &WeightedSum {
                            targets: &targets,
                            penalty,
                        },
                        &rows,
                        &level,
                        m,
                    );
                    assert_bisection_matches_scan(
                        &WeightedMax {
                            targets: &targets,
                            penalty,
                        },
                        &rows,
                        &level,
                        m,
                    );
                }
            }
        }
    }

    /// Random rows for the bracket: a level (the empty row with up to three
    /// links) and a bound row (the min of one to four candidate rows).
    fn bracket_rows<W: RowWord>(rng: &mut SmallRng, n: usize, clamp: u64) -> (Vec<W>, Vec<W>) {
        let mut level = vec![W::from_u64(clamp).unwrap(); n];
        let links = rng.gen_range(0..=3usize);
        for row in random_rows::<W>(rng, links, n, clamp).chunks_exact(n) {
            min_into(&mut level, row);
        }
        let members = rng.gen_range(1..=4usize);
        let mut bound = random_rows::<W>(rng, 1, n, clamp);
        for row in random_rows::<W>(rng, members - 1, n, clamp).chunks_exact(n) {
            min_into(&mut bound, row);
        }
        (level, bound)
    }

    /// Checks the bracketed prune check, with the bound source's fallback,
    /// against the exact `min2(L, R, u64::MAX) >= incumbent`; returns the
    /// number of checks and how many fell back to the exact count.
    fn bracket_cases<W: RowWord>() -> (u64, u64) {
        let (n, u) = (80, 7);
        let mut rng = SmallRng::seed_from_u64(31);
        let (mut checks, mut recounts) = (0u64, 0u64);
        // Below, at and above the i16 clamp 2¹⁴ − 1.
        for penalty in [576, 16_383, 100_003] {
            let clamp = penalty.min(W::SATURATED);
            let clamp_w = W::from_u64(clamp).unwrap();
            for _ in 0..8 {
                let (mut level, mut bound) = bracket_rows::<W>(&mut rng, n, clamp);
                for (x, y) in [0, 1, 2, clamp]
                    .into_iter()
                    .flat_map(|x| [0, 1, 2, clamp].map(|y| (x, y)))
                {
                    level[u] = W::from_u64(x).unwrap();
                    bound[u] = W::from_u64(y).unwrap();
                    for k in [1, 2, 3] {
                        for packing in [Some((k, k + k * k)), None] {
                            let agg = PlainSum {
                                u,
                                clamp: clamp_w,
                                penalty,
                                extra: penalty - clamp,
                                packing,
                            };
                            let (lc, bc) = (agg.counts(&level), agg.counts(&bound));
                            let exact = agg.min2(&level, &bound, u64::MAX);
                            let incumbents = [exact.saturating_sub(1), exact, exact + 1, u64::MAX];
                            for incumbent in incumbents {
                                let want = exact >= incumbent;
                                if let Some(settled) = agg.prunes(&level, lc, &bound, bc, incumbent)
                                {
                                    assert_eq!(settled, want, "settled at {incumbent}");
                                }
                                let before = recounts;
                                let got = SuffixBounds::check(
                                    &mut recounts,
                                    &agg,
                                    (&level, lc),
                                    (&bound, bc),
                                    incumbent,
                                );
                                assert_eq!(got, want, "{x}/{y} k {k} at {incumbent}");
                                assert!(packing.is_some() || recounts == before);
                                checks += 1;
                            }
                        }
                    }
                }
            }
        }
        (checks, recounts)
    }

    #[test]
    fn bracketed_prune_check_matches_the_exact_bound() {
        for (checks, recounts) in [bracket_cases::<i16>(), bracket_cases::<u64>()] {
            assert!(
                0 < recounts && recounts < checks,
                "some checks recount exactly, most do not: {recounts} of {checks}"
            );
        }
    }

    #[test]
    fn bisected_cutoff_matches_a_linear_scan() {
        bisection_cases::<i16>();
        bisection_cases::<u64>();
    }

    fn block_row_cases<W: RowWord>() {
        // Longer than one chunk, so the bound rows' counts are kept.
        let n = 72;
        let mut rng = SmallRng::seed_from_u64(23);
        for m in [1, 7, 8, 9, 16, 21] {
            let rows: Vec<W> = random_rows(&mut rng, m, n, 100);
            let agg = PlainSum {
                u: 0,
                clamp: W::from_u64(100).unwrap(),
                penalty: 100,
                extra: 0,
                packing: Some((1, 2)),
            };
            let mut bounds = SuffixBounds::default();
            bounds.prepare(&agg, &rows, m, n);
            assert_eq!(bounds.blocks.len(), m.div_ceil(BLOCK) * n, "m = {m}");
            for (rows, counts) in [
                (&bounds.rows, &bounds.row_counts),
                (&bounds.blocks, &bounds.block_counts),
            ] {
                let want: Vec<Counts> = rows.chunks_exact(n).map(W::counts).collect();
                assert_eq!(counts, &want, "m = {m}: counts kept beside the rows");
            }
            for (g, block) in bounds.blocks.chunks_exact(n).enumerate() {
                let members = &rows[g * BLOCK * n..((g + 1) * BLOCK).min(m) * n];
                for row in members.chunks_exact(n) {
                    assert!(
                        block.iter().zip(row).all(|(b, r)| b <= r),
                        "m = {m}: block row {g} above a member"
                    );
                }
                for (v, &b) in block.iter().enumerate() {
                    assert!(
                        members.chunks_exact(n).any(|row| row[v] == b),
                        "m = {m}: block row {g} below every member at {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_rows_lie_below_each_member() {
        block_row_cases::<i16>();
        block_row_cases::<u64>();
    }

    /// The exact source, checking each block skip by brute force when it
    /// happens: one more link to any member of the skipped block costs at
    /// least the incumbent of that moment. It also checks that the search
    /// passes each level's current counts.
    struct CheckedBlocks<W> {
        inner: SuffixBounds<W>,
        rows: Vec<W>,
        skips: u64,
    }

    impl<W: RowWord> BoundSource<W> for CheckedBlocks<W> {
        fn prepare<A: Aggregate<W>>(&mut self, agg: &A, rows: &[W], m: usize, n: usize) {
            self.inner.prepare(agg, rows, m, n);
            self.rows = rows[..m * n].to_vec();
        }

        fn prunes<A: Aggregate<W>>(
            &mut self,
            agg: &A,
            level: &[W],
            counts: Counts,
            i: usize,
            incumbent: u64,
        ) -> bool {
            assert_eq!(counts, agg.counts(level), "stale level counts");
            self.inner.prunes(agg, level, counts, i, incumbent)
        }

        fn block_prunes<A: Aggregate<W>>(
            &mut self,
            agg: &A,
            level: &[W],
            counts: Counts,
            g: usize,
            incumbent: u64,
        ) -> bool {
            assert_eq!(counts, agg.counts(level), "stale level counts");
            let skip = self.inner.block_prunes(agg, level, counts, g, incumbent);
            if skip {
                let n = level.len();
                for (j, row) in self
                    .rows
                    .chunks_exact(n)
                    .enumerate()
                    .skip(g * BLOCK)
                    .take(BLOCK)
                {
                    let mut leaf = level.to_vec();
                    min_into(&mut leaf, row);
                    assert!(
                        agg.row(&leaf) >= incumbent,
                        "skipped leaf {j} costs {} below the incumbent {incumbent}",
                        agg.row(&leaf)
                    );
                }
                self.skips += 1;
            }
            skip
        }
    }

    /// Runs `u`'s search over rows staged from the engine's deviation rows
    /// with [`CheckedBlocks`] as the bound source; returns the outcome and
    /// the number of blocks skipped.
    fn checked_search<W: RowWord>(
        spec: &GameSpec,
        cfg: &Configuration,
        u: NodeId,
    ) -> (BestResponseOutcome, u64) {
        let mut engine = DistanceEngine::new(spec, cfg.clone());
        let clamp: W = clamp_for(spec);
        let candidates = spec.affordable_targets(u);
        let prices: Vec<u64> = candidates.iter().map(|&c| spec.link_cost(u, c)).collect();
        let rows: Vec<W> = candidates
            .iter()
            .flat_map(|&c| engine.deviation_row(u, c).row)
            .map(|d| W::from_u64(d.min(clamp.widen())).unwrap())
            .collect();
        let n = spec.node_count();
        let targets: Vec<(u32, u64)> = NodeId::all(n)
            .filter(|&v| v != u && spec.weight(u, v) > 0)
            .map(|v| (u32::try_from(v.index()).unwrap(), spec.weight(u, v)))
            .collect();
        let view = OracleView {
            spec,
            node: u,
            candidates: &candidates,
            prices: &prices,
            weighted_targets: &targets,
            budget: spec.budget(u),
            departed: &[],
        };
        let mut bounds = CheckedBlocks {
            inner: SuffixBounds::default(),
            rows: Vec::new(),
            skips: 0,
        };
        let out = search(
            &view,
            &rows,
            cfg.strategy(u),
            &mut bounds,
            &opts(),
            &mut SearchScratch::default(),
        )
        .unwrap();
        (out, bounds.skips)
    }

    #[test]
    fn no_skipped_leaf_beats_the_incumbent() {
        let weighted = GameSpec::builder(17)
            .default_budget(3)
            .weight(0, 9, 7)
            .weight(3, 12, 4)
            .link_length(1, 2, 3)
            .link_cost(0, 5, 2)
            .link_cost(4, 11, 3)
            .build()
            .unwrap();
        let specs = [
            GameSpec::uniform(18, 1),
            GameSpec::uniform(18, 2),
            GameSpec::uniform(14, 3),
            GameSpec::uniform(18, 2).with_penalty(100_003).unwrap(),
            GameSpec::uniform(17, 2).with_cost_model(CostModel::MaxDistance),
            weighted,
        ];
        let mut skips = 0;
        for spec in &specs {
            for seed in 0..3 {
                let cfg = Configuration::random(spec, seed);
                for u in NodeId::all(spec.node_count()) {
                    let (narrow, s16) = checked_search::<i16>(spec, &cfg, u);
                    let (wide, s64) = checked_search::<u64>(spec, &cfg, u);
                    let engine = DistanceEngine::new(spec, cfg.clone())
                        .best_response(u, &opts())
                        .unwrap();
                    assert_eq!(narrow, engine, "{u}: staged i16 search vs the engine");
                    assert_eq!(wide, engine, "{u}: staged u64 search vs the engine");
                    assert_eq!(s16, s64, "{u}: both tiers skip the same blocks");
                    skips += s64;
                }
            }
        }
        assert!(skips > 0, "the brute-force check saw some skips");
    }

    #[test]
    fn nonuniform_link_costs_constrain_subsets() {
        // Node 0 can afford {1} or {2} or {3,4} (cost 2+2 > 3? no: 1+1=2 <= 3)
        // but not {1,2} (3+3=6 > 3).
        let spec = GameSpec::builder(5)
            .default_budget(3)
            .link_cost(0, 1, 3)
            .link_cost(0, 2, 3)
            .build()
            .unwrap();
        let cfg = Configuration::empty(5);
        let out = exact(&spec, &cfg, v(0), &opts()).unwrap();
        assert!(spec.strategy_cost(v(0), &out.best_strategy) <= 3);
        // Best is linking the two cheap targets 3,4 (2 reachable) over one
        // expensive target (1 reachable).
        assert_eq!(out.best_strategy, vec![v(3), v(4)]);
    }
}
