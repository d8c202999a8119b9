//! The CSR distance engine: a shared, cached shortest-path substrate.
//!
//! Every quantity this workspace measures — node costs, best responses,
//! dynamics walks, stability sweeps, equilibrium enumeration — bottoms out in
//! repeated single-source shortest-path runs over the configuration graph.
//! [`DistanceEngine`] is the one place those runs happen. It keeps:
//!
//! * a [`CsrGraph`] mirror of the bound configuration, patched **in place**
//!   when one node rewires (a best-response move rewrites one arc slab, not
//!   the graph);
//! * one store of `n` **base rows** `d_G(c, ·)`, each clamped at the
//!   engine's row width ([`RowTier`]: at `M`, or at the i16 word's
//!   saturated stand-in that every cost lifts back to `M`) and allocated on
//!   first use, plus each row's *touched set* (the nodes whose out-arcs the
//!   traversal expanded). A rewire of a node the engine has just searched
//!   refills the rows it drops from that search's staged rows; a row that
//!   any other single rewire dropped is repaired from its old values when
//!   next read. Neither is traversed again (the `row_store` module). Every
//!   distance row the engine uses comes from the store:
//!   - a search of `u` derives the deviation rows `ℓ(u,c) + d_{G∖u}(c, ·)`
//!     — the rows Lemmas 3–5 price every strategy of `u` with — straight
//!     into its stage, re-deriving from base row `c` only the vertices all
//!     of whose shortest paths run through `u` (the `row_store` module);
//!   - node costs (the [`crate::Evaluator`] substrate) aggregate base row
//!     `u`.
//!
//!   Nothing is stored per deviator, so the rows take `O(n²)` memory;
//! * a memo of full [`crate::best_response`] outcomes per node, each with a
//!   *dependency set*: the union of the touched sets of the rows its search
//!   derived. In the tail of a converging walk this turns `n − 1`
//!   confirmation tests per round into cache hits.
//!
//! A derived row's touched set is its base row's, minus `u`, minus the
//! re-derived vertices left unreachable: exactly the nodes a `G∖u`
//! traversal from `c` expands. A rewire of `m` cannot change a distance
//! whose traversal never expanded `m` (an unreached node's out-links are
//! irrelevant, and rewiring `m`'s out-links never changes whether `m`
//! itself is reached). Cache-invalidation rules, in one table:
//!
//! | cached item                  | invalidated by a rewire of `m` when    |
//! |------------------------------|----------------------------------------|
//! | base row `d_G(c,·)`          | `m` ∈ row's touched set (`m = c` always is); refilled by the rewire when the stage holds `m`'s rows and `c` (`m`'s own row always); otherwise, for `c ≠ m`, repaired on the next read unless another rewire comes first, else traversed |
//! | best-response outcome of `u` | `m = u`, or `m` ∈ its dependency set   |
//! | cost of `u`                  | base row `u` is invalidated            |
//!
//! A refilled or repaired row equals a traversal's, touched set included,
//! so the rules above do not depend on how a row was rebuilt.
//!
//! # Node churn
//!
//! The engine also tracks a **live membership**: [`DistanceEngine::remove_node`]
//! departs a peer (its links and every link *to* it are stripped, and it
//! drops out of all cost aggregates), [`DistanceEngine::add_node`] admits or
//! re-admits one. A join/leave is a sequence of ordinary strategy patches —
//! each covered by the touched-set rule above — plus a wholesale drop of the
//! membership-dependent aggregates (outcome memos, cached costs, masked
//! weighted-target lists). Base rows untouched by the patches survive, so a
//! peer that leaves and rejoins with no in-links costs no traversal at all.
//! A leave with in-links is several patches back to back, so only the rows
//! that its last patch (clearing the leaver's own links) dropped can be
//! repaired; the others are traversed when next read.
//! Under partial membership, cost aggregation masks departed targets (they
//! contribute neither distances nor disconnection penalties) and the
//! best-response search draws candidates from live nodes only. The empty
//! strategy's row holds 0 at the departed entries, so uniform games keep
//! the plain row-sum kernels under churn.
//! Every churn op canonicalizes the CSR layout, so
//! [`DistanceEngine::state_digest`] after a remove/re-add round trip is
//! byte-identical to a fresh [`DistanceEngine::with_membership`] build of
//! the same state.
//!
//! # One best-response path
//!
//! [`DistanceEngine::best_response`] stages a node's live candidates once,
//! derives every one of their rows up front, and runs the one
//! branch-and-bound search over them. Exact rows built from the staged rows
//! bound the search: suffix-min rows, bisected for each loop's cutoff, and
//! one min row per block of 8 candidates that skips whole runs of budget
//! leaves (see [`crate::best_response`]).
//!
//! Every row is filled on the calling thread, when a search or a cost first
//! reads it; [`DistanceEngine::prefill_oracle_rows`] fills the rows a set of
//! searches will read ahead of time, through the same path.

use bbc_graph::{BitSet, ConnectivityScratch, CsrGraph, RowWord, UNREACHABLE};

use crate::{
    best_response::{clamp_for, greedy_on, search, OracleView, SearchScratch, SuffixBounds},
    eval::{cost_from_distances, cost_from_distances_masked},
    row_store::{bitset_bytes, RowStore, Staged},
    BestResponseOptions, BestResponseOutcome, Configuration, Error, GameSpec, NodeId, Result,
};

/// The word width of the engine's distance rows.
///
/// Selected per spec at construction. Rows are clamped at `min(M,
/// SATURATED)` of the word ([`RowWord::SATURATED`]), and every cost reads a
/// clamped entry as `M` ([`RowWord::lift`]), so both tiers compute
/// bit-identical decisions, costs, and digests — the cross-width
/// differential suite pins this — and the tier is purely a bandwidth
/// choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RowTier {
    /// 16-bit rows clamped at `min(M, 2¹⁴ − 1)`: a quarter of the u64
    /// tier's memory traffic, and minima on the signed 16-bit vector min of
    /// every x86-64 target. Requires `n·max ℓ < 2¹⁴ − 1`, so every finite
    /// distance lies below the clamp, and `n·M` to fit `u64`.
    I16,
    /// 64-bit rows clamped at `M`: always valid.
    U64,
}

impl RowTier {
    /// The tier [`DistanceEngine::new`] picks for `spec`: [`RowTier::I16`]
    /// whenever `n·max ℓ < 2¹⁴ − 1` and the checked product `n·M` fits
    /// `u64`, else [`RowTier::U64`]. Uniform games ride the narrow tier up
    /// to n = 16,382 whatever their penalty; long links fall back.
    pub fn auto(spec: &GameSpec) -> Self {
        if Self::i16_fits(spec) {
            RowTier::I16
        } else {
            RowTier::U64
        }
    }

    /// `true` when every finite row entry of `spec` lies below the i16
    /// tier's saturated value, and every lifted row sum fits `u64`.
    fn i16_fits(spec: &GameSpec) -> bool {
        let n = spec.node_count() as u64;
        n.checked_mul(spec.max_link_length())
            .is_some_and(|span| span < <i16 as RowWord>::SATURATED)
            && n.checked_mul(spec.penalty()).is_some()
    }
}

/// One search's staged inputs: the deviating node's live candidates in
/// ascending id order, with their deviation rows derived in.
#[derive(Debug)]
struct Stage<W> {
    /// Clamped through-rows, stride `n`, one per candidate.
    rows: Vec<W>,
    candidates: Vec<NodeId>,
    /// Link prices parallel to `candidates`.
    prices: Vec<u64>,
    /// The node whose rows these are, while they match the current graph
    /// and membership: set by staging, taken by every patch, cleared by a
    /// membership change.
    node: Option<NodeId>,
}

impl<W> Default for Stage<W> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            candidates: Vec::new(),
            prices: Vec::new(),
            node: None,
        }
    }
}

/// One node's memoized best-response outcome.
#[derive(Debug)]
struct Memo {
    outcome: Option<(BestResponseOptions, BestResponseOutcome)>,
    /// The union of the touched sets of the rows the search derived.
    deps: BitSet,
}

/// Per-node cache of the weighted target list `(v, w(u,v))` over live
/// targets `v ≠ u` with positive weight, stamped with the membership version
/// it was built against.
#[derive(Clone, Debug, Default)]
struct LiveTargets {
    /// [`DistanceEngine`] membership version this list reflects (0 = never
    /// built; versions start at 1).
    version: u64,
    targets: Vec<(u32, u64)>,
}

/// Effort counters (monotone; see [`DistanceEngine::stats`]). Each base-row
/// traversal counts once, under whatever asked for it — including the
/// mover's row that a repair of another row needs, when the move did not
/// follow the mover's own search (after one, the patch refills that row
/// from the stage). Refills and repairs are not traversals;
/// [`DistanceEngine::publish_metrics`] reports them as
/// `engine/rows_repaired`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Base-row traversals run to stage a search or to prefill.
    pub oracle_rows_computed: u64,
    /// Deviation rows derived without a traversal: from a base row that
    /// was valid or was repaired in place. Computed plus hits is the number
    /// of deviation rows derived.
    pub oracle_row_hits: u64,
    /// Whole best-response outcomes served from cache.
    pub outcome_hits: u64,
    /// Best-response searches actually run.
    pub searches_run: u64,
    /// Base rows dropped by strategy patches (the touched-set rule),
    /// whether they are later repaired or traversed.
    pub rows_invalidated: u64,
    /// Strategy patches applied to the CSR mirror.
    pub patches_applied: u64,
    /// Base-row traversals run to answer a cost or distance query.
    pub eval_rows_computed: u64,
    /// Always 0. Kept for the benchmark package, which still reads it,
    /// until ROADMAP item 2(c) removes it.
    pub landmark_rows_computed: u64,
}

impl EngineStats {
    /// Publishes these counters into `reg` under `engine/`, with the
    /// derived cache hit-rate gauges (`engine/oracle_hit_rate_permille`,
    /// `engine/outcome_hit_rate_permille`) the ROADMAP's tuning work reads.
    pub fn publish_metrics(&self, reg: &mut bbc_obs::Registry) {
        reg.set_counter("engine/searches_run", self.searches_run);
        reg.set_counter("engine/outcome_hits", self.outcome_hits);
        reg.set_counter("engine/oracle_rows_computed", self.oracle_rows_computed);
        reg.set_counter("engine/oracle_row_hits", self.oracle_row_hits);
        reg.set_counter("engine/eval_rows_computed", self.eval_rows_computed);
        reg.set_counter("engine/rows_invalidated", self.rows_invalidated);
        reg.set_counter("engine/patches_applied", self.patches_applied);
        reg.set_gauge(
            "engine/oracle_hit_rate_permille",
            bbc_obs::permille(
                self.oracle_row_hits,
                self.oracle_row_hits + self.oracle_rows_computed,
            ),
        );
        reg.set_gauge(
            "engine/outcome_hit_rate_permille",
            bbc_obs::permille(self.outcome_hits, self.outcome_hits + self.searches_run),
        );
    }
}

/// One derived deviation row, as [`DistanceEngine::deviation_row`] reports
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviationRow {
    /// `ℓ(u,c) + d_{G∖u}(c, v)` per target `v`, widened to `u64`; the
    /// penalty where `v` is unreachable in `G∖u`.
    pub row: Vec<u64>,
    /// The nodes a `G∖u` traversal from `c` expands.
    pub touched: BitSet,
    /// The affected set, ascending: the nodes reached from `c` in `G` all of
    /// whose shortest paths run through `u`.
    pub affected: Vec<NodeId>,
}

/// A shared, cached, incrementally-patched shortest-path engine bound to one
/// game and tracking one configuration.
///
/// Create it once per walk/scan and thread it through every step; see the
/// module docs for what is cached and when it is invalidated.
///
/// # Examples
///
/// ```
/// use bbc_core::{BestResponseOptions, Configuration, DistanceEngine, GameSpec, NodeId};
///
/// let spec = GameSpec::uniform(6, 1);
/// let mut engine = DistanceEngine::new(&spec, Configuration::empty(6));
/// let options = BestResponseOptions::default();
/// let out = engine.best_response(NodeId::new(0), &options)?;
/// assert!(out.improves(), "a disconnected node always wants a link");
/// // Re-asking without a graph change is a cache hit.
/// let again = engine.best_response(NodeId::new(0), &options)?;
/// assert_eq!(out, again);
/// assert_eq!(engine.stats().outcome_hits, 1);
/// # Ok::<(), bbc_core::Error>(())
/// ```
#[derive(Debug)]
pub struct DistanceEngine<'a> {
    inner: EngineInner<'a>,
}

/// The tier-monomorphized engine body behind [`DistanceEngine`].
#[derive(Debug)]
enum EngineInner<'a> {
    I16(EngineCore<'a, i16>),
    U64(EngineCore<'a, u64>),
}

/// Dispatches one method body into the active tier arm. Every public
/// engine method goes through here; the bodies themselves are written once,
/// generically, in [`EngineCore`].
macro_rules! tiered {
    ($self:expr, $e:ident => $body:expr) => {
        match &$self.inner {
            EngineInner::I16($e) => $body,
            EngineInner::U64($e) => $body,
        }
    };
    (mut $self:expr, $e:ident => $body:expr) => {
        match &mut $self.inner {
            EngineInner::I16($e) => $body,
            EngineInner::U64($e) => $body,
        }
    };
}

#[derive(Debug)]
struct EngineCore<'a, W: RowWord> {
    spec: &'a GameSpec,
    config: Configuration,
    csr: CsrGraph,
    /// The row clamp `min(M, W::SATURATED)` every row is filled against;
    /// an entry equal to it means "unreachable" and costs `M`.
    clamp: W,
    store: RowStore<W>,
    /// [`DistanceEngine::distances_from`]'s raw `u64` view of one base row
    /// ([`UNREACHABLE`] for the penalty): the public contract is
    /// width-independent.
    raw: Vec<u64>,
    conn: ConnectivityScratch,
    memos: Vec<Memo>,
    /// The dependency set of the search in progress.
    deps: BitSet,
    eval_costs: Vec<Option<u64>>,
    stage: Stage<W>,
    search_scratch: SearchScratch<W>,
    /// The search's bound source.
    suffix: SuffixBounds<W>,
    link_scratch: Vec<(u32, u64)>,
    /// Live membership: departed nodes keep their id (and spec row) but
    /// hold no links, receive none, and drop out of every cost aggregate.
    live: BitSet,
    live_count: usize,
    /// The nodes outside `live`, ascending: the rows a search starts from
    /// hold 0 at their entries.
    departed: Vec<u32>,
    /// Bumped by every join/leave; masked caches carry the version they
    /// were built against.
    membership_version: u64,
    live_targets: Vec<LiveTargets>,
    stats: EngineStats,
}

impl<'a> DistanceEngine<'a> {
    /// Creates an engine for `spec`, bound to `config`, with every node a
    /// live member. The row tier is chosen automatically
    /// ([`RowTier::auto`]); use [`DistanceEngine::with_tier`] to force one.
    ///
    /// # Panics
    ///
    /// Panics if `config`'s node count differs from the spec's.
    pub fn new(spec: &'a GameSpec, config: Configuration) -> Self {
        Self::with_tier(spec, config, RowTier::auto(spec))
            // bbc-lint: allow(panic, RowTier::auto picks u64 whenever i16 does not fit, and the u64 tier never errs)
            .expect("the automatic tier always fits the spec")
    }

    /// Creates an engine on an explicit row tier (full membership).
    ///
    /// # Errors
    ///
    /// [`Error::RowTierOverflow`] when `tier` is [`RowTier::I16`] and the
    /// spec does not fit it (`n·max ℓ ≥ 2¹⁴ − 1`, or `n·M` beyond `u64`) —
    /// a finite distance could reach the clamp, so the engine refuses
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if `config`'s node count differs from the spec's.
    pub fn with_tier(spec: &'a GameSpec, config: Configuration, tier: RowTier) -> Result<Self> {
        let n = spec.node_count();
        let mut all = BitSet::new(n);
        for v in 0..n {
            all.insert(v);
        }
        Self::with_membership_tier(spec, config, &all, tier)
    }

    /// Creates an engine for `spec` bound to `config` with only the nodes
    /// in `live` as members — the fresh-build counterpart of a sequence of
    /// [`DistanceEngine::remove_node`] / [`DistanceEngine::add_node`] calls,
    /// and the reference state of the churn determinism contract (a
    /// remove/re-add round trip is byte-identical to this constructor; see
    /// [`DistanceEngine::state_digest`]). The row tier is chosen
    /// automatically.
    ///
    /// # Errors
    ///
    /// - [`Error::NodeOutOfBounds`] if `live` names a node outside the game;
    /// - [`Error::NodeNotLive`] if a departed node still holds links;
    /// - [`Error::TargetNotLive`] if a live node links to a departed one.
    ///
    /// # Panics
    ///
    /// Panics if `config`'s node count differs from the spec's.
    pub fn with_membership(
        spec: &'a GameSpec,
        config: Configuration,
        live: &BitSet,
    ) -> Result<Self> {
        Self::with_membership_tier(spec, config, live, RowTier::auto(spec))
    }

    /// [`DistanceEngine::with_membership`] on an explicit row tier.
    ///
    /// # Errors
    ///
    /// As [`DistanceEngine::with_membership`], plus
    /// [`Error::RowTierOverflow`] when the forced tier cannot represent the
    /// spec (see [`DistanceEngine::with_tier`]).
    ///
    /// # Panics
    ///
    /// Panics if `config`'s node count differs from the spec's.
    pub fn with_membership_tier(
        spec: &'a GameSpec,
        config: Configuration,
        live: &BitSet,
        tier: RowTier,
    ) -> Result<Self> {
        let inner = match tier {
            RowTier::I16 => {
                if !RowTier::i16_fits(spec) {
                    return Err(Error::RowTierOverflow {
                        n: spec.node_count(),
                        max_length: spec.max_link_length(),
                        penalty: spec.penalty(),
                    });
                }
                EngineInner::I16(EngineCore::with_membership(spec, config, live)?)
            }
            RowTier::U64 => EngineInner::U64(EngineCore::with_membership(spec, config, live)?),
        };
        Ok(Self { inner })
    }

    /// The row tier this engine runs on.
    pub fn row_tier(&self) -> RowTier {
        match &self.inner {
            EngineInner::I16(_) => RowTier::I16,
            EngineInner::U64(_) => RowTier::U64,
        }
    }

    /// The game this engine serves.
    pub fn spec(&self) -> &'a GameSpec {
        tiered!(self, e => e.spec)
    }

    /// The configuration the engine is currently synced to.
    pub fn config(&self) -> &Configuration {
        tiered!(self, e => &e.config)
    }

    /// Consumes the engine, returning the bound configuration without
    /// copying it.
    pub fn into_config(self) -> Configuration {
        match self.inner {
            EngineInner::I16(e) => e.config,
            EngineInner::U64(e) => e.config,
        }
    }

    /// Cache counters accumulated since construction.
    pub fn stats(&self) -> EngineStats {
        tiered!(self, e => e.stats)
    }

    /// Publishes the engine's effort counters into a metrics registry
    /// (names under `engine/`), plus `engine/rows_repaired` (base rows
    /// refilled or repaired in place after a patch instead of traversed
    /// again),
    /// `engine/bound_recounts` (prune checks whose packing correction the
    /// row counts could not bracket, so the search counted it exactly),
    /// derived gauges for the oracle-row hit rate and the best-response
    /// outcome-memo hit rate, both in permille, and the bytes each
    /// structure holds, by capacity:
    ///
    /// - `engine/row_store_bytes`: base rows, their touched sets, the
    ///   latest patch's record (pending rows and the mover's old arcs) and
    ///   the reverse adjacency;
    /// - `engine/stage_bytes`: the search stage, its bound rows and the
    ///   search levels;
    /// - `engine/memo_bytes`: outcome memos with their dependency sets, and
    ///   the per-node weighted target lists.
    ///
    /// Observational only — reads counters and capacities and touches no
    /// engine state, so digests and decisions are unaffected.
    pub fn publish_metrics(&self, reg: &mut bbc_obs::Registry) {
        self.stats().publish_metrics(reg);
        reg.set_counter(
            "engine/rows_repaired",
            tiered!(self, e => e.store.repaired()),
        );
        reg.set_counter(
            "engine/bound_recounts",
            tiered!(self, e => e.suffix.recounts()),
        );
        let [rows, stage, memo] = tiered!(self, e => e.memory());
        reg.set_gauge("engine/row_store_bytes", rows);
        reg.set_gauge("engine/stage_bytes", stage);
        reg.set_gauge("engine/memo_bytes", memo);
    }

    /// Rewires one node's strategy, patching the CSR mirror in place and
    /// invalidating exactly the cached rows whose traversal touched `u`.
    /// When the engine's latest staging was a search of `u` on the current
    /// graph, the patch refills `u`'s row, and each dropped row that search
    /// staged, from the staged rows. Any other dropped row except `u`'s own
    /// is repaired when next read, unless another patch comes first.
    ///
    /// # Errors
    ///
    /// Returns the strategy-validation failure (see
    /// [`GameSpec::validate_strategy`]), [`Error::NodeNotLive`] when `u` has
    /// departed, or [`Error::TargetNotLive`] when some target has — all
    /// without modifying any state.
    pub fn apply_strategy(&mut self, u: NodeId, targets: Vec<NodeId>) -> Result<()> {
        tiered!(mut self, e => e.apply_strategy(u, targets))
    }

    /// Re-syncs the engine to an arbitrary configuration by diffing against
    /// the bound one: only nodes whose strategy differs are patched and
    /// invalidated, so stepping an enumeration odometer costs one patch.
    ///
    /// # Panics
    ///
    /// Panics under partial membership — configurations carry no membership,
    /// so a diff-sync is only meaningful when every node is live.
    pub fn sync_to(&mut self, config: &Configuration) {
        tiered!(mut self, e => e.sync_to(config))
    }

    /// Exact best response for `u` under the bound configuration, served
    /// from the outcome memo when nothing it depends on has changed.
    ///
    /// The same outcome as [`crate::best_response::exact`] on the same
    /// configuration for either row tier, `evaluations` included (the
    /// differential suite enforces it).
    ///
    /// # Errors
    ///
    /// [`crate::Error::SearchBudgetExceeded`] once the search evaluates more
    /// than `options.evaluation_limit` strategies, or
    /// [`crate::Error::NodeNotLive`] when `u` has departed.
    pub fn best_response(
        &mut self,
        u: NodeId,
        options: &BestResponseOptions,
    ) -> Result<BestResponseOutcome> {
        tiered!(mut self, e => e.best_response(u, options))
    }

    /// Greedy-plus-swaps heuristic best response for `u` (see
    /// [`crate::best_response::greedy`]) over rows derived from the store.
    pub(crate) fn greedy(&mut self, u: NodeId) -> BestResponseOutcome {
        tiered!(mut self, e => e.greedy(u))
    }

    /// The deviation row a search of `u` stages for candidate `c`, derived
    /// from the shared base row of `c` (filled first when invalid, and
    /// counted like a staged row). A diagnostics hook: the differential
    /// suite checks every derived row against a `G∖u` traversal.
    ///
    /// # Panics
    ///
    /// Panics if `u == c`, or if either node has departed.
    pub fn deviation_row(&mut self, u: NodeId, c: NodeId) -> DeviationRow {
        tiered!(mut self, e => e.deviation_row(u, c))
    }

    /// Cost of node `u` under the bound configuration (cached per node).
    /// A departed node costs 0 — it plays no strategy and owes no
    /// distances (see the churn rules in the module docs).
    pub fn node_cost(&mut self, u: NodeId) -> u64 {
        tiered!(mut self, e => e.node_cost(u))
    }

    /// Costs of every node under the bound configuration.
    pub fn node_costs(&mut self) -> Vec<u64> {
        tiered!(mut self, e => e.node_costs())
    }

    /// Social cost (sum of node costs) of the bound configuration.
    pub fn social_cost(&mut self) -> u64 {
        tiered!(mut self, e => e.social_cost())
    }

    /// Shortest-path distances from `u` in the bound configuration's graph
    /// (read from base row `u`; unreachable targets hold
    /// [`bbc_graph::UNREACHABLE`]). Always raw `u64`, whatever the row tier.
    ///
    /// # Panics
    ///
    /// Panics when `u` has departed — a dead node has no distances.
    pub fn distances_from(&mut self, u: NodeId) -> &[u64] {
        tiered!(mut self, e => e.distances_from(u))
    }

    /// `true` iff the bound configuration's graph, restricted to the live
    /// membership, is strongly connected (allocation-free after warm-up).
    pub fn is_strongly_connected(&mut self) -> bool {
        tiered!(mut self, e => e.is_strongly_connected())
    }

    /// Number of ordered live pairs `(u, v)` with positive preference
    /// weight and `v` unreachable from `u` — the disconnection-penalty
    /// exposure of the bound configuration (each counted pair is priced at
    /// `w(u,v)·M` in `u`'s cost; zero-weight pairs cost nothing and play
    /// has no incentive to connect them, so they are not exposure).
    pub fn disconnected_live_pairs(&mut self) -> u64 {
        tiered!(mut self, e => e.disconnected_live_pairs())
    }

    /// Fills the invalid base rows that the live candidates of `nodes`
    /// need, in ascending source order on the calling thread, and returns
    /// the number of traversals run; rows the latest patch alone dropped
    /// are repaired instead. Searches of `nodes` then derive every row
    /// without a traversal.
    ///
    /// `_threads` does nothing. It stays for the benchmark package, which
    /// still passes it, until ROADMAP item 2(c) removes it.
    pub fn prefill_oracle_rows(&mut self, nodes: &[NodeId], _threads: usize) -> usize {
        tiered!(mut self, e => e.prefill_oracle_rows(nodes))
    }

    /// `true` iff `u` is currently a live member.
    #[inline]
    pub fn is_live(&self, u: NodeId) -> bool {
        tiered!(self, e => e.live.contains(u.index()))
    }

    /// Number of live members.
    #[inline]
    pub fn live_count(&self) -> usize {
        tiered!(self, e => e.live_count)
    }

    /// Live members in ascending id order.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        tiered!(self, e => e.live.iter().map(NodeId::new))
    }

    /// The live membership as a bitset (the exact value a fresh
    /// [`DistanceEngine::with_membership`] build of this state takes).
    pub fn live_set(&self) -> &BitSet {
        tiered!(self, e => &e.live)
    }

    /// Departs node `u`: strips every live node's link to `u`, clears `u`'s
    /// own links, retires its CSR slab, and drops it from every cost
    /// aggregate. `u`'s id stays valid and can rejoin via
    /// [`DistanceEngine::add_node`].
    ///
    /// Invalidation is incremental: each in-link strip and the self-clear
    /// go through the standard touched-set rule, so base rows whose
    /// traversals met none of the patched nodes survive; only the
    /// membership-dependent aggregates (outcome memos, costs, masked target
    /// lists) are dropped wholesale — membership is a term in every one of
    /// them. When `u` has no in-links, no other node's base row reaches it,
    /// so a brief leave/rejoin keeps every row `u`'s search needs.
    ///
    /// # Errors
    ///
    /// [`Error::NodeOutOfBounds`] or [`Error::NodeNotLive`]; no state
    /// changes on error.
    pub fn remove_node(&mut self, u: NodeId) -> Result<()> {
        tiered!(mut self, e => e.remove_node(u))
    }

    /// (Re)admits node `u` with the given strategy. Targets must be live;
    /// in-links form later through the other players' best responses, just
    /// as in a real overlay join.
    ///
    /// # Errors
    ///
    /// [`Error::NodeOutOfBounds`], [`Error::NodeAlreadyLive`],
    /// [`Error::TargetNotLive`], or the strategy-validation failure; no
    /// state changes on error.
    pub fn add_node(&mut self, u: NodeId, targets: Vec<NodeId>) -> Result<()> {
        tiered!(mut self, e => e.add_node(u, targets))
    }

    /// FNV-1a digest of the engine's observable state: live membership,
    /// every strategy, and the physical CSR arenas.
    ///
    /// The churn determinism contract (pinned by the round-trip tests):
    /// after any sequence of [`DistanceEngine::remove_node`] /
    /// [`DistanceEngine::add_node`] calls, the digest equals that of a
    /// fresh [`DistanceEngine::with_membership`] over the same
    /// configuration and membership — caches are warm vs cold, but the
    /// state they describe is byte-identical. The digest hashes no row
    /// data (nor the reverse adjacency derived from the CSR), and rows
    /// agree across tiers anyway, so it is also row-tier independent.
    pub fn state_digest(&self) -> u64 {
        tiered!(self, e => e.state_digest())
    }

    /// Compacts the CSR arenas to the canonical layout a fresh
    /// [`DistanceEngine::with_membership`] build would produce — the
    /// snapshot hook: [`DistanceEngine::state_digest`] hashes the physical
    /// arenas, which strategy patches leave history-dependent, so a
    /// serialized `(configuration, membership)` pair can only certify the
    /// digest of a *canonicalized* engine. Costs one arena rebuild plus the
    /// same cache drops as a membership change; observable game state
    /// (membership, strategies, costs) is untouched.
    pub fn canonicalize(&mut self) {
        tiered!(mut self, e => e.canonicalize())
    }
}

/// The borrows one search's row derivations need: every deviation row of
/// `u` it stages is derived here.
struct Deriver<'e, W> {
    store: &'e mut RowStore<W>,
    csr: &'e CsrGraph,
    spec: &'e GameSpec,
    stats: &'e mut EngineStats,
    /// The dependency set being collected, when the search is memoized.
    deps: Option<&'e mut BitSet>,
    u: NodeId,
}

impl<W: RowWord> Deriver<'_, W> {
    /// Derives `u`'s deviation row through `c` into `dst`, counting its
    /// base row as computed or hit, and adds the row's touched set to the
    /// dependency set.
    fn derive(&mut self, c: NodeId, dst: &mut [W]) {
        let offset = W::from_u64(self.spec.link_length(self.u, c))
            // bbc-lint: allow(panic, link lengths are below the clamp, which the tier check proved representable)
            .expect("link length is below the clamp, which fits the tier");
        if self
            .store
            .derive(self.csr, self.u.index(), c.index(), offset, dst)
        {
            self.stats.oracle_rows_computed += 1;
        } else {
            self.stats.oracle_row_hits += 1;
        }
        if let Some(deps) = self.deps.as_deref_mut() {
            deps.union_with(self.store.derived_touched());
        }
    }
}

impl<'a, W: RowWord> EngineCore<'a, W> {
    fn with_membership(spec: &'a GameSpec, config: Configuration, live: &BitSet) -> Result<Self> {
        let n = spec.node_count();
        assert_eq!(config.node_count(), n, "configuration size mismatch");
        let mut members = BitSet::new(n);
        for v in live.iter() {
            if v >= n {
                return Err(Error::NodeOutOfBounds {
                    node: NodeId::new(v),
                    n,
                });
            }
            members.insert(v);
        }
        let live_count = members.len();
        for u in NodeId::all(n) {
            if !members.contains(u.index()) {
                if !config.strategy(u).is_empty() {
                    return Err(Error::NodeNotLive { node: u });
                }
                continue;
            }
            for &t in config.strategy(u) {
                if !members.contains(t.index()) {
                    return Err(Error::TargetNotLive { node: u, target: t });
                }
            }
        }
        let mut csr = CsrGraph::new(n);
        let mut link_scratch = Vec::new();
        for u in NodeId::all(n) {
            fill_links(spec, u, config.strategy(u), &mut link_scratch);
            csr.set_out_links(u.index(), &link_scratch);
        }
        let clamp = clamp_for(spec);
        let departed = departed_nodes(&members);
        Ok(Self {
            spec,
            config,
            csr,
            clamp,
            store: RowStore::new(n, spec.has_unit_lengths(), clamp),
            raw: Vec::new(),
            conn: ConnectivityScratch::new(),
            memos: (0..n)
                .map(|_| Memo {
                    outcome: None,
                    deps: BitSet::new(n),
                })
                .collect(),
            deps: BitSet::new(n),
            eval_costs: vec![None; n],
            stage: Stage::default(),
            search_scratch: SearchScratch::default(),
            suffix: SuffixBounds::default(),
            link_scratch,
            live: members,
            live_count,
            departed,
            membership_version: 1,
            live_targets: vec![LiveTargets::default(); n],
            stats: EngineStats::default(),
        })
    }

    fn apply_strategy(&mut self, u: NodeId, targets: Vec<NodeId>) -> Result<()> {
        if self.live_count < self.spec.node_count() {
            if !self.live.contains(u.index()) {
                return Err(Error::NodeNotLive { node: u });
            }
            for &t in &targets {
                if !self.live.contains(t.index()) {
                    return Err(Error::TargetNotLive { node: u, target: t });
                }
            }
        }
        self.config.set_strategy(self.spec, u, targets)?;
        fill_links(
            self.spec,
            u,
            self.config.strategy(u),
            &mut self.link_scratch,
        );
        let stage = (self.stage.node.take() == Some(u)).then_some(Staged {
            candidates: &self.stage.candidates,
            rows: &self.stage.rows,
        });
        let (costs, stats) = (&mut self.eval_costs, &mut self.stats);
        self.store
            .patch(&mut self.csr, u.index(), &self.link_scratch, stage, |c| {
                stats.rows_invalidated += 1;
                costs[c] = None;
            });
        self.stats.patches_applied += 1;
        self.invalidate_after_move(u.index());
        Ok(())
    }

    fn sync_to(&mut self, config: &Configuration) {
        assert_eq!(
            self.live_count,
            self.config.node_count(),
            "sync_to requires full membership"
        );
        assert_eq!(
            config.node_count(),
            self.config.node_count(),
            "configuration size mismatch"
        );
        for u in NodeId::all(self.config.node_count()) {
            if self.config.strategy(u) != config.strategy(u) {
                self.apply_strategy(u, config.strategy(u).to_vec())
                    // bbc-lint: allow(panic, the synced configuration came from a sibling engine that already validated it)
                    .expect("synced configuration holds valid strategies");
            }
        }
    }

    /// The memo side of a patch of `moved`; the row store has already
    /// dropped the rows the patch invalidated.
    fn invalidate_after_move(&mut self, moved: usize) {
        for (u, memo) in self.memos.iter_mut().enumerate() {
            // The mover's own strategy (hence its current cost) changed.
            if u == moved || memo.deps.contains(moved) {
                memo.outcome = None;
            }
        }
    }

    /// Stages `u`'s live affordable candidates in ascending id order and
    /// derives each one's deviation row, adding its touched set to the
    /// search's dependency set when `collect_deps` is set.
    fn stage(&mut self, u: NodeId, collect_deps: bool) {
        let n = self.spec.node_count();
        self.ensure_live_targets(u);
        let stage = &mut self.stage;
        stage.candidates.clear();
        stage.prices.clear();
        for (c, price) in live_candidates(self.spec, &self.live, u) {
            stage.candidates.push(c);
            stage.prices.push(price);
        }
        // Each row is overwritten whole by its derivation.
        stage.rows.resize(stage.candidates.len() * n, self.clamp);
        let mut deriver = Deriver {
            store: &mut self.store,
            csr: &self.csr,
            spec: self.spec,
            stats: &mut self.stats,
            deps: collect_deps.then_some(&mut self.deps),
            u,
        };
        for (&c, row) in stage.candidates.iter().zip(stage.rows.chunks_exact_mut(n)) {
            deriver.derive(c, row);
        }
        stage.node = Some(u);
    }

    fn best_response(
        &mut self,
        u: NodeId,
        options: &BestResponseOptions,
    ) -> Result<BestResponseOutcome> {
        if !self.live.contains(u.index()) {
            return Err(Error::NodeNotLive { node: u });
        }
        if let Some((cached_options, outcome)) = &self.memos[u.index()].outcome {
            if cached_options == options {
                self.stats.outcome_hits += 1;
                return Ok(outcome.clone());
            }
        }
        // The dependency set is collected aside and committed with the
        // outcome, so a search that fails leaves any older memo intact.
        self.deps.clear();
        self.stage(u, true);
        let view = OracleView {
            spec: self.spec,
            node: u,
            candidates: &self.stage.candidates,
            prices: &self.stage.prices,
            weighted_targets: &self.live_targets[u.index()].targets,
            budget: self.spec.budget(u),
            departed: &self.departed,
        };
        let outcome = search(
            &view,
            &self.stage.rows,
            self.config.strategy(u),
            &mut self.suffix,
            options,
            &mut self.search_scratch,
        )?;
        self.stats.searches_run += 1;
        let memo = &mut self.memos[u.index()];
        memo.outcome = Some((*options, outcome.clone()));
        std::mem::swap(&mut memo.deps, &mut self.deps);
        Ok(outcome)
    }

    /// Greedy heuristic best response for `u` over its fully staged rows.
    fn greedy(&mut self, u: NodeId) -> BestResponseOutcome {
        self.stage(u, false);
        let view = OracleView {
            spec: self.spec,
            node: u,
            candidates: &self.stage.candidates,
            prices: &self.stage.prices,
            weighted_targets: &self.live_targets[u.index()].targets,
            budget: self.spec.budget(u),
            departed: &self.departed,
        };
        greedy_on(&view, &self.stage.rows, self.config.strategy(u))
    }

    fn deviation_row(&mut self, u: NodeId, c: NodeId) -> DeviationRow {
        assert!(
            u != c && self.live.contains(u.index()) && self.live.contains(c.index()),
            "deviation_row({u}, {c}) needs two distinct live nodes"
        );
        let mut row = vec![self.clamp; self.spec.node_count()];
        Deriver {
            store: &mut self.store,
            csr: &self.csr,
            spec: self.spec,
            stats: &mut self.stats,
            deps: None,
            u,
        }
        .derive(c, &mut row);
        let mut affected: Vec<NodeId> = self.store.affected().map(NodeId::new).collect();
        affected.sort_unstable();
        let m = self.spec.penalty();
        DeviationRow {
            row: row.iter().map(|d| d.lift(m)).collect(),
            touched: self.store.derived_touched().clone(),
            affected,
        }
    }

    /// Rebuilds `u`'s weighted target list when the membership changed
    /// since it was last built.
    fn ensure_live_targets(&mut self, u: NodeId) {
        let mt = &mut self.live_targets[u.index()];
        if mt.version == self.membership_version {
            return;
        }
        mt.targets.clear();
        for v in self.live.iter().map(NodeId::new) {
            if v == u {
                continue;
            }
            let w = self.spec.weight(u, v);
            if w > 0 {
                // bbc-lint: allow(narrowing-cast, node ids are < n <= u32::MAX per GameSpec validation)
                mt.targets.push((v.index() as u32, w));
            }
        }
        mt.version = self.membership_version;
    }

    /// Cost of node `u` under the bound configuration (cached per node),
    /// aggregated from base row `u`. A departed node costs 0 — it plays no
    /// strategy and owes no distances (see the churn rules in the module
    /// docs).
    fn node_cost(&mut self, u: NodeId) -> u64 {
        if !self.live.contains(u.index()) {
            return 0;
        }
        if let Some(cost) = self.eval_costs[u.index()] {
            return cost;
        }
        if self.store.ensure(&self.csr, u.index()) {
            self.stats.eval_rows_computed += 1;
        }
        // Unreachable entries hold the clamp, which the cost lifts to the
        // penalty.
        let row = self.store.row(u.index());
        let cost = if self.live_count == self.spec.node_count() {
            cost_from_distances(self.spec, u, row)
        } else {
            cost_from_distances_masked(self.spec, u, row, &self.live)
        };
        self.eval_costs[u.index()] = Some(cost);
        cost
    }

    fn node_costs(&mut self) -> Vec<u64> {
        NodeId::all(self.spec.node_count())
            .map(|u| self.node_cost(u))
            .collect()
    }

    fn social_cost(&mut self) -> u64 {
        self.node_costs().iter().sum()
    }

    fn distances_from(&mut self, u: NodeId) -> &[u64] {
        assert!(
            self.live.contains(u.index()),
            "distances_from({u}): node is not a live member"
        );
        self.node_cost(u);
        let clamp = self.clamp;
        self.raw.clear();
        self.raw.extend(self.store.row(u.index()).iter().map(|&d| {
            if d == clamp {
                UNREACHABLE
            } else {
                d.widen()
            }
        }));
        &self.raw
    }

    fn is_strongly_connected(&mut self) -> bool {
        if self.live_count == self.spec.node_count() {
            self.conn.is_strongly_connected(&self.csr)
        } else {
            self.conn
                .is_strongly_connected_among(&self.csr, Some(&self.live))
        }
    }

    fn disconnected_live_pairs(&mut self) -> u64 {
        let live: Vec<usize> = self.live.iter().collect();
        let mut total = 0u64;
        for &u in &live {
            self.node_cost(NodeId::new(u));
            let row = self.store.row(u);
            for &v in &live {
                if v != u
                    && row[v] == self.clamp
                    && self.spec.weight(NodeId::new(u), NodeId::new(v)) > 0
                {
                    total += 1;
                }
            }
        }
        total
    }

    fn prefill_oracle_rows(&mut self, nodes: &[NodeId]) -> usize {
        let mut needed = BitSet::new(self.spec.node_count());
        for &u in nodes.iter().filter(|u| self.live.contains(u.index())) {
            for (c, _) in live_candidates(self.spec, &self.live, u) {
                needed.insert(c.index());
            }
        }
        let computed = needed
            .iter()
            .filter(|&c| self.store.ensure(&self.csr, c))
            .count();
        self.stats.oracle_rows_computed += computed as u64;
        computed
    }

    /// Bytes held, by capacity: `[row store, stage, memos]` (see
    /// [`DistanceEngine::publish_metrics`]).
    fn memory(&self) -> [u64; 3] {
        let stage = self.stage.rows.capacity() * size_of::<W>()
            + self.stage.candidates.capacity() * size_of::<NodeId>()
            + self.stage.prices.capacity() * size_of::<u64>()
            + self.suffix.heap_bytes()
            + self.search_scratch.heap_bytes();
        let memo = self.memos.capacity() * size_of::<Memo>()
            + bitset_bytes(&self.deps)
            + self
                .memos
                .iter()
                .map(|m| {
                    bitset_bytes(&m.deps)
                        + m.outcome.as_ref().map_or(0, |(_, out)| {
                            out.best_strategy.capacity() * size_of::<NodeId>()
                        })
                })
                .sum::<usize>()
            + self.live_targets.capacity() * size_of::<LiveTargets>()
            + self
                .live_targets
                .iter()
                .map(|t| t.targets.capacity() * size_of::<(u32, u64)>())
                .sum::<usize>();
        [self.store.heap_bytes(), stage, memo].map(|b| b as u64)
    }

    // ----- node lifecycle (churn) ------------------------------------

    fn remove_node(&mut self, u: NodeId) -> Result<()> {
        let n = self.spec.node_count();
        if u.index() >= n {
            return Err(Error::NodeOutOfBounds { node: u, n });
        }
        if !self.live.contains(u.index()) {
            return Err(Error::NodeNotLive { node: u });
        }
        for w in NodeId::all(n) {
            if w == u || !self.live.contains(w.index()) {
                continue;
            }
            if self.config.strategy(w).contains(&u) {
                let stripped: Vec<NodeId> = self
                    .config
                    .strategy(w)
                    .iter()
                    .copied()
                    .filter(|&t| t != u)
                    .collect();
                self.apply_strategy(w, stripped)
                    // bbc-lint: allow(panic, removing a target from a valid strategy cannot violate budget or liveness)
                    .expect("dropping a target keeps a strategy valid");
            }
        }
        self.apply_strategy(u, Vec::new())
            // bbc-lint: allow(panic, the empty strategy is trivially valid for any live node)
            .expect("the empty strategy is always valid");
        self.live.remove(u.index());
        self.live_count -= 1;
        self.csr.remove_node(u.index());
        self.after_membership_change();
        Ok(())
    }

    fn add_node(&mut self, u: NodeId, targets: Vec<NodeId>) -> Result<()> {
        let n = self.spec.node_count();
        if u.index() >= n {
            return Err(Error::NodeOutOfBounds { node: u, n });
        }
        if self.live.contains(u.index()) {
            return Err(Error::NodeAlreadyLive { node: u });
        }
        self.spec.validate_strategy(u, &targets)?;
        for &t in &targets {
            if !self.live.contains(t.index()) {
                return Err(Error::TargetNotLive { node: u, target: t });
            }
        }
        self.live.insert(u.index());
        self.live_count += 1;
        self.apply_strategy(u, targets)
            // bbc-lint: allow(panic, the loop above checked every target live, and the spec validated the strategy)
            .expect("strategy pre-validated against spec and membership");
        self.after_membership_change();
        Ok(())
    }

    /// Post-join/leave bookkeeping: canonicalize the CSR layout (so the
    /// physical state is history-independent — the determinism contract of
    /// [`DistanceEngine::state_digest`]), bump the membership version, and
    /// drop every membership-dependent aggregate, the stage's claim to
    /// hold some node's current rows included. Base rows are *not*
    /// dropped here; the touched-set invalidations of the patches that led
    /// here already covered them.
    fn after_membership_change(&mut self) {
        self.stage.node = None;
        self.membership_version += 1;
        self.departed = departed_nodes(&self.live);
        self.csr.rebuild_canonical();
        for memo in &mut self.memos {
            memo.outcome = None;
        }
        self.eval_costs.fill(None);
    }

    fn canonicalize(&mut self) {
        // A membership change already is "canonicalize + drop dependent
        // aggregates"; reuse it wholesale so warm-vs-cold byte-identity
        // keeps being pinned by one code path.
        self.after_membership_change();
    }

    fn state_digest(&self) -> u64 {
        let mut h = bbc_graph::digest::Fnv1a::new();
        h.write_u64(self.live_count as u64);
        for v in self.live.iter() {
            h.write_u64(v as u64);
        }
        for u in NodeId::all(self.spec.node_count()) {
            let s = self.config.strategy(u);
            h.write_u64(s.len() as u64);
            for &t in s {
                h.write_u64(t.index() as u64);
            }
        }
        h.write_u64(self.csr.arena_digest());
        h.finish()
    }
}

/// `u`'s candidate targets with their link prices, ascending by id: the
/// live nodes other than `u` that its budget affords. A departed peer is
/// neither a purchasable target nor a relay in any priced strategy.
fn live_candidates<'s>(
    spec: &'s GameSpec,
    live: &'s BitSet,
    u: NodeId,
) -> impl Iterator<Item = (NodeId, u64)> + 's {
    let budget = spec.budget(u);
    live.iter()
        .map(NodeId::new)
        .filter(move |&c| c != u)
        .map(move |c| (c, spec.link_cost(u, c)))
        .filter(move |&(_, price)| price <= budget)
}

/// The nodes outside `live`, ascending.
fn departed_nodes(live: &BitSet) -> Vec<u32> {
    (0..live.capacity())
        .filter(|&v| !live.contains(v))
        // bbc-lint: allow(narrowing-cast, node ids are < n <= u32::MAX per GameSpec validation)
        .map(|v| v as u32)
        .collect()
}

/// Assembles `(target, length)` pairs for one node's strategy.
fn fill_links(spec: &GameSpec, u: NodeId, targets: &[NodeId], out: &mut Vec<(u32, u64)>) {
    out.clear();
    out.extend(
        targets
            .iter()
            // bbc-lint: allow(narrowing-cast, node ids are < n <= u32::MAX per GameSpec validation)
            .map(|&v| (v.index() as u32, spec.link_length(u, v))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{best_response, CostModel};

    fn opts() -> BestResponseOptions {
        BestResponseOptions::default()
    }

    #[test]
    fn engine_best_response_matches_one_shot() {
        let spec = GameSpec::uniform(8, 2);
        for seed in 0..5 {
            let cfg = Configuration::random(&spec, seed);
            let mut engine = DistanceEngine::new(&spec, cfg.clone());
            for u in NodeId::all(8) {
                assert_eq!(
                    engine.best_response(u, &opts()).unwrap(),
                    best_response::exact(&spec, &cfg, u, &opts()).unwrap(),
                    "seed {seed} node {u}"
                );
            }
        }
    }

    #[test]
    fn engine_stays_correct_across_moves() {
        let spec = GameSpec::uniform(7, 2);
        let mut cfg = Configuration::random(&spec, 3);
        let mut engine = DistanceEngine::new(&spec, cfg.clone());
        // Interleave queries and moves; every post-move answer must match a
        // from-scratch computation.
        for step in 0..30u64 {
            let mover = NodeId::new((step % 7) as usize);
            let out = engine.best_response(mover, &opts()).unwrap();
            assert_eq!(
                out,
                best_response::exact(&spec, &cfg, mover, &opts()).unwrap(),
                "step {step}"
            );
            if out.improves() {
                engine
                    .apply_strategy(mover, out.best_strategy.clone())
                    .unwrap();
                cfg.set_strategy(&spec, mover, out.best_strategy).unwrap();
            }
            assert_eq!(
                engine.node_costs(),
                crate::reference::node_costs(&spec, &cfg)
            );
        }
        // A churning dense graph invalidates aggressively — correctness of
        // the answers above is the point; here just sanity-check the
        // counters stay coherent.
        let stats = engine.stats();
        assert_eq!(stats.searches_run + stats.outcome_hits, 30);
        assert!(stats.patches_applied > 0);
    }

    #[test]
    fn outcome_cache_hits_and_invalidates() {
        let spec = GameSpec::uniform(6, 1);
        let mut engine = DistanceEngine::new(&spec, Configuration::empty(6));
        let u = NodeId::new(0);
        let a = engine.best_response(u, &opts()).unwrap();
        let b = engine.best_response(u, &opts()).unwrap();
        assert_eq!(a, b);
        assert_eq!(engine.stats().outcome_hits, 1);
        // A move by the node itself keeps its rows but drops its outcome.
        engine.apply_strategy(u, a.best_strategy.clone()).unwrap();
        let c = engine.best_response(u, &opts()).unwrap();
        assert!(
            !c.improves(),
            "a node is stable right after best-responding"
        );
        assert_eq!(engine.stats().outcome_hits, 1, "self-move drops the memo");
    }

    #[test]
    fn differing_options_bypass_outcome_cache() {
        let spec = GameSpec::uniform(6, 2);
        let mut engine = DistanceEngine::new(&spec, Configuration::empty(6));
        let u = NodeId::new(2);
        let full = engine.best_response(u, &opts()).unwrap();
        let first = BestResponseOptions {
            stop_at_first_improvement: true,
            ..opts()
        };
        let early = engine.best_response(u, &first).unwrap();
        assert!(early.evaluations <= full.evaluations);
        assert_eq!(
            early,
            best_response::exact(&spec, engine.config(), u, &first).unwrap()
        );
    }

    #[test]
    fn sync_to_diffs_only_changed_nodes() {
        let spec = GameSpec::uniform(6, 2);
        let a = Configuration::random(&spec, 1);
        let mut b = a.clone();
        b.set_strategy(&spec, NodeId::new(3), vec![NodeId::new(0)])
            .unwrap();
        let mut engine = DistanceEngine::new(&spec, a);
        engine.node_costs();
        engine.sync_to(&b);
        assert_eq!(engine.stats().patches_applied, 1);
        assert_eq!(engine.node_costs(), crate::reference::node_costs(&spec, &b));
    }

    #[test]
    fn prefill_fills_each_cold_row_once() {
        let spec = GameSpec::uniform(10, 2);
        let cfg = Configuration::random(&spec, 5);
        let nodes: Vec<NodeId> = NodeId::all(10).collect();
        let mut engine = DistanceEngine::new(&spec, cfg.clone());
        assert_eq!(
            engine.prefill_oracle_rows(&nodes, 1),
            10,
            "every row was cold"
        );
        assert_eq!(engine.prefill_oracle_rows(&nodes, 1), 0, "and is now valid");
        for u in NodeId::all(10) {
            assert_eq!(
                engine.best_response(u, &opts()).unwrap(),
                best_response::exact(&spec, &cfg, u, &opts()).unwrap(),
                "node {u}"
            );
        }
        let stats = engine.stats();
        assert_eq!(
            (stats.oracle_rows_computed, stats.oracle_row_hits),
            (10, 90),
            "searches after the prefill derive every row without a traversal"
        );
    }

    #[test]
    fn weighted_and_max_games_work_through_engine() {
        let spec = GameSpec::builder(6)
            .default_budget(2)
            .weight(0, 3, 9)
            .link_length(0, 1, 4)
            .link_cost(0, 2, 2)
            .cost_model(CostModel::MaxDistance)
            .build()
            .unwrap();
        let cfg = Configuration::random(&spec, 2);
        let mut engine = DistanceEngine::new(&spec, cfg.clone());
        for u in NodeId::all(6) {
            assert_eq!(
                engine.best_response(u, &opts()).unwrap(),
                best_response::exact(&spec, &cfg, u, &opts()).unwrap()
            );
        }
        assert_eq!(
            engine.node_costs(),
            crate::reference::node_costs(&spec, &cfg)
        );
    }

    /// Restricts `spec` to the live nodes as a fresh, dense game (same
    /// penalty, relabeled ids) — the executable reference for masked
    /// aggregation: distances and costs among live nodes must be identical
    /// because departed nodes carry no arcs.
    fn compact_spec(spec: &GameSpec, live: &[NodeId]) -> (GameSpec, Vec<usize>) {
        let mut b = GameSpec::builder(live.len()).cost_model(spec.cost_model());
        for (i, &u) in live.iter().enumerate() {
            b = b.budget(i, spec.budget(u));
            for (j, &v) in live.iter().enumerate() {
                if i == j {
                    continue;
                }
                b = b
                    .weight(i, j, spec.weight(u, v))
                    .link_cost(i, j, spec.link_cost(u, v))
                    .link_length(i, j, spec.link_length(u, v));
            }
        }
        let compact = b
            .penalty(spec.penalty())
            .build()
            .expect("penalty of the full game dominates the restricted one");
        let back: Vec<usize> = live.iter().map(|u| u.index()).collect();
        (compact, back)
    }

    #[test]
    fn remove_then_readd_is_byte_identical_to_fresh_build() {
        let spec = GameSpec::uniform(8, 2);
        let mut engine = DistanceEngine::new(&spec, Configuration::random(&spec, 9));
        // Warm every cache, then churn.
        for u in NodeId::all(8) {
            engine.best_response(u, &opts()).unwrap();
        }
        let victim = NodeId::new(3);
        let held = engine.config().strategy(victim).to_vec();
        engine.remove_node(victim).unwrap();
        engine
            .add_node(victim, held)
            .expect("old strategy targets only live nodes");

        let mut live = bbc_graph::BitSet::new(8);
        for v in 0..8 {
            live.insert(v);
        }
        let fresh = DistanceEngine::with_membership(&spec, engine.config().clone(), &live).unwrap();
        assert_eq!(engine.state_digest(), fresh.state_digest());
        // And with the node still absent, the digest matches a fresh
        // partial-membership build too.
        engine.remove_node(victim).unwrap();
        live.remove(3);
        let fresh = DistanceEngine::with_membership(&spec, engine.config().clone(), &live).unwrap();
        assert_eq!(engine.state_digest(), fresh.state_digest());
    }

    #[test]
    fn masked_engine_matches_compact_relabeled_game() {
        // Remove two nodes from an (8,2)-uniform game; every live cost and
        // best response must match the dense 6-node game with the same
        // penalty, modulo relabeling.
        let spec = GameSpec::uniform(8, 2);
        let mut engine = DistanceEngine::new(&spec, Configuration::random(&spec, 4));
        engine.remove_node(NodeId::new(2)).unwrap();
        engine.remove_node(NodeId::new(5)).unwrap();
        let live: Vec<NodeId> = engine.live_nodes().collect();
        let (cspec, back) = compact_spec(&spec, &live);
        let clists: Vec<Vec<NodeId>> = live
            .iter()
            .map(|&u| {
                engine
                    .config()
                    .strategy(u)
                    .iter()
                    .map(|t| NodeId::new(back.iter().position(|&b| b == t.index()).unwrap()))
                    .collect()
            })
            .collect();
        let ccfg = Configuration::from_strategies(&cspec, clists).unwrap();
        for (i, &u) in live.iter().enumerate() {
            assert_eq!(
                engine.node_cost(u),
                crate::reference::node_costs(&cspec, &ccfg)[i],
                "node {u}"
            );
            let masked = engine.best_response(u, &opts()).unwrap();
            let compact = best_response::exact(&cspec, &ccfg, NodeId::new(i), &opts()).unwrap();
            assert_eq!(masked.current_cost, compact.current_cost, "node {u}");
            assert_eq!(masked.best_cost, compact.best_cost, "node {u}");
            assert_eq!(masked.optimal, compact.optimal, "node {u}");
            let relabeled: Vec<NodeId> = compact
                .best_strategy
                .iter()
                .map(|t| NodeId::new(back[t.index()]))
                .collect();
            assert_eq!(masked.best_strategy, relabeled, "node {u}");
        }
    }

    #[test]
    fn departed_nodes_cost_zero_and_reject_operations() {
        let spec = GameSpec::uniform(5, 1);
        let mut engine = DistanceEngine::new(&spec, Configuration::random(&spec, 1));
        let u = NodeId::new(2);
        engine.remove_node(u).unwrap();
        assert_eq!(engine.node_cost(u), 0);
        assert_eq!(engine.live_count(), 4);
        assert!(!engine.is_live(u));
        assert_eq!(
            engine.best_response(u, &opts()),
            Err(crate::Error::NodeNotLive { node: u })
        );
        assert_eq!(
            engine.remove_node(u),
            Err(crate::Error::NodeNotLive { node: u })
        );
        assert_eq!(
            engine.apply_strategy(NodeId::new(0), vec![u]),
            Err(crate::Error::TargetNotLive {
                node: NodeId::new(0),
                target: u
            })
        );
        assert_eq!(
            engine.add_node(NodeId::new(0), vec![]),
            Err(crate::Error::NodeAlreadyLive {
                node: NodeId::new(0)
            })
        );
        // No live node still links to the departed one.
        for w in engine.live_nodes() {
            assert!(!engine.config().strategy(w).contains(&u));
        }
    }

    #[test]
    fn leave_rejoin_keeps_own_oracle_rows_warm() {
        // The incremental claim: a departed node's own deviation rows are
        // rows of `G∖u`, which its departure does not change. When `u` has
        // no in-links, its leave/rejoin patches only `u` itself — and
        // `G∖u` traversals never expand `u` — so re-asking its best
        // response after the round trip recomputes *zero* rows.
        let spec = GameSpec::uniform(6, 1);
        // 0→1→2→0 ring; 3→4, 4→5, 5→4: nobody links to 3.
        let cfg = Configuration::from_strategies(
            &spec,
            vec![
                vec![NodeId::new(1)],
                vec![NodeId::new(2)],
                vec![NodeId::new(0)],
                vec![NodeId::new(4)],
                vec![NodeId::new(5)],
                vec![NodeId::new(4)],
            ],
        )
        .unwrap();
        let mut engine = DistanceEngine::new(&spec, cfg);
        let u = NodeId::new(3);
        engine.best_response(u, &opts()).unwrap();
        let rows_before = engine.stats().oracle_rows_computed;
        engine.remove_node(u).unwrap();
        engine.add_node(u, vec![NodeId::new(4)]).unwrap();
        engine.best_response(u, &opts()).unwrap();
        assert_eq!(
            engine.stats().oracle_rows_computed,
            rows_before,
            "an in-link-free leave/rejoin must be a pure row-cache hit"
        );
    }

    #[test]
    fn each_derived_row_counts_once() {
        // A cold engine on the exact path: the first search fills one base
        // row per candidate; the next node's search re-derives from the
        // rows the first one built and fills only the one it lacks.
        let spec = GameSpec::uniform(8, 2);
        let cfg = Configuration::random(&spec, 6);
        let mut engine = DistanceEngine::new(&spec, cfg);
        engine.best_response(NodeId::new(0), &opts()).unwrap();
        let stats = engine.stats();
        assert_eq!((stats.oracle_rows_computed, stats.oracle_row_hits), (7, 0));
        engine.best_response(NodeId::new(1), &opts()).unwrap();
        let stats = engine.stats();
        assert_eq!(
            (stats.oracle_rows_computed, stats.oracle_row_hits),
            (8, 6),
            "node 1 lacks only base row 0"
        );
    }

    /// The (n,2)-uniform ring with chords: node `i` links to `i + 1` and
    /// `i + 3`.
    fn chorded_ring(spec: &GameSpec) -> Configuration {
        let n = spec.node_count();
        let ring = (0..n)
            .map(|i| vec![NodeId::new((i + 1) % n), NodeId::new((i + 3) % n)])
            .map(|mut s| {
                s.sort_unstable();
                s
            })
            .collect();
        Configuration::from_strategies(spec, ring).unwrap()
    }

    #[test]
    fn rows_one_move_dropped_are_repaired_not_traversed() {
        // After one move, reading the dropped rows traverses only the
        // mover's and repairs every other one, which `engine/rows_repaired`
        // reports; the costs they give equal a fresh build's. The move
        // follows no search of the mover, so this is the cut path.
        let n = 8;
        let spec = GameSpec::uniform(n, 2);
        let cfg = chorded_ring(&spec);
        let mut engine = DistanceEngine::new(&spec, cfg.clone());
        engine.node_costs();
        let before = engine.stats();
        let mover = NodeId::new(0);
        let strategy = vec![NodeId::new(3), NodeId::new(5)];
        assert_ne!(cfg.strategy(mover), &strategy[..]);
        engine.apply_strategy(mover, strategy).unwrap();
        let dropped = engine.stats().rows_invalidated - before.rows_invalidated;
        assert!(dropped >= 2, "the move drops the mover's row and others");
        engine.best_response(NodeId::new(1), &opts()).unwrap();
        let costs = engine.node_costs();
        let stats = engine.stats();
        assert_eq!(
            (
                stats.oracle_rows_computed - before.oracle_rows_computed,
                stats.oracle_row_hits - before.oracle_row_hits,
                stats.eval_rows_computed - before.eval_rows_computed,
            ),
            (1, 6, 0)
        );
        let mut reg = bbc_obs::Registry::new();
        engine.publish_metrics(&mut reg);
        assert_eq!(reg.counter("engine/rows_repaired"), Some(dropped - 1));
        let mut fresh = DistanceEngine::new(&spec, engine.config().clone());
        assert_eq!(costs, fresh.node_costs());
    }

    /// `engine`'s row effort so far: base-row traversals for searches and
    /// for costs, rows dropped by patches, and rows refilled or repaired.
    fn row_effort(engine: &DistanceEngine<'_>) -> [u64; 4] {
        let stats = engine.stats();
        let mut reg = bbc_obs::Registry::new();
        engine.publish_metrics(&mut reg);
        [
            stats.oracle_rows_computed,
            stats.eval_rows_computed,
            stats.rows_invalidated,
            reg.counter("engine/rows_repaired").unwrap(),
        ]
    }

    /// The change in [`row_effort`] from `before` to now.
    fn row_effort_since(engine: &DistanceEngine<'_>, before: [u64; 4]) -> [u64; 4] {
        let now = row_effort(engine);
        std::array::from_fn(|i| now[i] - before[i])
    }

    #[test]
    fn a_move_after_its_own_search_is_refilled_from_the_stage() {
        // Node 0, down to one link, searches and moves at once: the patch
        // refills the mover's row and every row it drops from 0's staged
        // rows, so the costs and node 1's search that follow traverse
        // nothing, and `engine/rows_repaired` grows by the rows dropped.
        let n = 8;
        let spec = GameSpec::uniform(n, 2);
        let mut cfg = chorded_ring(&spec);
        cfg.set_strategy(&spec, NodeId::new(0), vec![NodeId::new(1)])
            .unwrap();
        let mut engine = DistanceEngine::new(&spec, cfg);
        engine.node_costs();
        let out = engine.best_response(NodeId::new(0), &opts()).unwrap();
        assert!(out.improves());
        let before = row_effort(&engine);
        engine
            .apply_strategy(NodeId::new(0), out.best_strategy)
            .unwrap();
        let costs = engine.node_costs();
        engine.best_response(NodeId::new(1), &opts()).unwrap();
        let [oracle, eval, dropped, repaired] = row_effort_since(&engine, before);
        assert_eq!((oracle, eval), (0, 0), "no traversal after the move");
        assert!(dropped > 1, "the move drops the mover's row and others");
        assert_eq!(repaired, dropped);
        let mut fresh = DistanceEngine::new(&spec, engine.config().clone());
        assert_eq!(costs, fresh.node_costs());

        // A search of node 3 between node 2's search and its move hands
        // the stage to node 3, and a move served from node 4's memo after
        // node 5 searched finds the stage holding node 5's rows: both moves
        // take the cut path.
        let out = engine.best_response(NodeId::new(2), &opts()).unwrap();
        engine.best_response(NodeId::new(3), &opts()).unwrap();
        assert_cut_path(&spec, &mut engine, NodeId::new(2), out.best_strategy);
        engine.best_response(NodeId::new(4), &opts()).unwrap();
        engine.best_response(NodeId::new(5), &opts()).unwrap();
        let hits = engine.stats().outcome_hits;
        let out = engine.best_response(NodeId::new(4), &opts()).unwrap();
        assert_eq!(engine.stats().outcome_hits, hits + 1);
        assert_cut_path(&spec, &mut engine, NodeId::new(4), out.best_strategy);
    }

    /// Moves `mover` to `strategy` and asserts the move took the cut path:
    /// the first cost read traverses the mover's row, the one dropped row
    /// that is not repaired, and the costs equal a fresh build's.
    fn assert_cut_path(
        spec: &GameSpec,
        engine: &mut DistanceEngine<'_>,
        mover: NodeId,
        strategy: Vec<NodeId>,
    ) {
        let before = row_effort(engine);
        engine.apply_strategy(mover, strategy).unwrap();
        let costs = engine.node_costs();
        let [oracle, eval, dropped, repaired] = row_effort_since(engine, before);
        assert_eq!((oracle, eval), (0, 1), "mover {mover}");
        assert!(dropped > 1, "mover {mover}");
        assert_eq!(repaired, dropped - 1, "mover {mover}");
        let mut fresh = DistanceEngine::new(spec, engine.config().clone());
        assert_eq!(costs, fresh.node_costs(), "mover {mover}");
    }

    #[test]
    fn a_failed_search_keeps_the_older_memo_and_its_dependencies() {
        let spec = GameSpec::uniform(9, 2);
        let mut engine = DistanceEngine::new(&spec, Configuration::random(&spec, 4));
        let u = NodeId::new(0);
        let out = engine.best_response(u, &opts()).unwrap();
        let deps = tiered!(engine, e => e.memos[0].deps.clone());
        let tight = BestResponseOptions {
            evaluation_limit: 1,
            ..opts()
        };
        assert!(engine.best_response(u, &tight).is_err());
        assert_eq!(tiered!(engine, e => e.memos[0].deps.clone()), deps);
        assert_eq!(engine.best_response(u, &opts()).unwrap(), out);
        assert_eq!(engine.stats().outcome_hits, 1);
    }

    #[test]
    fn memory_gauges_stay_flat_along_a_walk() {
        // A 64-peer circulant{1,8} walk: once every node has been tested,
        // no structure grows, and the row store holds n rows, not n² — at
        // most twice the n² row words.
        let n = 64;
        let spec = GameSpec::uniform(n, 2);
        let cfg = Configuration::from_strategies(
            &spec,
            (0..n)
                .map(|i| {
                    let mut s = vec![NodeId::new((i + 1) % n), NodeId::new((i + 8) % n)];
                    s.sort_unstable();
                    s
                })
                .collect(),
        )
        .unwrap();
        let mut walk = crate::Walk::new(&spec, cfg).detect_cycles(false);
        let gauges = |walk: &crate::Walk| {
            let mut reg = bbc_obs::Registry::new();
            walk.publish_metrics(&mut reg);
            [
                "engine/row_store_bytes",
                "engine/stage_bytes",
                "engine/memo_bytes",
            ]
            .map(|name| reg.gauge(name).unwrap())
        };
        walk.run(64).unwrap();
        let early = gauges(&walk);
        walk.run(256).unwrap();
        assert_eq!(walk.stats().steps, 256);
        assert!(walk.stats().moves > 0);
        assert_eq!(gauges(&walk), early);
        assert_eq!(RowTier::auto(&spec), RowTier::I16);
        let bound = 2 * n * n * std::mem::size_of::<i16>();
        assert!(early[0] > 0 && early[0] <= bound as u64, "{early:?}");
    }

    #[test]
    fn connectivity_tracks_patches() {
        let spec = GameSpec::uniform(4, 1);
        let ring = Configuration::from_strategies(
            &spec,
            (0..4).map(|i| vec![NodeId::new((i + 1) % 4)]).collect(),
        )
        .unwrap();
        let mut engine = DistanceEngine::new(&spec, ring);
        assert!(engine.is_strongly_connected());
        engine.apply_strategy(NodeId::new(0), vec![]).unwrap();
        assert!(!engine.is_strongly_connected());
    }

    // ----- row tiers -------------------------------------------------

    #[test]
    fn tier_auto_straddles_the_i16_boundary() {
        // The narrow tier needs n·max ℓ < SATURATED = 16,383, whatever the
        // penalty: uniform games fit up to n = 16,382.
        assert_eq!(RowTier::auto(&GameSpec::uniform(16_382, 1)), RowTier::I16);
        assert_eq!(RowTier::auto(&GameSpec::uniform(16_383, 1)), RowTier::U64);
        // n·max ℓ = 2·8,191 = 16,382 fits; 2·8,192 = 16,384 does not.
        let long = |len: u64| GameSpec::builder(2).link_length(0, 1, len).build().unwrap();
        let below = long(8_191);
        let at = long(8_192);
        assert_eq!(RowTier::auto(&below), RowTier::I16);
        assert_eq!(RowTier::auto(&at), RowTier::U64);
        assert_eq!(
            DistanceEngine::new(&below, Configuration::empty(2)).row_tier(),
            RowTier::I16
        );
        assert_eq!(
            DistanceEngine::new(&at, Configuration::empty(2)).row_tier(),
            RowTier::U64
        );
    }

    #[test]
    fn tier_auto_survives_penalty_products_beyond_u64() {
        // n·M overflows u64 entirely; checked_mul must trip, not wrap.
        let spec = GameSpec::uniform(64, 1).with_penalty(u64::MAX / 2).unwrap();
        assert_eq!(RowTier::auto(&spec), RowTier::U64);
    }

    #[test]
    fn forced_i16_rejects_an_oversized_spec() {
        let spec = GameSpec::uniform(16_383, 1);
        let err = DistanceEngine::with_tier(&spec, Configuration::empty(16_383), RowTier::I16)
            .expect_err("a finite distance could reach the saturated value");
        assert_eq!(
            err,
            Error::RowTierOverflow {
                n: 16_383,
                max_length: 1,
                penalty: 16_383 * 16_383
            }
        );
    }

    #[test]
    fn forced_u64_matches_the_i16_tier_exactly() {
        // M = 100,003 exceeds SATURATED, so the i16 rows hold the saturated
        // stand-in for every unreachable target and each cost lifts it.
        let spec = GameSpec::uniform(8, 2).with_penalty(100_003).unwrap();
        assert_eq!(RowTier::auto(&spec), RowTier::I16);
        for seed in 0..4 {
            let mut cfg = Configuration::random(&spec, seed);
            // A node with no links leaves targets unreachable.
            cfg.set_strategy(&spec, NodeId::new(seed as usize), vec![])
                .unwrap();
            let mut narrow = DistanceEngine::new(&spec, cfg.clone());
            let mut wide = DistanceEngine::with_tier(&spec, cfg, RowTier::U64).unwrap();
            assert_eq!(narrow.node_costs(), wide.node_costs(), "seed {seed}");
            assert!(narrow.node_costs().iter().any(|&c| c >= 100_003));
            for u in NodeId::all(8) {
                let a = narrow.best_response(u, &opts()).unwrap();
                let b = wide.best_response(u, &opts()).unwrap();
                assert_eq!(a, b, "seed {seed} node {u}");
                assert_eq!(narrow.distances_from(u), wide.distances_from(u));
            }
            assert_eq!(narrow.greedy(NodeId::new(1)), wide.greedy(NodeId::new(1)));
            assert_eq!(narrow.state_digest(), wide.state_digest());
        }
    }
}
