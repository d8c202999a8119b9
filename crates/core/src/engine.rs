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
//! * a memo of the strategy-independent deviation rows `d_{G∖u}(c, ·)` — the
//!   rows Lemmas 3–5 price every strategy of `u` with — plus each row's
//!   *touched set* (the nodes whose out-arcs the traversal expanded). A
//!   dynamics step that moves node `m` invalidates only rows whose touched
//!   set contains `m`: an untouched node's out-links cannot affect any
//!   cached distance, and rewiring `m`'s out-links never changes whether `m`
//!   itself is reached;
//! * a memo of full [`crate::best_response`] outcomes per node, reused until
//!   a row it depends on is invalidated or the node itself moves — in the
//!   tail of a converging walk this turns `n − 1` confirmation tests per
//!   round into cache hits;
//! * a handful of full-`G` landmark rows, the source of the admissible
//!   bounds the default search prunes with (see [`crate::LandmarkPolicy`]);
//! * per-node distance rows from `u` in `G` (the [`crate::Evaluator`]
//!   substrate), cached under the same invalidation rule.
//!
//! Cache-invalidation rules, in one table:
//!
//! | cached item                | invalidated by a rewire of `m` when |
//! |----------------------------|--------------------------------------|
//! | oracle row `d_{G∖u}(c,·)` | `m ≠ u` and `m` ∈ row's touched set |
//! | best-response outcome of `u` | any of `u`'s rows invalidated, or `m = u` |
//! | eval row `d_G(u,·)`        | `m` ∈ row's touched set (`m = u` always is) |
//!
//! # Node churn
//!
//! The engine also tracks a **live membership**: [`DistanceEngine::remove_node`]
//! departs a peer (its links and every link *to* it are stripped, and it
//! drops out of all cost aggregates), [`DistanceEngine::add_node`] admits or
//! re-admits one. A join/leave is a sequence of ordinary strategy patches —
//! each covered by the touched-set rule above — plus a wholesale drop of the
//! membership-dependent aggregates (outcome memos, cached eval costs, masked
//! weighted-target lists). Distance rows untouched by the patches survive,
//! and a departed node's own `d_{G∖u}` rows always do. Under partial
//! membership, cost aggregation masks departed targets (they contribute
//! neither distances nor disconnection penalties) and the best-response
//! search draws candidates from live nodes only. Every churn op
//! canonicalizes the CSR layout, so [`DistanceEngine::state_digest`] after
//! a remove/re-add round trip is byte-identical to a fresh
//! [`DistanceEngine::with_membership`] build of the same state.
//!
//! # One best-response path
//!
//! [`DistanceEngine::best_response`] stages a node's live candidate rows
//! once and runs the one branch-and-bound search over them. The
//! [`crate::LandmarkPolicy`] only picks the search's bound source: with no
//! landmarks, every live row is filled up front and the exact suffix-min
//! rows bound the search; with landmarks, only the held strategy's rows are
//! filled up front, the cached landmark rows bound the search, and any other
//! row is filled when the search first includes its candidate. Every
//! deviation row — eager, on demand, or prefilled — is traversed by one
//! routine.
//!
//! Row filling can be spread across OS threads with
//! [`DistanceEngine::prefill_oracle_rows`] (`std::thread::scope`; no new
//! dependencies): traversals read the shared CSR immutably and results are
//! written back in deterministic `(u, candidate)` order, so thread count
//! never changes any value.

use bbc_graph::{
    BitSet, BlockEnvelope, BlockPartition, ClampedBfs, ClampedDijkstra, ConnectivityScratch,
    CsrGraph, RowWord, UNREACHABLE,
};

use crate::{
    best_response::{
        greedy_on, search, LandmarkScratch, OracleView, SearchScratch, StagedRows, SuffixBounds,
    },
    eval::{cost_from_distances, cost_from_distances_masked},
    BestResponseOptions, BestResponseOutcome, Configuration, Error, GameSpec, LandmarkPolicy,
    NodeId, Result,
};

/// The word width of the engine's cached deviation rows.
///
/// Selected per spec at construction via a checked `n·M` bound: the narrow
/// tier is valid exactly when every clamped row entry *and* every plain row
/// sum (at most `n·M`) fits in 32 bits. Both tiers compute bit-identical
/// decisions, costs, and digests — the cross-width differential suite pins
/// this — so the tier is purely a bandwidth choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RowTier {
    /// 32-bit rows: half the memory traffic in the search and BFS hot
    /// loops. Requires `n·M ≤ u32::MAX`.
    U32,
    /// 64-bit rows: always valid (the pre-tier behavior).
    U64,
}

impl RowTier {
    /// The tier [`DistanceEngine::new`] picks for `spec`: [`RowTier::U32`]
    /// whenever the checked product `n·M` fits `u32`, else [`RowTier::U64`].
    /// Non-uniform weights and lengths fall back automatically because they
    /// inflate the spec's penalty past the bound.
    pub fn auto(spec: &GameSpec) -> Self {
        if Self::u32_fits(spec) {
            RowTier::U32
        } else {
            RowTier::U64
        }
    }

    /// `true` when the u32 tier can represent every clamped row entry and
    /// plain row sum of `spec` without wrapping.
    fn u32_fits(spec: &GameSpec) -> bool {
        (spec.node_count() as u64)
            .checked_mul(spec.penalty())
            .is_some_and(|nm| nm <= u64::from(u32::MAX))
    }
}

/// A filled row in flight from a worker thread back to the cache:
/// `(deviating node, candidate index, row)`.
type FilledRow<W> = (usize, usize, RowSlot<W>);

/// One cached shortest-path row plus its invalidation metadata.
#[derive(Clone, Debug)]
struct RowSlot<W> {
    valid: bool,
    /// Oracle slots hold the *clamped through-row* `ℓ(u,c) + d_{G∖u}(c,·)`
    /// (penalty for unreachable entries) at the engine's row width; eval
    /// slots hold raw `u64` distances with [`bbc_graph::UNREACHABLE`]
    /// preserved.
    dist: Vec<W>,
    /// Nodes whose out-arcs the traversal expanded.
    touched: BitSet,
}

impl<W: RowWord> RowSlot<W> {
    fn new(n: usize) -> Self {
        Self {
            valid: false,
            dist: vec![W::ZERO; n],
            touched: BitSet::new(n),
        }
    }

    /// Stores a finished traversal and marks the row valid.
    fn store(&mut self, dist: &[W], touched: &BitSet) {
        self.dist.copy_from_slice(dist);
        self.touched.copy_from(touched);
        self.valid = true;
    }
}

/// The clamped traversal kernels behind every cached row: deviation and
/// landmark rows at the engine's row width, evaluator rows as raw `u64`.
#[derive(Debug)]
struct RowFiller<W> {
    bfs: ClampedBfs<W>,
    dijkstra: ClampedDijkstra<W>,
}

impl<W: RowWord> RowFiller<W> {
    fn new(n: usize) -> Self {
        Self {
            bfs: ClampedBfs::new(n),
            dijkstra: ClampedDijkstra::new(n),
        }
    }

    /// Fills `slot` with `u`'s clamped deviation row through candidate `c`:
    /// `ℓ(u,c) + d_{G∖u}(c, ·)`, with `penalty` for unreachable targets. The
    /// link length is baked in at the traversal seed, so staging a search is
    /// a plain copy. Every deviation row the engine caches — eager, on
    /// demand, or on a prefill worker — is traversed here.
    fn deviation_row(
        &mut self,
        csr: &CsrGraph,
        spec: &GameSpec,
        u: NodeId,
        c: NodeId,
        penalty: W,
        slot: &mut RowSlot<W>,
    ) {
        let offset = W::from_u64(spec.link_length(u, c))
            // bbc-lint: allow(panic, link lengths are below the penalty, which the tier check proved representable)
            .expect("link length is below the penalty, which fits the tier");
        if spec.has_unit_lengths() {
            self.bfs
                .run_skipping(csr, c.index(), u.index(), offset, penalty);
            slot.store(self.bfs.distances(), self.bfs.touched());
        } else {
            self.dijkstra
                .run_skipping(csr, c.index(), u.index(), offset, penalty);
            slot.store(self.dijkstra.distances(), self.dijkstra.touched());
        }
    }

    /// Fills `slot` with the full-`G` row `d_G(source, ·)`, with `clamp` for
    /// unreachable targets: the penalty for landmark rows,
    /// [`UNREACHABLE`] for evaluator rows.
    fn full_row(
        &mut self,
        csr: &CsrGraph,
        spec: &GameSpec,
        source: NodeId,
        clamp: W,
        slot: &mut RowSlot<W>,
    ) {
        if spec.has_unit_lengths() {
            self.bfs.run(csr, source.index(), W::ZERO, clamp);
            slot.store(self.bfs.distances(), self.bfs.touched());
        } else {
            self.dijkstra.run(csr, source.index(), W::ZERO, clamp);
            slot.store(self.dijkstra.distances(), self.dijkstra.touched());
        }
    }
}

/// One search's staged inputs: the deviating node's live candidates in
/// ascending id order, with their cached rows copied in.
#[derive(Debug)]
struct Stage<W> {
    /// Clamped through-rows, stride `n`; a penalty placeholder where
    /// `present` is false.
    rows: Vec<W>,
    present: Vec<bool>,
    candidates: Vec<NodeId>,
    /// Link prices parallel to `candidates`.
    prices: Vec<u64>,
    /// Each staged candidate's index in the oracle row cache, so on-demand
    /// fills write through to the cached slot.
    slots: Vec<usize>,
}

impl<W> Default for Stage<W> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            present: Vec::new(),
            candidates: Vec::new(),
            prices: Vec::new(),
            slots: Vec::new(),
        }
    }
}

/// Per-deviating-node oracle cache: the static candidate pool and one
/// [`RowSlot`] per candidate, plus the memoized search outcome.
#[derive(Debug)]
struct OracleCache<W> {
    init: bool,
    candidates: Vec<NodeId>,
    prices: Vec<u64>,
    rows: Vec<RowSlot<W>>,
    outcome: Option<(BestResponseOptions, BestResponseOutcome)>,
    /// Whether the memoized outcome's graph-dependence is fully captured by
    /// the valid rows' touched sets: true when the search ended with every
    /// live candidate row materialized (always so on the exact path). A
    /// landmark-bounded search may prune a candidate without ever computing
    /// its row, in which case the memo also depends on the *bounds* that
    /// stood in for it — such a memo cannot ride the touched-set
    /// invalidation rule and must be dropped on any move.
    outcome_complete: bool,
}

impl<W> Default for OracleCache<W> {
    fn default() -> Self {
        Self {
            init: false,
            candidates: Vec::new(),
            prices: Vec::new(),
            rows: Vec::new(),
            outcome: None,
            outcome_complete: true,
        }
    }
}

/// Engine-owned landmark bound layer: a handful of full-`G` clamped
/// distance rows (shared across every deviating node) plus the coarse
/// block-pair envelope derived from them. Rows follow the standard
/// touched-set invalidation rule — with **no** mover exemption, since a
/// landmark row covers the full graph including the mover's arcs — and are
/// refreshed lazily at the next landmark-path query. The landmark *set* is
/// re-picked (and every row dropped) only when the live membership or the
/// policy changes, so ordinary walk steps keep reusing warm rows.
#[derive(Debug)]
struct LandmarkCache<W> {
    /// Membership version the landmark set was picked against (0 = never
    /// picked; real versions start at 1).
    version: u64,
    landmarks: Vec<NodeId>,
    rows: Vec<RowSlot<W>>,
    partition: BlockPartition,
    envelope: BlockEnvelope<W>,
    /// `false` whenever some contributing row changed since the envelope
    /// was last rebuilt.
    env_valid: bool,
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

/// Cache effectiveness counters (monotone; see [`DistanceEngine::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Shortest-path traversals actually run for oracle rows.
    pub oracle_rows_computed: u64,
    /// Oracle rows served from cache inside a best-response call.
    pub oracle_row_hits: u64,
    /// Whole best-response outcomes served from cache.
    pub outcome_hits: u64,
    /// Best-response searches actually run.
    pub searches_run: u64,
    /// Cached rows invalidated by strategy patches (deviation, eval, and
    /// landmark rows alike — all follow the same touched-set rule).
    pub rows_invalidated: u64,
    /// Strategy patches applied to the CSR mirror.
    pub patches_applied: u64,
    /// Traversals run for evaluator (distance-from-`u`) rows.
    pub eval_rows_computed: u64,
    /// Full-graph traversals run to (re)fill cached landmark rows. Separate
    /// from [`EngineStats::oracle_rows_computed`]: landmark rows are shared
    /// across every deviating node, deviation rows are per-node.
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
        reg.set_counter("engine/landmark_rows_computed", self.landmark_rows_computed);
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
    U32(EngineCore<'a, u32>),
    U64(EngineCore<'a, u64>),
}

/// Dispatches one method body into the active tier arm. Every public
/// engine method goes through here; the bodies themselves are written once,
/// generically, in [`EngineCore`].
macro_rules! tiered {
    ($self:expr, $e:ident => $body:expr) => {
        match &$self.inner {
            EngineInner::U32($e) => $body,
            EngineInner::U64($e) => $body,
        }
    };
    (mut $self:expr, $e:ident => $body:expr) => {
        match &mut $self.inner {
            EngineInner::U32($e) => $body,
            EngineInner::U64($e) => $body,
        }
    };
}

#[derive(Debug)]
struct EngineCore<'a, W: RowWord> {
    spec: &'a GameSpec,
    config: Configuration,
    csr: CsrGraph,
    /// The disconnection penalty at the row width (the clamp every oracle
    /// row is filled against). The tier check at construction guarantees
    /// the conversion is exact.
    penalty: W,
    filler: RowFiller<W>,
    /// Traverses evaluator rows: raw `u64` `d_G(u,·)` with [`UNREACHABLE`]
    /// preserved, since the public [`DistanceEngine::distances_from`]
    /// contract is width-independent.
    eval_filler: RowFiller<u64>,
    conn: ConnectivityScratch,
    oracle: Vec<OracleCache<W>>,
    /// One evaluator row per node; empty until the first cost is asked.
    eval_rows: Vec<RowSlot<u64>>,
    eval_costs: Vec<Option<u64>>,
    stage: Stage<W>,
    search_scratch: SearchScratch<W>,
    /// The exact bound source (landmark policy resolving to 0).
    suffix: SuffixBounds<W>,
    lm_policy: LandmarkPolicy,
    lm: LandmarkCache<W>,
    /// The landmark bound source.
    lm_scratch: LandmarkScratch<W>,
    link_scratch: Vec<(u32, u64)>,
    /// Live membership: departed nodes keep their id (and spec row) but
    /// hold no links, receive none, and drop out of every cost aggregate.
    live: BitSet,
    live_count: usize,
    /// Bumped by every join/leave; masked caches carry the version they
    /// were built against.
    membership_version: u64,
    live_targets: Vec<LiveTargets>,
    /// Nodes whose cached eval cost was dropped since the last
    /// [`DistanceEngine::take_dirty_costs`] drain (scheduler support).
    eval_dirty: BitSet,
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
            // bbc-lint: allow(panic, RowTier::auto picks u64 whenever u32 does not fit, and the u64 tier never errs)
            .expect("the automatic tier always fits the spec")
    }

    /// Creates an engine on an explicit row tier (full membership).
    ///
    /// # Errors
    ///
    /// [`Error::RowTierOverflow`] when `tier` is [`RowTier::U32`] and the
    /// spec's `n·M` product does not fit `u32` — the narrow rows could
    /// wrap, so the engine refuses instead.
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
            RowTier::U32 => {
                if !RowTier::u32_fits(spec) {
                    return Err(Error::RowTierOverflow {
                        n: spec.node_count(),
                        penalty: spec.penalty(),
                    });
                }
                EngineInner::U32(EngineCore::with_membership(spec, config, live)?)
            }
            RowTier::U64 => EngineInner::U64(EngineCore::with_membership(spec, config, live)?),
        };
        Ok(Self { inner })
    }

    /// The row tier this engine runs on.
    pub fn row_tier(&self) -> RowTier {
        match &self.inner {
            EngineInner::U32(_) => RowTier::U32,
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
            EngineInner::U32(e) => e.config,
            EngineInner::U64(e) => e.config,
        }
    }

    /// Cache counters accumulated since construction.
    pub fn stats(&self) -> EngineStats {
        tiered!(self, e => e.stats)
    }

    /// Publishes the engine's effort counters into a metrics registry
    /// (names under `engine/`), plus two derived gauges: the oracle-row
    /// cache hit rate and the best-response outcome-memo hit rate, both in
    /// permille. Observational only — reads a [`EngineStats`] snapshot and
    /// touches no engine state, so digests and decisions are unaffected.
    pub fn publish_metrics(&self, reg: &mut bbc_obs::Registry) {
        self.stats().publish_metrics(reg);
    }

    /// Builder form of [`DistanceEngine::set_landmark_policy`].
    #[must_use]
    pub fn with_landmarks(mut self, policy: LandmarkPolicy) -> Self {
        self.set_landmark_policy(policy);
        self
    }

    /// Sets the landmark bound policy (see [`LandmarkPolicy`]). Changing the
    /// policy drops the cached landmark rows (they are re-picked at the next
    /// landmark-path query) but keeps every deviation row and outcome memo —
    /// the bounds are admissible, so decisions are policy-independent and
    /// stay valid.
    pub fn set_landmark_policy(&mut self, policy: LandmarkPolicy) {
        tiered!(mut self, e => e.set_landmark_policy(policy));
    }

    /// The landmark bound policy in force.
    pub fn landmark_policy(&self) -> LandmarkPolicy {
        tiered!(self, e => e.lm_policy)
    }

    /// Rewires one node's strategy, patching the CSR mirror in place and
    /// invalidating exactly the cached rows whose traversal touched `u`.
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
    /// The same decision as [`crate::best_response::exact`] on the same
    /// configuration for either row tier and every landmark policy; with the
    /// landmark policy resolving to 0 the outcome is byte-identical,
    /// `evaluations` included (the differential suite enforces both).
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
    /// [`crate::best_response::greedy`]) over the engine's cached rows.
    pub(crate) fn greedy(&mut self, u: NodeId) -> BestResponseOutcome {
        tiered!(mut self, e => e.greedy(u))
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
    /// (cached; unreachable targets hold [`bbc_graph::UNREACHABLE`]).
    /// Always raw `u64`, whatever the row tier.
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

    /// [`DistanceEngine::best_response`] with the oracle BFS fan-out on the
    /// parallel path: `u`'s missing deviation rows (up to `n − 1`
    /// traversals) are filled across `threads` OS threads via
    /// [`DistanceEngine::prefill_oracle_rows`] before the search runs.
    ///
    /// Byte-identical to [`DistanceEngine::best_response`] for every thread
    /// count (prefilling writes exactly the rows the sequential path would
    /// compute); when the memoized outcome for `(u, options)` is still
    /// valid, the prefill is skipped so a cache hit stays a cache hit.
    ///
    /// # Errors
    ///
    /// As [`DistanceEngine::best_response`].
    pub fn best_response_prefilled(
        &mut self,
        u: NodeId,
        options: &BestResponseOptions,
        threads: usize,
    ) -> Result<BestResponseOutcome> {
        tiered!(mut self, e => e.best_response_prefilled(u, options, threads))
    }

    /// Fills every invalid oracle row of `nodes` across `threads` OS threads
    /// (`std::thread::scope`), returning the number of traversals run.
    ///
    /// Traversals read the shared CSR immutably; results are written back in
    /// deterministic `(node, candidate)` order, so any thread count produces
    /// the same engine state as the sequential path.
    pub fn prefill_oracle_rows(&mut self, nodes: &[NodeId], threads: usize) -> usize {
        tiered!(mut self, e => e.prefill_oracle_rows(nodes, threads))
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
    /// go through the standard touched-set rule, so deviation rows whose
    /// traversals met none of the patched nodes survive; only the
    /// membership-dependent aggregates (outcome memos, eval costs, masked
    /// target lists) are dropped wholesale — membership is a term in every
    /// one of them. `u`'s own `d_{G∖u}` rows survive by construction
    /// (`G∖u` never contained `u`'s arcs), which is what makes a brief
    /// leave/rejoin cheap.
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

    /// Drains the set of nodes whose cached cost was dropped since the last
    /// drain (by strategy patches or membership changes). Cost-keyed
    /// schedulers use this to update priority state in `O(changed)` per
    /// step instead of re-reading every node.
    pub fn take_dirty_costs(&mut self) -> Vec<NodeId> {
        tiered!(mut self, e => e.take_dirty_costs())
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
    /// data, and rows agree across tiers anyway, so it is also row-tier
    /// independent.
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
        // bbc-lint: allow(panic, with_tier validated the penalty against the tier before reaching here)
        let penalty = W::from_u64(spec.penalty()).expect("tier checked before construction");
        Ok(Self {
            spec,
            config,
            csr,
            penalty,
            filler: RowFiller::new(n),
            eval_filler: RowFiller::new(n),
            conn: ConnectivityScratch::new(),
            oracle: (0..n).map(|_| OracleCache::default()).collect(),
            eval_rows: Vec::new(),
            eval_costs: vec![None; n],
            stage: Stage::default(),
            search_scratch: SearchScratch::default(),
            suffix: SuffixBounds::default(),
            lm_policy: LandmarkPolicy::default(),
            lm: LandmarkCache {
                version: 0,
                landmarks: Vec::new(),
                rows: Vec::new(),
                partition: BlockPartition::new(n),
                envelope: BlockEnvelope::new(),
                env_valid: false,
            },
            lm_scratch: LandmarkScratch::default(),
            link_scratch,
            live: members,
            live_count,
            membership_version: 1,
            live_targets: vec![LiveTargets::default(); n],
            eval_dirty: BitSet::new(n),
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
        self.csr.set_out_links(u.index(), &self.link_scratch);
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

    fn invalidate_after_move(&mut self, moved: usize) {
        for (u2, oc) in self.oracle.iter_mut().enumerate() {
            if !oc.init {
                continue;
            }
            if !oc.outcome_complete {
                // A landmark-pruned memo depends on rows the search never
                // materialized — their dependence on the mover is unknown,
                // so the touched-set rule below cannot protect it.
                oc.outcome = None;
            }
            if u2 == moved {
                // `G∖u2` never contained u2's arcs: rows stay, but the
                // node's own strategy (hence its current cost) changed.
                oc.outcome = None;
                continue;
            }
            let mut any = false;
            for slot in &mut oc.rows {
                if slot.valid && slot.touched.contains(moved) {
                    slot.valid = false;
                    any = true;
                    self.stats.rows_invalidated += 1;
                }
            }
            if any {
                oc.outcome = None;
            }
        }
        for (i, (slot, cost)) in self
            .eval_rows
            .iter_mut()
            .zip(&mut self.eval_costs)
            .enumerate()
        {
            if slot.valid && slot.touched.contains(moved) {
                slot.valid = false;
                if cost.is_some() {
                    self.eval_dirty.insert(i);
                }
                *cost = None;
                self.stats.rows_invalidated += 1;
            }
        }
        // Landmark rows cover the full graph (mover's arcs included), so
        // they get no mover exemption: a landmark's own rewire always lands
        // in its touched set and drops the row.
        for slot in &mut self.lm.rows {
            if slot.valid && slot.touched.contains(moved) {
                slot.valid = false;
                self.lm.env_valid = false;
                self.stats.rows_invalidated += 1;
            }
        }
    }

    fn ensure_oracle_init(&mut self, u: NodeId) {
        let n = self.spec.node_count();
        let oc = &mut self.oracle[u.index()];
        if oc.init {
            return;
        }
        oc.candidates = self.spec.affordable_targets(u);
        oc.prices = oc
            .candidates
            .iter()
            .map(|&c| self.spec.link_cost(u, c))
            .collect();
        oc.rows = oc.candidates.iter().map(|_| RowSlot::new(n)).collect();
        oc.init = true;
    }

    /// Recomputes every invalid oracle row of `u` for *live* candidates
    /// (sequentially), counting the already-valid ones as row hits. A
    /// departed candidate's row is neither needed (it is filtered out of the
    /// search staging) nor meaningful, so it is left invalid until the
    /// candidate rejoins.
    fn ensure_oracle_rows(&mut self, u: NodeId) {
        self.ensure_oracle_init(u);
        let oc = &mut self.oracle[u.index()];
        for (slot, &c) in oc.rows.iter_mut().zip(&oc.candidates) {
            if !self.live.contains(c.index()) {
                continue;
            }
            if slot.valid {
                self.stats.oracle_row_hits += 1;
                continue;
            }
            self.filler
                .deviation_row(&self.csr, self.spec, u, c, self.penalty, slot);
            self.stats.oracle_rows_computed += 1;
        }
    }

    /// Picks/refreshes the cached landmark layer for `k` landmarks: re-pick
    /// evenly over the live set when the membership or requested count
    /// changed, lazily re-run the full-`G` traversal of each invalidated
    /// row, and rebuild the block envelope if anything moved.
    fn ensure_landmarks(&mut self, k: usize) {
        let n = self.spec.node_count();
        if self.lm.version != self.membership_version || self.lm.landmarks.len() != k {
            let live: Vec<NodeId> = self.live.iter().map(NodeId::new).collect();
            self.lm.landmarks = (0..k).map(|j| live[j * live.len() / k]).collect();
            self.lm.rows = (0..k).map(|_| RowSlot::new(n)).collect();
            self.lm.version = self.membership_version;
            self.lm.env_valid = false;
        }
        for (slot, &l) in self.lm.rows.iter_mut().zip(&self.lm.landmarks) {
            if slot.valid {
                continue;
            }
            self.filler
                .full_row(&self.csr, self.spec, l, self.penalty, slot);
            self.stats.landmark_rows_computed += 1;
            self.lm.env_valid = false;
        }
        if !self.lm.env_valid {
            let LandmarkCache {
                rows,
                partition,
                envelope,
                env_valid,
                ..
            } = &mut self.lm;
            envelope.rebuild(
                partition,
                rows.iter().map(|s| s.dist.as_slice()),
                self.penalty,
            );
            *env_valid = true;
        }
    }

    /// Copies `u`'s live candidates and their cached rows into the stage,
    /// leaving a penalty placeholder (not `present`) for each invalid row.
    /// With `count_hits`, every cached row staged counts as a row hit.
    fn stage(&mut self, u: NodeId, count_hits: bool) {
        let n = self.spec.node_count();
        let all_live = self.live_count == n;
        self.ensure_live_targets(u);
        let oc = &self.oracle[u.index()];
        let stage = &mut self.stage;
        stage.rows.clear();
        stage.present.clear();
        stage.candidates.clear();
        stage.prices.clear();
        stage.slots.clear();
        for (i, slot) in oc.rows.iter().enumerate() {
            let c = oc.candidates[i];
            // Live candidates only: a departed peer is neither a purchasable
            // target nor a relay in any priced strategy.
            if !all_live && !self.live.contains(c.index()) {
                continue;
            }
            stage.candidates.push(c);
            stage.prices.push(oc.prices[i]);
            stage.slots.push(i);
            stage.present.push(slot.valid);
            if slot.valid {
                stage.rows.extend_from_slice(&slot.dist);
                if count_hits {
                    self.stats.oracle_row_hits += 1;
                }
            } else {
                stage.rows.resize(stage.rows.len() + n, self.penalty);
            }
        }
    }

    fn best_response(
        &mut self,
        u: NodeId,
        options: &BestResponseOptions,
    ) -> Result<BestResponseOutcome> {
        if !self.live.contains(u.index()) {
            return Err(Error::NodeNotLive { node: u });
        }
        if let Some((cached_options, outcome)) = &self.oracle[u.index()].outcome {
            if cached_options == options {
                self.stats.outcome_hits += 1;
                return Ok(outcome.clone());
            }
        }
        let rows_before = self.stats.oracle_rows_computed;
        let landmarks = self.lm_policy.resolve(self.live_count);
        let bounded = landmarks > 0;
        if bounded {
            self.ensure_landmarks(landmarks);
            self.ensure_oracle_init(u);
            // The current strategy is priced through exact rows (the search
            // compares every candidate strategy against it, so it cannot be
            // bounded); every other row waits for the search to include it.
            let oc = &mut self.oracle[u.index()];
            for &t in self.config.strategy(u) {
                let i = oc
                    .candidates
                    .binary_search(&t)
                    // bbc-lint: allow(panic, apply_strategy validated every held target as an affordable candidate)
                    .expect("a held strategy target is always an affordable candidate");
                if !oc.rows[i].valid {
                    self.filler.deviation_row(
                        &self.csr,
                        self.spec,
                        u,
                        t,
                        self.penalty,
                        &mut oc.rows[i],
                    );
                    self.stats.oracle_rows_computed += 1;
                }
            }
        } else {
            // The exact bound source needs every live row.
            self.ensure_oracle_rows(u);
        }
        self.stage(u, bounded);

        // Disjoint field borrows: the on-demand fill traverses via `filler`
        // and writes through to the oracle slots while the search holds the
        // staged rows.
        let view = OracleView {
            spec: self.spec,
            node: u,
            candidates: &self.stage.candidates,
            prices: &self.stage.prices,
            weighted_targets: &self.live_targets[u.index()].targets,
            budget: self.spec.budget(u),
            all_live: self.live_count == self.spec.node_count(),
        };
        let oc_rows = &mut self.oracle[u.index()].rows;
        let mut fetch = |i: usize, dst: &mut [W]| {
            let slot = &mut oc_rows[self.stage.slots[i]];
            if !slot.valid {
                let c = self.stage.candidates[i];
                self.filler
                    .deviation_row(&self.csr, self.spec, u, c, self.penalty, slot);
                self.stats.oracle_rows_computed += 1;
            }
            dst.copy_from_slice(&slot.dist);
        };
        let staged = StagedRows {
            rows: &mut self.stage.rows,
            present: &mut self.stage.present,
            fetch: &mut fetch,
        };
        let strategy = self.config.strategy(u);
        let mut outcome = if bounded {
            let lm_rows: Vec<&[W]> = self.lm.rows.iter().map(|s| s.dist.as_slice()).collect();
            self.lm_scratch
                .build(&view, &lm_rows, &self.lm.partition, &self.lm.envelope);
            search(
                &view,
                staged,
                strategy,
                &mut self.lm_scratch,
                options,
                &mut self.search_scratch,
            )?
        } else {
            search(
                &view,
                staged,
                strategy,
                &mut self.suffix,
                options,
                &mut self.search_scratch,
            )?
        };
        self.stats.searches_run += 1;
        if bounded {
            outcome.rows_materialized = self.stats.oracle_rows_computed - rows_before;
        }
        let oc = &mut self.oracle[u.index()];
        oc.outcome_complete = self.stage.present.iter().all(|&p| p);
        oc.outcome = Some((*options, outcome.clone()));
        Ok(outcome)
    }

    /// Greedy heuristic best response for `u` over its fully staged rows.
    fn greedy(&mut self, u: NodeId) -> BestResponseOutcome {
        self.ensure_oracle_rows(u);
        self.stage(u, false);
        let view = OracleView {
            spec: self.spec,
            node: u,
            candidates: &self.stage.candidates,
            prices: &self.stage.prices,
            weighted_targets: &self.live_targets[u.index()].targets,
            budget: self.spec.budget(u),
            all_live: self.live_count == self.spec.node_count(),
        };
        greedy_on(&view, &self.stage.rows, self.config.strategy(u))
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

    /// Cost of node `u` under the bound configuration (cached per node).
    /// A departed node costs 0 — it plays no strategy and owes no
    /// distances (see the churn rules in the module docs).
    fn node_cost(&mut self, u: NodeId) -> u64 {
        if !self.live.contains(u.index()) {
            return 0;
        }
        if let Some(cost) = self.eval_costs[u.index()] {
            return cost;
        }
        if self.eval_rows.is_empty() {
            // Allocated on first use: an engine that only answers best
            // responses never needs the `n²` evaluator rows.
            let n = self.spec.node_count();
            self.eval_rows = (0..n).map(|_| RowSlot::new(n)).collect();
        }
        let slot = &mut self.eval_rows[u.index()];
        if !slot.valid {
            self.eval_filler
                .full_row(&self.csr, self.spec, u, UNREACHABLE, slot);
            self.stats.eval_rows_computed += 1;
        }
        let cost = if self.live_count == self.spec.node_count() {
            cost_from_distances(self.spec, u, &self.eval_rows[u.index()].dist)
        } else {
            cost_from_distances_masked(self.spec, u, &self.eval_rows[u.index()].dist, &self.live)
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
        &self.eval_rows[u.index()].dist
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
            let dist = &self.eval_rows[u].dist;
            for &v in &live {
                if v != u
                    && dist[v] == UNREACHABLE
                    && self.spec.weight(NodeId::new(u), NodeId::new(v)) > 0
                {
                    total += 1;
                }
            }
        }
        total
    }

    fn best_response_prefilled(
        &mut self,
        u: NodeId,
        options: &BestResponseOptions,
        threads: usize,
    ) -> Result<BestResponseOutcome> {
        let memo_valid = self.oracle[u.index()]
            .outcome
            .as_ref()
            .is_some_and(|(cached, _)| cached == options);
        if threads > 1 && !memo_valid {
            self.prefill_oracle_rows(&[u], threads);
        }
        self.best_response(u, options)
    }

    /// Fills every invalid oracle row of `nodes` across `threads` OS threads
    /// (`std::thread::scope`), returning the number of traversals run.
    fn prefill_oracle_rows(&mut self, nodes: &[NodeId], threads: usize) -> usize {
        for &u in nodes {
            if self.live.contains(u.index()) {
                self.ensure_oracle_init(u);
            }
        }
        let mut work: Vec<(usize, usize)> = Vec::new();
        for &u in nodes {
            if !self.live.contains(u.index()) {
                continue;
            }
            let oc = &self.oracle[u.index()];
            for (i, slot) in oc.rows.iter().enumerate() {
                if !slot.valid && self.live.contains(oc.candidates[i].index()) {
                    work.push((u.index(), i));
                }
            }
        }
        if work.is_empty() {
            return 0;
        }
        let threads = threads.clamp(1, work.len());
        if threads == 1 {
            for &u in nodes {
                if self.live.contains(u.index()) {
                    self.ensure_oracle_rows(u);
                }
            }
            return work.len();
        }

        let n = self.spec.node_count();
        let csr = &self.csr;
        let oracle = &self.oracle;
        let spec = self.spec;
        let penalty = self.penalty;
        let chunk = work.len().div_ceil(threads);
        let results: Vec<Vec<FilledRow<W>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .chunks(chunk)
                .map(|items| {
                    scope.spawn(move || {
                        let mut filler = RowFiller::<W>::new(n);
                        items
                            .iter()
                            .map(|&(u, i)| {
                                let mut slot = RowSlot::new(n);
                                let c = oracle[u].candidates[i];
                                filler.deviation_row(
                                    csr,
                                    spec,
                                    NodeId::new(u),
                                    c,
                                    penalty,
                                    &mut slot,
                                );
                                (u, i, slot)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                // bbc-lint: allow(panic, prefill returns a traversal count, not a Result; re-raising the worker panic is the only sound option)
                .map(|h| h.join().expect("row-filling thread panicked"))
                .collect()
        });
        let computed = work.len();
        for (u, i, slot) in results.into_iter().flatten() {
            self.oracle[u].rows[i] = slot;
        }
        self.stats.oracle_rows_computed += computed as u64;
        computed
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
    /// drop every membership-dependent aggregate. Distance rows are *not*
    /// dropped here; the touched-set invalidations of the patches that led
    /// here already covered them.
    fn after_membership_change(&mut self) {
        self.membership_version += 1;
        self.csr.rebuild_canonical();
        for oc in &mut self.oracle {
            oc.outcome = None;
        }
        for (i, cost) in self.eval_costs.iter_mut().enumerate() {
            *cost = None;
            self.eval_dirty.insert(i);
        }
        // Landmarks are picked evenly over the live set; force a re-pick
        // (which drops every landmark row) at the next landmark-path query.
        self.lm.version = 0;
    }

    fn canonicalize(&mut self) {
        // A membership change already is "canonicalize + drop dependent
        // aggregates"; reuse it wholesale so warm-vs-cold byte-identity
        // keeps being pinned by one code path.
        self.after_membership_change();
    }

    fn set_landmark_policy(&mut self, policy: LandmarkPolicy) {
        if policy != self.lm_policy {
            self.lm_policy = policy;
            self.lm.version = 0;
        }
    }

    fn take_dirty_costs(&mut self) -> Vec<NodeId> {
        let dirty: Vec<NodeId> = self.eval_dirty.iter().map(NodeId::new).collect();
        self.eval_dirty.clear();
        dirty
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
pub(crate) mod tests {
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
    fn parallel_prefill_matches_sequential_state() {
        let spec = GameSpec::uniform(10, 2);
        let cfg = Configuration::random(&spec, 5);
        let nodes: Vec<NodeId> = NodeId::all(10).collect();
        for threads in [1usize, 2, 4] {
            let mut engine = DistanceEngine::new(&spec, cfg.clone());
            let computed = engine.prefill_oracle_rows(&nodes, threads);
            assert_eq!(computed, 10 * 9, "all rows were cold");
            for u in NodeId::all(10) {
                assert_eq!(
                    engine.best_response(u, &opts()).unwrap(),
                    best_response::exact(&spec, &cfg, u, &opts()).unwrap(),
                    "threads {threads} node {u}"
                );
            }
            assert_eq!(
                engine.stats().oracle_rows_computed,
                90,
                "searches after prefill must be pure cache hits (threads {threads})"
            );
        }
    }

    #[test]
    fn prefilled_best_response_matches_plain_for_every_thread_count() {
        let spec = GameSpec::uniform(9, 2);
        let cfg = Configuration::random(&spec, 11);
        for threads in [1usize, 2, 4] {
            let mut engine = DistanceEngine::new(&spec, cfg.clone());
            for u in NodeId::all(9) {
                assert_eq!(
                    engine.best_response_prefilled(u, &opts(), threads).unwrap(),
                    best_response::exact(&spec, &cfg, u, &opts()).unwrap(),
                    "threads {threads} node {u}"
                );
            }
        }
    }

    #[test]
    fn prefilled_best_response_skips_prefill_on_memo_hit() {
        let spec = GameSpec::uniform(6, 1);
        let mut engine = DistanceEngine::new(&spec, Configuration::empty(6));
        let u = NodeId::new(0);
        let a = engine.best_response_prefilled(u, &opts(), 4).unwrap();
        let rows_after_first = engine.stats().oracle_rows_computed;
        let b = engine.best_response_prefilled(u, &opts(), 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            engine.stats().oracle_rows_computed,
            rows_after_first,
            "a memoized outcome must not trigger a prefill"
        );
        assert_eq!(engine.stats().outcome_hits, 1);
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
    fn masked_prefill_is_thread_invariant() {
        let spec = GameSpec::uniform(9, 2);
        let build = |threads: usize| {
            let mut engine = DistanceEngine::new(&spec, Configuration::random(&spec, 13));
            engine.remove_node(NodeId::new(4)).unwrap();
            engine.remove_node(NodeId::new(7)).unwrap();
            let live: Vec<NodeId> = engine.live_nodes().collect();
            engine.prefill_oracle_rows(&live, threads);
            let outs: Vec<_> = live
                .iter()
                .map(|&u| engine.best_response(u, &opts()).unwrap())
                .collect();
            (outs, engine.stats().oracle_rows_computed)
        };
        let (base, base_rows) = build(1);
        for threads in [2usize, 4] {
            let (outs, rows) = build(threads);
            assert_eq!(outs, base, "threads {threads}");
            assert_eq!(rows, base_rows, "threads {threads}");
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
    fn tier_auto_straddles_the_u32_boundary() {
        // n = 16, so n·M crosses 2³² exactly at M = 2²⁸. One below fits
        // the narrow word; at the boundary the product equals 2³² which
        // exceeds u32::MAX = 2³² − 1, so the engine must fall back.
        let below = GameSpec::uniform(16, 1)
            .with_penalty((1 << 28) - 1)
            .unwrap();
        let at = GameSpec::uniform(16, 1).with_penalty(1 << 28).unwrap();
        assert_eq!(RowTier::auto(&below), RowTier::U32);
        assert_eq!(RowTier::auto(&at), RowTier::U64);
        assert_eq!(
            DistanceEngine::new(&below, Configuration::empty(16)).row_tier(),
            RowTier::U32
        );
        assert_eq!(
            DistanceEngine::new(&at, Configuration::empty(16)).row_tier(),
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
    fn forced_u32_rejects_an_oversized_spec() {
        let spec = GameSpec::uniform(16, 1).with_penalty(1 << 28).unwrap();
        let err = DistanceEngine::with_tier(&spec, Configuration::empty(16), RowTier::U32)
            .expect_err("a 2³² product cannot ride the u32 tier");
        assert_eq!(
            err,
            Error::RowTierOverflow {
                n: 16,
                penalty: 1 << 28
            }
        );
    }

    #[test]
    fn forced_u64_matches_the_u32_tier_exactly() {
        let spec = GameSpec::uniform(8, 2);
        assert_eq!(RowTier::auto(&spec), RowTier::U32);
        for seed in 0..4 {
            let cfg = Configuration::random(&spec, seed);
            let mut narrow = DistanceEngine::new(&spec, cfg.clone());
            let mut wide = DistanceEngine::with_tier(&spec, cfg, RowTier::U64).unwrap();
            assert_eq!(narrow.node_costs(), wide.node_costs(), "seed {seed}");
            for u in NodeId::all(8) {
                let a = narrow.best_response(u, &opts()).unwrap();
                let b = wide.best_response(u, &opts()).unwrap();
                assert_eq!(a, b, "seed {seed} node {u}");
            }
            assert_eq!(narrow.state_digest(), wide.state_digest());
        }
    }

    // ----- landmark bound cache --------------------------------------

    #[test]
    fn unchanged_engine_never_rebuilds_landmark_rows() {
        let spec = GameSpec::uniform(10, 2);
        let cfg = Configuration::random(&spec, 5);
        let mut engine = DistanceEngine::new(&spec, cfg).with_landmarks(LandmarkPolicy::Forced(4));
        engine.best_response(NodeId::new(0), &opts()).unwrap();
        let rows_after_first = engine.stats().landmark_rows_computed;
        assert_eq!(rows_after_first, 4, "first query builds the forced set");
        engine.best_response(NodeId::new(1), &opts()).unwrap();
        engine.best_response(NodeId::new(2), &opts()).unwrap();
        assert_eq!(
            engine.stats().landmark_rows_computed,
            rows_after_first,
            "consecutive queries on an unchanged engine must reuse every cached landmark row"
        );
    }

    #[test]
    fn landmark_engine_tracks_moves_and_stays_exact() {
        let spec = GameSpec::uniform(9, 2);
        let mut cfg = Configuration::random(&spec, 8);
        let mut pruned =
            DistanceEngine::new(&spec, cfg.clone()).with_landmarks(LandmarkPolicy::Forced(3));
        assert_eq!(pruned.landmark_policy(), LandmarkPolicy::Forced(3));
        for step in 0..40u64 {
            let mover = NodeId::new((step % 9) as usize);
            let out = pruned.best_response(mover, &opts()).unwrap();
            let exact = best_response::exact(&spec, &cfg, mover, &opts()).unwrap();
            assert!(
                out.same_decision(&exact),
                "step {step}: {out:?} vs {exact:?}"
            );
            assert_eq!(out.best_cost, exact.best_cost, "step {step}");
            assert_eq!(out.current_cost, exact.current_cost, "step {step}");
            if out.improves() {
                pruned
                    .apply_strategy(mover, out.best_strategy.clone())
                    .unwrap();
                cfg.set_strategy(&spec, mover, out.best_strategy).unwrap();
            }
        }
        let stats = pruned.stats();
        assert!(
            stats.landmark_rows_computed >= 3,
            "the forced set was built at least once"
        );
    }

    #[test]
    fn landmark_decisions_match_exact_across_membership_churn() {
        let spec = GameSpec::uniform(12, 2);
        let cfg = Configuration::random(&spec, 2);
        let mut pruned =
            DistanceEngine::new(&spec, cfg.clone()).with_landmarks(LandmarkPolicy::Forced(4));
        let mut plain = DistanceEngine::new(&spec, cfg);
        let compare_all = |a: &mut DistanceEngine, b: &mut DistanceEngine| {
            let live: Vec<NodeId> = a.live_nodes().collect();
            for u in live {
                let x = a.best_response(u, &opts()).unwrap();
                let y = b.best_response(u, &opts()).unwrap();
                assert!(x.same_decision(&y), "node {u}: {x:?} vs {y:?}");
                assert_eq!(x.best_cost, y.best_cost, "node {u}");
            }
        };
        compare_all(&mut pruned, &mut plain);
        for victim in [NodeId::new(5), NodeId::new(0)] {
            pruned.remove_node(victim).unwrap();
            plain.remove_node(victim).unwrap();
            compare_all(&mut pruned, &mut plain);
        }
        pruned
            .add_node(NodeId::new(5), vec![NodeId::new(3)])
            .unwrap();
        plain
            .add_node(NodeId::new(5), vec![NodeId::new(3)])
            .unwrap();
        compare_all(&mut pruned, &mut plain);
        // Landmarks were re-picked over the live set after each membership
        // change; none may ever be a departed node.
        assert!(pruned.stats().landmark_rows_computed >= 4);
    }

    /// Asserts that each bound row the last landmark-bounded search of `u`
    /// built lies elementwise at or below the exact suffix-min row at every
    /// candidate position `i`: `min_{j ≥ i} ℓ(u,c_j) + d_{G∖u}(c_j, ·)`
    /// (the penalty where unreachable), recomputed on the adjacency list.
    fn assert_bound_rows_admissible<W: RowWord>(e: &EngineCore<'_, W>, u: NodeId, context: &str) {
        let n = e.spec.node_count();
        let mut g = e.config.to_graph(e.spec);
        g.take_out_arcs(u.index());
        let mut exact = vec![e.spec.penalty(); n];
        for (i, &c) in e.stage.candidates.iter().enumerate().rev() {
            let len = e.spec.link_length(u, c);
            for (x, d) in exact.iter_mut().zip(g.distances_from(c.index())) {
                if d != UNREACHABLE {
                    *x = (*x).min(len + d);
                }
            }
            let bound = e.lm_scratch.bound_row(i, n);
            for v in 0..n {
                assert!(
                    bound[v].widen() <= exact[v],
                    "{context}: node {u} position {i} target {v}: bound {bound:?} vs exact {exact:?}"
                );
            }
        }
    }

    /// [`assert_bound_rows_admissible`] on whichever row tier `engine` runs,
    /// for unit tests outside this module.
    pub(crate) fn assert_landmark_bounds_admissible(
        engine: &DistanceEngine<'_>,
        u: NodeId,
        context: &str,
    ) {
        tiered!(engine, e => assert_bound_rows_admissible(e, u, context));
    }

    /// A deterministic game with mixed weights, lengths and costs.
    fn weighted_spec(n: usize, seed: u64) -> GameSpec {
        let mut b = GameSpec::builder(n).default_budget(3);
        let mut x = seed;
        for u in 0..n {
            for v in (0..n).filter(|&v| v != u) {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = x >> 33;
                b = b
                    .weight(u, v, r % 4)
                    .link_length(u, v, 1 + (r >> 2) % 5)
                    .link_cost(u, v, 1 + (r >> 5) % 3);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn landmark_bound_rows_never_exceed_exact_suffix_rows() {
        for seed in 0..3u64 {
            let specs = [
                GameSpec::uniform(9, 2),
                GameSpec::uniform(12, 3),
                weighted_spec(10, seed),
            ];
            for (idx, spec) in specs.iter().enumerate() {
                let cfg = Configuration::random(spec, seed);
                // One churned membership: two departures from a (12,3) game.
                let churned = seed == 0 && idx == 1;
                let tiers: &[RowTier] = match RowTier::auto(spec) {
                    RowTier::U32 => &[RowTier::U32, RowTier::U64],
                    RowTier::U64 => &[RowTier::U64],
                };
                for &tier in tiers {
                    for k in 1..=6 {
                        let mut engine = DistanceEngine::with_tier(spec, cfg.clone(), tier)
                            .unwrap()
                            .with_landmarks(LandmarkPolicy::Forced(k));
                        if churned {
                            engine.remove_node(NodeId::new(3)).unwrap();
                            engine.remove_node(NodeId::new(8)).unwrap();
                        }
                        let live: Vec<NodeId> = engine.live_nodes().collect();
                        for u in live {
                            let context = format!("seed {seed} spec {idx} {tier:?} Forced({k})");
                            tiered!(mut engine, e => {
                                e.best_response(u, &opts()).unwrap();
                                assert_bound_rows_admissible(e, u, &context);
                            });
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn policy_change_resets_the_landmark_set() {
        let spec = GameSpec::uniform(10, 2);
        let cfg = Configuration::random(&spec, 3);
        let mut engine =
            DistanceEngine::new(&spec, cfg.clone()).with_landmarks(LandmarkPolicy::Forced(2));
        let u = NodeId::new(4);
        let a = engine.best_response(u, &opts()).unwrap();
        assert_eq!(engine.stats().landmark_rows_computed, 2);
        engine.set_landmark_policy(LandmarkPolicy::Forced(5));
        // Memoized outcome survives the policy switch (decisions are
        // policy-independent); a different node forces a fresh search.
        assert_eq!(engine.best_response(u, &opts()).unwrap(), a);
        let v = NodeId::new(7);
        let b = engine.best_response(v, &opts()).unwrap();
        assert_eq!(
            engine.stats().landmark_rows_computed,
            2 + 5,
            "resizing rebuilds the whole set"
        );
        assert!(b.same_decision(&best_response::exact(&spec, &cfg, v, &opts()).unwrap()));
        engine.set_landmark_policy(LandmarkPolicy::Off);
        let c = engine.best_response(NodeId::new(8), &opts()).unwrap();
        assert_eq!(
            engine.stats().landmark_rows_computed,
            7,
            "Off builds nothing"
        );
        assert!(
            c.same_decision(&best_response::exact(&spec, &cfg, NodeId::new(8), &opts()).unwrap())
        );
    }
}
