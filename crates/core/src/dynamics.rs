//! Best-response dynamics: walks over the configuration space (§4.3).
//!
//! In each step one node tests its stability and, if unstable, moves all its
//! links to a cost-optimal set (ties favour staying put, so walks are
//! deterministic for deterministic schedulers). The engine tracks:
//!
//! * convergence to a pure Nash equilibrium ([`WalkOutcome::Equilibrium`]),
//! * exact revisits of a `(configuration, scheduler)` state, which certify a
//!   best-response *loop* ([`WalkOutcome::Cycle`]) — the paper's Figure 4
//!   evidence that uniform BBC games are not ordinal potential games,
//! * the first step at which the network becomes strongly connected, the
//!   quantity bounded by `n²` in Theorem 6.

use std::collections::BTreeSet;
use std::ops::Bound;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

// The walk history map is lookup-only (keys are compared with `Eq` and the
// map is never iterated), so even a random hasher could not leak into walk
// *outcomes* — but the pinned [`crate::det`] hasher keeps the walk's memory
// layout, and therefore its exact allocation/timing profile in traces and
// benchmarks, reproducible too.
use crate::det::DetHashMap;
use crate::{
    best_response::BestResponseOptions, Configuration, DistanceEngine, GameSpec, NodeId, Result,
};

/// Which node moves next.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheduler {
    /// Nodes take turns in id order, `v0, v1, …, v(n−1), v0, …`.
    RoundRobin,
    /// Nodes take turns in the given fixed order (must be a permutation of
    /// all nodes). Used by the Ω(n²) lower-bound instance, whose round order
    /// the paper prescribes explicitly.
    RoundRobinOrder(Vec<NodeId>),
    /// Among currently-unstable nodes, the one with the maximum cost moves
    /// (ties broken by lowest id). The §4.3 "max-cost first" policy.
    MaxCostFirst,
    /// A uniformly random node is offered the move each step (seeded).
    Random {
        /// RNG seed; identical seeds replay identical walks.
        seed: u64,
    },
}

/// One applied move in a walk trace.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveRecord {
    /// Step index at which the move happened (0-based).
    pub step: u64,
    /// The node that rewired.
    pub node: NodeId,
    /// Strategy before the move.
    pub old_strategy: Vec<NodeId>,
    /// Strategy after the move.
    pub new_strategy: Vec<NodeId>,
    /// Cost before the move.
    pub old_cost: u64,
    /// Cost after the move.
    pub new_cost: u64,
}

/// How a walk ended.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkOutcome {
    /// Reached a pure Nash equilibrium.
    Equilibrium {
        /// Total best-response steps taken (stability tests, not only moves).
        steps: u64,
    },
    /// Revisited an exact `(configuration, scheduler-position)` state: the
    /// walk loops forever. Certifies that the game is not an ordinal
    /// potential game.
    Cycle {
        /// Step at which the repeated state was first seen.
        first_seen_step: u64,
        /// Steps between the two visits (the loop length).
        period: u64,
    },
    /// The step limit expired first.
    StepLimit {
        /// Steps executed when the walk stopped. Equals the limit for
        /// one-test-per-step schedulers; a max-cost-first scan is atomic
        /// (every node it probes counts), so the walk may end a few tests
        /// past the limit.
        steps: u64,
    },
}

/// Statistics accumulated along a walk.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkStats {
    /// Best-response steps executed (every stability test counts).
    pub steps: u64,
    /// Steps that actually changed a strategy.
    pub moves: u64,
    /// First step index after which the network was strongly connected
    /// (0 if it started that way); `None` while never observed.
    pub steps_to_strong_connectivity: Option<u64>,
    /// Landmark-bound prunes accumulated over every stability test
    /// (always 0 when the engine's [`crate::LandmarkPolicy`] resolves to
    /// the exact path). Effort counter: never affects the trajectory.
    pub bounds_hit: u64,
    /// Exact deviation rows derived inside landmark-bounded searches: the
    /// held strategy's rows plus every row the search fetched when it first
    /// included a candidate. Always 0 on the exact path, where every live
    /// row is derived up front and shows in [`crate::EngineStats`]
    /// (`oracle_rows_computed` plus `oracle_row_hits`) instead.
    pub rows_materialized: u64,
}

/// A best-response walk in progress.
///
/// # Examples
///
/// ```
/// use bbc_core::{Configuration, GameSpec, Scheduler, Walk, WalkOutcome};
///
/// let spec = GameSpec::uniform(6, 1);
/// let mut walk = Walk::new(&spec, Configuration::empty(6));
/// let outcome = walk.run(10_000)?;
/// // From the empty graph, round-robin best response reaches an equilibrium
/// // (§4.3 reports exactly this observation).
/// assert!(matches!(outcome, WalkOutcome::Equilibrium { .. }));
/// # Ok::<(), bbc_core::Error>(())
/// ```
#[derive(Debug)]
pub struct Walk<'a> {
    spec: &'a GameSpec,
    /// The shared shortest-path substrate, threaded through every step; it
    /// owns the authoritative copy of the evolving configuration.
    engine: DistanceEngine<'a>,
    scheduler: Scheduler,
    stats: WalkStats,
    /// Position in the round-robin order (meaningless for other schedulers).
    pos: usize,
    order: Vec<NodeId>,
    /// Consecutive steps without a move (equilibrium detector for
    /// round-robin/random).
    stable_streak: usize,
    /// OS threads for the per-step oracle BFS fan-out
    /// ([`Walk::prefill_threads`]; 1 = sequential).
    prefill: usize,
    rng: Option<SmallRng>,
    /// Whether the caller asked for cycle detection ([`Walk::detect_cycles`];
    /// on by default). The *effective* state is `history`, reconciled from
    /// this flag and the scheduler after every builder call, so builder-call
    /// order never matters.
    want_cycles: bool,
    history: Option<DetHashMap<(Configuration, usize), u64>>,
    trace: Option<Vec<MoveRecord>>,
    /// Priority state of the engine-aware max-cost-first scheduler; built
    /// lazily on the first max-cost step and updated per move from the
    /// engine's dirty-cost drain. Dropped whenever the scheduler switches
    /// or the membership changes.
    mcf: Option<McfState>,
}

/// Priority state for [`Scheduler::MaxCostFirst`]: live nodes keyed by
/// `(u64::MAX − cost, id)` so ascending B-tree order visits maximum cost
/// first with ties broken by lowest id — exactly a recompute-and-sort scan's
/// order.
#[derive(Debug)]
struct McfState {
    queue: BTreeSet<(u64, u32)>,
    /// The cost each node is currently filed under (`None` = not queued).
    filed: Vec<Option<u64>>,
}

impl McfState {
    #[inline]
    fn key(cost: u64, u: NodeId) -> (u64, u32) {
        (u64::MAX - cost, u.index() as u32)
    }
}

impl<'a> Walk<'a> {
    /// Starts a round-robin walk from `config` with cycle detection on and
    /// tracing off.
    pub fn new(spec: &'a GameSpec, config: Configuration) -> Self {
        assert_eq!(
            config.node_count(),
            spec.node_count(),
            "configuration size mismatch"
        );
        Self::from_engine(spec, DistanceEngine::new(spec, config))
    }

    /// [`Walk::new`] on an explicit engine row tier (the differential
    /// suite pins i16 walks against u64 walks with this).
    ///
    /// # Errors
    ///
    /// As [`DistanceEngine::with_tier`].
    pub fn with_tier(
        spec: &'a GameSpec,
        config: Configuration,
        tier: crate::RowTier,
    ) -> crate::Result<Self> {
        assert_eq!(
            config.node_count(),
            spec.node_count(),
            "configuration size mismatch"
        );
        Ok(Self::from_engine(
            spec,
            DistanceEngine::with_tier(spec, config, tier)?,
        ))
    }

    /// The row tier the underlying engine runs on.
    pub fn row_tier(&self) -> crate::RowTier {
        self.engine.row_tier()
    }

    /// Starts a round-robin walk over a partial membership: nodes outside
    /// `live` are departed peers (see [`DistanceEngine::with_membership`]);
    /// every scheduler offers moves to live nodes only.
    ///
    /// # Errors
    ///
    /// As [`DistanceEngine::with_membership`].
    pub fn with_membership(
        spec: &'a GameSpec,
        config: Configuration,
        live: &bbc_graph::BitSet,
    ) -> crate::Result<Self> {
        Ok(Self::from_engine(
            spec,
            DistanceEngine::with_membership(spec, config, live)?,
        ))
    }

    /// The shared constructor body: wraps a ready engine (built once — a
    /// second throwaway build would double walk-construction cost at
    /// overlay scale).
    fn from_engine(spec: &'a GameSpec, engine: DistanceEngine<'a>) -> Self {
        let order: Vec<NodeId> = NodeId::all(spec.node_count()).collect();
        Self {
            spec,
            engine,
            scheduler: Scheduler::RoundRobin,
            stats: WalkStats::default(),
            pos: 0,
            order,
            stable_streak: 0,
            prefill: 1,
            rng: None,
            want_cycles: true,
            history: Some(DetHashMap::default()),
            trace: None,
            mcf: None,
        }
    }

    /// Replaces the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if a [`Scheduler::RoundRobinOrder`] is not a permutation of all
    /// nodes.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        match &scheduler {
            Scheduler::RoundRobinOrder(order) => {
                let mut seen = vec![false; self.spec.node_count()];
                assert_eq!(
                    order.len(),
                    self.spec.node_count(),
                    "order must cover every node"
                );
                for &v in order {
                    assert!(!seen[v.index()], "order repeats {v}");
                    seen[v.index()] = true;
                }
                self.order = order.clone();
            }
            // Plain round-robin always means id order, even after a
            // `RoundRobinOrder` was set earlier on the builder.
            Scheduler::RoundRobin => self.order = NodeId::all(self.spec.node_count()).collect(),
            Scheduler::MaxCostFirst | Scheduler::Random { .. } => {}
        }
        // Builder state is reconciled from scratch on every switch so the
        // final walk depends only on the final scheduler, never on the call
        // order: the RNG exists exactly for `Random`, and a history dropped
        // for `Random` comes back when switching to a deterministic policy.
        self.rng = match scheduler {
            Scheduler::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        // Drop any accumulated history: its keys are `(config, pos)` states
        // of the *old* scheduler's dynamics, and matching one of them under
        // the new scheduler would certify a cycle that never happened. (A
        // pre-run builder chain only ever drops empty maps.)
        self.history = None;
        self.scheduler = scheduler;
        self.pos = 0;
        // The max-cost queue belongs to the old scheduler's stepping; it is
        // rebuilt lazily from the engine's dirty-cost drain when needed.
        self.mcf = None;
        // The no-move streak belongs to the old scheduler's test order; with
        // pos back at 0 a carried streak could certify equilibrium after
        // fewer than n fresh tests.
        self.stable_streak = 0;
        self.reconcile_history();
        self
    }

    /// Enables or disables exact-state cycle detection (on by default; the
    /// history grows by one configuration per step).
    ///
    /// The request is remembered independently of the scheduler: asking for
    /// detection and *then* switching schedulers (or the reverse) converges
    /// to the same walk. Detection stays off while the scheduler is
    /// [`Scheduler::Random`] — a revisited configuration does not imply a
    /// loop when moves are drawn randomly — but revives if the walk is
    /// switched back to a deterministic policy before running.
    #[must_use]
    pub fn detect_cycles(mut self, yes: bool) -> Self {
        self.want_cycles = yes;
        self.reconcile_history();
        self
    }

    /// Derives the effective cycle-detection state from the requested flag
    /// and the current scheduler (idempotent; keeps an existing map).
    fn reconcile_history(&mut self) {
        let deterministic = !matches!(self.scheduler, Scheduler::Random { .. });
        if self.want_cycles && deterministic {
            if self.history.is_none() {
                self.history = Some(DetHashMap::default());
            }
        } else {
            self.history = None;
        }
    }

    /// Enables recording of every applied move.
    pub fn record_trace(mut self, yes: bool) -> Self {
        self.trace = yes.then(Vec::new);
        self
    }

    /// Spreads each step's base-row traversals across `threads` OS threads
    /// via [`DistanceEngine::best_response_prefilled`]; the deviation rows
    /// are then derived from them on the calling thread. A row dropped by
    /// the latest move alone is repaired in place, serially, before the
    /// fan-out, so after one move there is usually a single traversal to
    /// spread (the mover's own row); a cold start, a membership change or
    /// back-to-back patches leave up to `n − 1`. The walk itself — outcome,
    /// configuration, steps, moves — is byte-identical for every thread
    /// count; only wall-clock changes. Values ≤ 1 keep the sequential path.
    #[must_use]
    pub fn prefill_threads(mut self, threads: usize) -> Self {
        self.prefill = threads.max(1);
        self
    }

    /// Sets the engine's landmark bound policy ([`crate::LandmarkPolicy`]).
    ///
    /// Admissible bounds never change the walk — trajectory, moves, steps,
    /// and final configuration are byte-identical across policies; only the
    /// [`WalkStats::bounds_hit`] / [`WalkStats::rows_materialized`] effort
    /// counters and the engine's traversal counts vary.
    #[must_use]
    pub fn with_landmarks(mut self, policy: crate::LandmarkPolicy) -> Self {
        self.engine.set_landmark_policy(policy);
        self
    }

    /// In-place form of [`Walk::with_landmarks`], for a walk already owned
    /// by a simulation (e.g. [`crate::ChurnSim`]).
    pub fn set_landmark_policy(&mut self, policy: crate::LandmarkPolicy) {
        self.engine.set_landmark_policy(policy);
    }

    /// The game this walk plays.
    pub fn spec(&self) -> &'a GameSpec {
        self.spec
    }

    /// The current configuration.
    pub fn config(&self) -> &Configuration {
        self.engine.config()
    }

    /// Consumes the walk, returning the final configuration.
    pub fn into_config(self) -> Configuration {
        self.engine.into_config()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &WalkStats {
        &self.stats
    }

    /// Cache counters of the underlying [`DistanceEngine`].
    pub fn engine_stats(&self) -> crate::EngineStats {
        self.engine.stats()
    }

    /// Publishes the walk's effort counters (names under `walk/`) and the
    /// underlying engine's (under `engine/`) into a metrics registry,
    /// including the landmark bound hit-rate gauge
    /// (`walk/landmark_bound_hit_rate_permille`: prunes over prunes +
    /// materialized exact rows). Observational only — the registry is
    /// write-only from the walk's point of view, so trajectories and
    /// digests are untouched.
    pub fn publish_metrics(&self, reg: &mut bbc_obs::Registry) {
        reg.set_counter("walk/steps", self.stats.steps);
        reg.set_counter("walk/moves", self.stats.moves);
        reg.set_counter("walk/bounds_hit", self.stats.bounds_hit);
        reg.set_counter("walk/rows_materialized", self.stats.rows_materialized);
        reg.set_gauge(
            "walk/landmark_bound_hit_rate_permille",
            bbc_obs::permille(
                self.stats.bounds_hit,
                self.stats.bounds_hit + self.stats.rows_materialized,
            ),
        );
        self.engine.publish_metrics(reg);
    }

    /// Recorded moves (empty unless [`Walk::record_trace`] was enabled).
    pub fn trace(&self) -> &[MoveRecord] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Runs until equilibrium, a detected cycle, or `max_steps`.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::Error::SearchBudgetExceeded`] from the per-node
    /// best-response search.
    pub fn run(&mut self, max_steps: u64) -> Result<WalkOutcome> {
        let n = self.spec.node_count();
        if self.engine.live_count() <= 1 {
            return Ok(WalkOutcome::Equilibrium {
                steps: self.stats.steps,
            });
        }
        self.note_connectivity();
        while self.stats.steps < max_steps {
            // Cycle detection on the pre-step state. (Departed nodes hold
            // empty, immutable strategies, so within one membership epoch —
            // churn events clear the history — the configuration still
            // determines the joint state exactly.)
            if let Some(history) = &mut self.history {
                let key = (self.engine.config().clone(), self.pos);
                if let Some(&first) = history.get(&key) {
                    return Ok(WalkOutcome::Cycle {
                        first_seen_step: first,
                        period: self.stats.steps - first,
                    });
                }
                history.insert(key, self.stats.steps);
            }

            match self.scheduler {
                Scheduler::RoundRobin | Scheduler::RoundRobinOrder(_) => {
                    // Departed members keep their slot in the order but are
                    // skipped without costing a step.
                    let u = loop {
                        let cand = self.order[self.pos];
                        self.pos = (self.pos + 1) % n;
                        if self.engine.is_live(cand) {
                            break cand;
                        }
                    };
                    let moved = self.step_node(u)?;
                    if self.bump_streak(moved, self.engine.live_count()) {
                        return Ok(WalkOutcome::Equilibrium {
                            steps: self.stats.steps,
                        });
                    }
                }
                Scheduler::Random { .. } => {
                    let live_count = self.engine.live_count();
                    let i = self
                        .rng
                        .as_mut()
                        // bbc-lint: allow(panic, the constructor builds an rng whenever the scheduler is Random)
                        .expect("random scheduler has rng")
                        .gen_range(0..live_count);
                    // Under full membership the i-th live node *is* node i;
                    // keep the common case O(1) instead of a bitset scan.
                    let u = if live_count == n {
                        NodeId::new(i)
                    } else {
                        self.engine
                            .live_nodes()
                            .nth(i)
                            // bbc-lint: allow(panic, gen_range drew i below live_count, so the iterator has an i-th element)
                            .expect("index drawn below live count")
                    };
                    let moved = self.step_node(u)?;
                    // A random walk can dawdle; confirm apparent convergence
                    // with a full exact scan once the streak is long enough.
                    if self.bump_streak(moved, 2 * live_count) && self.exact_scan_stable()? {
                        return Ok(WalkOutcome::Equilibrium {
                            steps: self.stats.steps,
                        });
                    }
                }
                Scheduler::MaxCostFirst => {
                    if !self.step_max_cost_first()? {
                        return Ok(WalkOutcome::Equilibrium {
                            steps: self.stats.steps,
                        });
                    }
                }
            }
        }
        Ok(WalkOutcome::StepLimit {
            steps: self.stats.steps,
        })
    }

    /// One full-search stability test (default [`BestResponseOptions`])
    /// through the engine, honouring the walk's prefill policy (the single
    /// call site shared by every scheduler).
    fn test_node(&mut self, u: NodeId) -> Result<crate::BestResponseOutcome> {
        let out = self.engine.best_response_prefilled(
            u,
            &BestResponseOptions::default(),
            self.prefill,
        )?;
        self.stats.bounds_hit += out.bounds_hit;
        self.stats.rows_materialized += out.rows_materialized;
        Ok(out)
    }

    /// Offers `u` a best-response step; returns whether it moved.
    fn step_node(&mut self, u: NodeId) -> Result<bool> {
        let out = self.test_node(u)?;
        self.stats.steps += 1;
        if !out.improves() {
            return Ok(false);
        }
        self.apply_move(u, out.best_strategy, out.current_cost, out.best_cost);
        Ok(true)
    }

    /// One engine-aware max-cost-first step; returns `false` when every
    /// live node is stable (equilibrium).
    ///
    /// The scan probes nodes in descending cached-cost order (ties by
    /// lowest id) straight out of a priority queue that is updated from the
    /// engine's dirty-cost drain — `O(changed·log n)` bookkeeping per
    /// applied move plus `O(log n)` per probe, instead of a recompute-and-sort
    /// of every node per step. The probe sequence, applied moves, and
    /// [`WalkStats`] step accounting are identical to that rescan (a unit
    /// test replays one): a stability test never changes any cost, so the
    /// queue order *is* the rescan's sort order.
    fn step_max_cost_first(&mut self) -> Result<bool> {
        let n = self.spec.node_count();
        let dirty = self.engine.take_dirty_costs();
        if let Some(state) = &mut self.mcf {
            // O(changed): re-file exactly the nodes whose cached cost the
            // last applied move (or churn event) dropped.
            for u in dirty {
                if let Some(old) = state.filed[u.index()].take() {
                    state.queue.remove(&McfState::key(old, u));
                }
                if self.engine.is_live(u) {
                    let cost = self.engine.node_cost(u);
                    state.queue.insert(McfState::key(cost, u));
                    state.filed[u.index()] = Some(cost);
                }
            }
        } else {
            // Fresh queue (the pending dirty set was just absorbed): file
            // every live node under its current cost.
            let mut state = McfState {
                queue: BTreeSet::new(),
                filed: vec![None; n],
            };
            for u in NodeId::all(n) {
                if self.engine.is_live(u) {
                    let cost = self.engine.node_cost(u);
                    state.queue.insert(McfState::key(cost, u));
                    state.filed[u.index()] = Some(cost);
                }
            }
            self.mcf = Some(state);
        }

        // Probe in queue order via a cursor (the queue is not mutated by
        // stability tests, so the cursor walks a stable order).
        let mut cursor: Option<(u64, u32)> = None;
        loop {
            let next = {
                // bbc-lint: allow(panic, the match arm above constructed self.mcf before looping)
                let state = self.mcf.as_ref().expect("built above");
                match cursor {
                    None => state.queue.first().copied(),
                    Some(k) => state
                        .queue
                        .range((Bound::Excluded(k), Bound::Unbounded))
                        .next()
                        .copied(),
                }
            };
            let Some(key) = next else {
                // Full scan found no mover: equilibrium (every test counted).
                return Ok(false);
            };
            cursor = Some(key);
            let u = NodeId::new(key.1 as usize);
            let out = self.test_node(u)?;
            // Every stability test counts as a step (the `WalkStats::steps`
            // contract), including the non-movers probed before the mover is
            // found — otherwise max-cost-first walks would report
            // incomparably fewer steps than round-robin for the same number
            // of best-response evaluations.
            self.stats.steps += 1;
            if out.improves() {
                self.apply_move(u, out.best_strategy, out.current_cost, out.best_cost);
                return Ok(true);
            }
        }
    }

    fn apply_move(&mut self, u: NodeId, new: Vec<NodeId>, old_cost: u64, new_cost: u64) {
        let old = self.engine.config().strategy(u).to_vec();
        if let Some(trace) = &mut self.trace {
            trace.push(MoveRecord {
                step: self.stats.steps - 1,
                node: u,
                old_strategy: old,
                new_strategy: new.clone(),
                old_cost,
                new_cost,
            });
        }
        self.engine
            .apply_strategy(u, new)
            // bbc-lint: allow(panic, the best response came from the same spec and engine that validate it)
            .expect("best response produced an invalid strategy");
        self.stats.moves += 1;
        self.note_connectivity();
    }

    /// Updates the no-move streak; returns `true` when it certifies
    /// equilibrium for streak target `target`.
    fn bump_streak(&mut self, moved: bool, target: usize) -> bool {
        if moved {
            self.stable_streak = 0;
            false
        } else {
            self.stable_streak += 1;
            self.stable_streak >= target
        }
    }

    /// Full-search stability scan through the walk's own stability test, so
    /// the scan reads and refills the same outcome memos the walk's steps
    /// use (a first-improvement checker would evict every default-options
    /// memo on each failed confirmation).
    fn exact_scan_stable(&mut self) -> Result<bool> {
        for u in NodeId::all(self.spec.node_count()) {
            if !self.engine.is_live(u) {
                continue;
            }
            if self.test_node(u)?.improves() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn note_connectivity(&mut self) {
        if self.stats.steps_to_strong_connectivity.is_none() && self.engine.is_strongly_connected()
        {
            self.stats.steps_to_strong_connectivity = Some(self.stats.steps);
        }
    }

    // ----- churn events ----------------------------------------------

    /// Departs node `u` mid-walk ([`DistanceEngine::remove_node`]) and
    /// resets the scheduler state the event invalidates: the no-move
    /// streak, the round-robin position, the cycle-detection history (its
    /// keys describe the old membership's dynamics), and the max-cost
    /// queue (rebuilt from the engine's dirty drain on the next step).
    ///
    /// # Errors
    ///
    /// As [`DistanceEngine::remove_node`]; no state changes on error.
    pub fn remove_node(&mut self, u: NodeId) -> Result<()> {
        self.engine.remove_node(u)?;
        self.after_churn_event();
        Ok(())
    }

    /// (Re)admits node `u` with the given strategy mid-walk
    /// ([`DistanceEngine::add_node`]); scheduler state resets as in
    /// [`Walk::remove_node`].
    ///
    /// # Errors
    ///
    /// As [`DistanceEngine::add_node`]; no state changes on error.
    pub fn add_node(&mut self, u: NodeId, targets: Vec<NodeId>) -> Result<()> {
        self.engine.add_node(u, targets)?;
        self.after_churn_event();
        Ok(())
    }

    /// Forcibly rewires a live node — a *shock* (operator intervention,
    /// fault, or adversarial tamper), not a best response: it costs no
    /// step, counts no move, and resets the same scheduler state as a
    /// membership event (the walk is effectively restarted from the shocked
    /// configuration).
    ///
    /// # Errors
    ///
    /// As [`DistanceEngine::apply_strategy`]; no state changes on error.
    pub fn shock_node(&mut self, u: NodeId, targets: Vec<NodeId>) -> Result<()> {
        self.engine.apply_strategy(u, targets)?;
        self.after_churn_event();
        Ok(())
    }

    fn after_churn_event(&mut self) {
        self.stable_streak = 0;
        self.pos = 0;
        if let Some(history) = &mut self.history {
            history.clear();
        }
        self.mcf = None;
        self.note_connectivity();
    }

    // ----- service hooks ---------------------------------------------

    /// Resets the per-phase scheduler state — the round-robin cursor, the
    /// no-move streak, the cycle-detection history, and the max-cost queue
    /// — exactly as a churn event does, without touching the engine.
    ///
    /// After a reset the next [`Walk::run`] is a pure function of
    /// `(configuration, membership, scheduler)`: this is the hook the
    /// `bbc-serve` daemon uses to make every best-response round
    /// snapshot-compactable (a service restored from
    /// `(configuration, membership)` alone replays identical phases, with
    /// no hidden cursor state to capture). Accumulated [`WalkStats`] are
    /// kept — they are observability counters, not trajectory state.
    pub fn reset_phase(&mut self) {
        self.after_churn_event();
    }

    /// Compacts the engine's arenas to the canonical layout
    /// ([`DistanceEngine::canonicalize`]) and resets scheduler state like a
    /// churn event. After this, [`Walk::state_digest`] equals that of a
    /// fresh [`Walk::with_membership`] over the current configuration and
    /// membership — the invariant a snapshot's certified digest rests on.
    pub fn canonicalize(&mut self) {
        self.engine.canonicalize();
        self.after_churn_event();
    }

    /// Best-response *advice* for `u`: runs the engine's stability test —
    /// a full search honouring the walk's prefill policy and landmark
    /// bounds — without applying the move, counting a step, or touching
    /// any scheduler state.
    ///
    /// The outcome's effort counters ([`crate::BestResponseOutcome::bounds_hit`],
    /// [`crate::BestResponseOutcome::rows_materialized`]) accumulate into
    /// [`WalkStats`] like every other stability test. Advice warms the
    /// engine's caches but never changes observable state: the
    /// [`Walk::state_digest`] before and after is identical.
    ///
    /// # Errors
    ///
    /// [`crate::Error::NodeOutOfBounds`] for ids outside the game;
    /// [`crate::Error::NodeNotLive`] when `u` has departed;
    /// [`crate::Error::SearchBudgetExceeded`] from the search itself.
    pub fn advise(&mut self, u: NodeId) -> Result<crate::BestResponseOutcome> {
        self.check_queryable(u)?;
        self.test_node(u)
    }

    /// Cost of live node `u` under the current configuration (cached by
    /// the engine).
    ///
    /// # Errors
    ///
    /// [`crate::Error::NodeOutOfBounds`] for ids outside the game;
    /// [`crate::Error::NodeNotLive`] when `u` has departed (a departed
    /// node owes no distances; the engine would report 0, which a service
    /// client could mistake for a real cost).
    pub fn node_cost(&mut self, u: NodeId) -> Result<u64> {
        self.check_queryable(u)?;
        Ok(self.engine.node_cost(u))
    }

    /// Per-node query guard, in the same error order as the churn ops:
    /// out-of-range ids are [`crate::Error::NodeOutOfBounds`], in-range
    /// dead ones [`crate::Error::NodeNotLive`].
    fn check_queryable(&self, u: NodeId) -> Result<()> {
        let n = self.spec.node_count();
        if u.index() >= n {
            return Err(crate::Error::NodeOutOfBounds { node: u, n });
        }
        if !self.engine.is_live(u) {
            return Err(crate::Error::NodeNotLive { node: u });
        }
        Ok(())
    }

    /// The live members in ascending id order.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.engine.live_nodes()
    }

    /// Number of live members.
    pub fn live_count(&self) -> usize {
        self.engine.live_count()
    }

    /// `true` iff `u` is currently a live member.
    pub fn is_live(&self, u: NodeId) -> bool {
        self.engine.is_live(u)
    }

    /// Social cost of the current configuration over the live membership.
    pub fn social_cost(&mut self) -> u64 {
        self.engine.social_cost()
    }

    /// Disconnection-penalty exposure: ordered live pairs with no path
    /// (see [`DistanceEngine::disconnected_live_pairs`]).
    pub fn disconnected_live_pairs(&mut self) -> u64 {
        self.engine.disconnected_live_pairs()
    }

    /// The engine's state digest ([`DistanceEngine::state_digest`]):
    /// membership + strategies + physical CSR state.
    pub fn state_digest(&self) -> u64 {
        self.engine.state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StabilityChecker;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn round_robin_from_empty_reaches_equilibrium() {
        for n in [3usize, 5, 7] {
            let spec = GameSpec::uniform(n, 1);
            let mut walk = Walk::new(&spec, Configuration::empty(n));
            let outcome = walk.run(100_000).unwrap();
            assert!(
                matches!(outcome, WalkOutcome::Equilibrium { .. }),
                "n={n}: {outcome:?}"
            );
            assert!(StabilityChecker::new(&spec)
                .is_stable(walk.config())
                .unwrap());
        }
    }

    #[test]
    fn publishing_metrics_is_observational_only() {
        let n = 8;
        let spec = GameSpec::uniform(n, 2);
        let mut walk = Walk::new(&spec, Configuration::random_sparse(&spec, 5, 1));
        let _ = walk.run(500).unwrap();
        let digest = walk.state_digest();
        let mut reg = bbc_obs::Registry::new();
        walk.publish_metrics(&mut reg);
        let first = reg.to_json();
        assert_eq!(walk.state_digest(), digest, "publishing must not mutate");
        // Publishing is idempotent on a quiescent walk, and the walk
        // continues exactly as if nothing had been read.
        walk.publish_metrics(&mut reg);
        assert_eq!(reg.to_json(), first);
        assert_eq!(reg.counter("walk/steps"), Some(walk.stats().steps));
        let _ = walk.run(1_000).unwrap();
        let mut untouched = Walk::new(&spec, Configuration::random_sparse(&spec, 5, 1));
        let _ = untouched.run(500).unwrap();
        let _ = untouched.run(1_000).unwrap();
        assert_eq!(
            walk.state_digest(),
            untouched.state_digest(),
            "a metrics read must not fork the trajectory"
        );
    }

    #[test]
    fn equilibrium_start_terminates_in_one_round() {
        let n = 5;
        let spec = GameSpec::uniform(n, 1);
        let ring =
            Configuration::from_strategies(&spec, (0..n).map(|i| vec![v((i + 1) % n)]).collect())
                .unwrap();
        let mut walk = Walk::new(&spec, ring.clone());
        let outcome = walk.run(1000).unwrap();
        assert_eq!(outcome, WalkOutcome::Equilibrium { steps: n as u64 });
        assert_eq!(walk.config(), &ring, "nobody should have moved");
        assert_eq!(walk.stats().moves, 0);
    }

    #[test]
    fn strong_connectivity_reached_within_n_squared_steps() {
        // Theorem 6: at most n² steps to strong connectivity (round-robin).
        for seed in 0..5 {
            let n = 12;
            let spec = GameSpec::uniform(n, 2);
            let start = Configuration::random_sparse(&spec, seed, 1);
            let mut walk = Walk::new(&spec, start).detect_cycles(false);
            let _ = walk.run((n * n) as u64 + 10).unwrap();
            let sc = walk.stats().steps_to_strong_connectivity;
            assert!(sc.is_some(), "seed {seed}: never strongly connected");
            assert!(sc.unwrap() <= (n * n) as u64, "seed {seed}: took {sc:?}");
        }
    }

    #[test]
    fn reach_never_decreases_along_walk() {
        // Lemma 9's invariant, checked on a traced walk.
        let n = 10;
        let spec = GameSpec::uniform(n, 1);
        let start = Configuration::random_sparse(&spec, 77, 1);
        let mut walk = Walk::new(&spec, start.clone()).record_trace(true);
        let _ = walk.run(2_000).unwrap();

        // Replay moves, watching the mover's reach.
        let mut cfg = start;
        for mv in walk.trace() {
            let before = bbc_graph::reach::reach_of(&cfg.to_graph(&spec), mv.node.index());
            cfg.set_strategy(&spec, mv.node, mv.new_strategy.clone())
                .unwrap();
            let after = bbc_graph::reach::reach_of(&cfg.to_graph(&spec), mv.node.index());
            assert!(after >= before, "move at step {} decreased reach", mv.step);
        }
        assert_eq!(
            &cfg,
            walk.config(),
            "trace replay reproduces the final configuration"
        );
    }

    #[test]
    fn max_cost_first_reaches_equilibrium_from_empty() {
        let spec = GameSpec::uniform(6, 1);
        let mut walk =
            Walk::new(&spec, Configuration::empty(6)).with_scheduler(Scheduler::MaxCostFirst);
        let outcome = walk.run(10_000).unwrap();
        assert!(matches!(outcome, WalkOutcome::Equilibrium { .. }));
        assert!(StabilityChecker::new(&spec)
            .is_stable(walk.config())
            .unwrap());
    }

    #[test]
    fn random_scheduler_is_reproducible_and_converges() {
        let spec = GameSpec::uniform(6, 1);
        let run = |seed| {
            let mut walk = Walk::new(&spec, Configuration::empty(6))
                .with_scheduler(Scheduler::Random { seed });
            let outcome = walk.run(100_000).unwrap();
            (outcome, walk.into_config())
        };
        let (o1, c1) = run(5);
        let (o2, c2) = run(5);
        assert_eq!(o1, o2);
        assert_eq!(c1, c2);
        assert!(matches!(o1, WalkOutcome::Equilibrium { .. }));
        assert!(StabilityChecker::new(&spec).is_stable(&c1).unwrap());
    }

    #[test]
    fn explicit_order_is_respected() {
        let n = 4;
        let spec = GameSpec::uniform(n, 1);
        let order = vec![v(3), v(2), v(1), v(0)];
        let mut walk = Walk::new(&spec, Configuration::empty(n))
            .with_scheduler(Scheduler::RoundRobinOrder(order))
            .record_trace(true);
        let _ = walk.run(1000).unwrap();
        assert_eq!(
            walk.trace()[0].node,
            v(3),
            "first mover follows the explicit order"
        );
    }

    #[test]
    #[should_panic(expected = "order repeats")]
    fn duplicate_order_rejected() {
        let spec = GameSpec::uniform(3, 1);
        let _ = Walk::new(&spec, Configuration::empty(3))
            .with_scheduler(Scheduler::RoundRobinOrder(vec![v(0), v(0), v(1)]));
    }

    #[test]
    fn max_cost_first_counts_every_stability_test() {
        // Regression: from an equilibrium start, the single max-cost-first
        // scan probes all n nodes and must count all n stability tests —
        // the `WalkStats::steps` contract — not just one for the scan.
        let n = 5;
        let spec = GameSpec::uniform(n, 1);
        let ring =
            Configuration::from_strategies(&spec, (0..n).map(|i| vec![v((i + 1) % n)]).collect())
                .unwrap();
        let mut walk = Walk::new(&spec, ring.clone()).with_scheduler(Scheduler::MaxCostFirst);
        let outcome = walk.run(1000).unwrap();
        // Same accounting as the round-robin walk over the same start.
        assert_eq!(outcome, WalkOutcome::Equilibrium { steps: n as u64 });
        assert_eq!(walk.stats().moves, 0);
    }

    #[test]
    fn max_cost_first_move_records_use_step_indices() {
        // The MoveRecord.step of a max-cost-first move is the index of the
        // stability test that became the move, consistent with `step_node`.
        let spec = GameSpec::uniform(6, 1);
        let mut walk = Walk::new(&spec, Configuration::empty(6))
            .with_scheduler(Scheduler::MaxCostFirst)
            .record_trace(true);
        let _ = walk.run(10_000).unwrap();
        let steps = walk.stats().steps;
        let mut last = None;
        for mv in walk.trace() {
            assert!(mv.step < steps, "move step within the counted range");
            if let Some(prev) = last {
                assert!(mv.step > prev, "move steps strictly increase");
            }
            last = Some(mv.step);
        }
    }

    #[test]
    fn builder_calls_converge_regardless_of_order() {
        let spec = GameSpec::uniform(6, 2);

        // detect_cycles(true) then Random: detection off (non-deterministic).
        let w = Walk::new(&spec, Configuration::empty(6))
            .detect_cycles(true)
            .with_scheduler(Scheduler::Random { seed: 3 });
        assert!(w.history.is_none());
        assert!(w.rng.is_some());

        // Random then back to RoundRobin: the previously-requested history
        // revives and the stale RNG is dropped.
        let w = Walk::new(&spec, Configuration::empty(6))
            .detect_cycles(true)
            .with_scheduler(Scheduler::Random { seed: 3 })
            .with_scheduler(Scheduler::RoundRobin);
        assert!(
            w.history.is_some(),
            "cycle detection must survive a scheduler detour through Random"
        );
        assert!(w.rng.is_none(), "no stale RNG on a deterministic walk");

        // Opposite call order reaches the same state.
        let w = Walk::new(&spec, Configuration::empty(6))
            .with_scheduler(Scheduler::Random { seed: 3 })
            .with_scheduler(Scheduler::RoundRobin)
            .detect_cycles(true);
        assert!(w.history.is_some());
        assert!(w.rng.is_none());

        // Explicit opt-out is respected in any order.
        let w = Walk::new(&spec, Configuration::empty(6))
            .detect_cycles(false)
            .with_scheduler(Scheduler::MaxCostFirst);
        assert!(w.history.is_none());

        // A custom order is forgotten when plain RoundRobin is re-selected.
        let w = Walk::new(&spec, Configuration::empty(6))
            .with_scheduler(Scheduler::RoundRobinOrder(vec![
                v(5),
                v(4),
                v(3),
                v(2),
                v(1),
                v(0),
            ]))
            .with_scheduler(Scheduler::RoundRobin);
        assert_eq!(w.order, NodeId::all(6).collect::<Vec<_>>());
    }

    #[test]
    fn scheduler_switch_mid_run_resets_the_stability_streak() {
        // A walk cut off at a step limit can carry a partial no-move
        // streak; re-running after a scheduler switch must not let that
        // stale streak certify equilibrium before n fresh tests.
        for seed in 0..10 {
            let spec = GameSpec::uniform(5, 1);
            let mut walk = Walk::new(&spec, Configuration::random(&spec, seed));
            let _ = walk.run(3).unwrap();
            let mut walk = walk.with_scheduler(Scheduler::RoundRobin);
            if let WalkOutcome::Equilibrium { .. } = walk.run(100_000).unwrap() {
                assert!(
                    StabilityChecker::new(&spec)
                        .is_stable(walk.config())
                        .unwrap(),
                    "seed {seed}: certified equilibrium must actually be stable"
                );
            }
        }
    }

    #[test]
    fn scheduler_switch_mid_run_discards_stale_history() {
        // States recorded under one scheduler's dynamics must not be able
        // to certify a cycle under another: MaxCostFirst keeps pos = 0, so
        // without the reset a later round-robin run could match an MCF-era
        // `(config, 0)` key and report a loop that never happened.
        let spec = GameSpec::uniform(7, 2);
        let mut walk = Walk::new(&spec, Configuration::random(&spec, 3))
            .with_scheduler(Scheduler::MaxCostFirst);
        let _ = walk.run(20).unwrap();
        assert!(!walk.history.as_ref().unwrap().is_empty());
        let walk = walk.with_scheduler(Scheduler::RoundRobin);
        assert!(
            walk.history.as_ref().unwrap().is_empty(),
            "switching schedulers must not carry another dynamics' states"
        );
    }

    #[test]
    fn cycle_detection_revived_after_random_detour_finds_cycles() {
        // End-to-end: a walk that provably cycles under round-robin must
        // still report the cycle when the builder detoured through Random.
        let spec = GameSpec::uniform(7, 2);
        let find_cycling_seed = || {
            for seed in 0..400 {
                let mut walk = Walk::new(&spec, Configuration::random(&spec, seed));
                if matches!(walk.run(50_000), Ok(WalkOutcome::Cycle { .. })) {
                    return Some(seed);
                }
            }
            None
        };
        let seed = find_cycling_seed().expect("(7,2) cycles within 400 seeds");
        let mut detoured = Walk::new(&spec, Configuration::random(&spec, seed))
            .with_scheduler(Scheduler::Random { seed: 1 })
            .with_scheduler(Scheduler::RoundRobin);
        let mut direct = Walk::new(&spec, Configuration::random(&spec, seed));
        assert_eq!(
            detoured.run(50_000).unwrap(),
            direct.run(50_000).unwrap(),
            "detoured builder must replay the direct walk exactly"
        );
    }

    /// The recompute-and-sort max-cost-first walk, written against the
    /// engine's public API: before every step it recomputes every live
    /// node's cost, sorts (max cost first, ties by lowest id) and probes in
    /// that order until a node moves. Its accounting follows [`Walk::run`]:
    /// cycle detection on the pre-step configuration, one step per
    /// stability test, connectivity noted at the start and after each move.
    fn max_cost_first_by_rescan(
        spec: &GameSpec,
        start: Configuration,
        max_steps: u64,
    ) -> (WalkOutcome, WalkStats, Vec<MoveRecord>, Configuration) {
        let n = spec.node_count();
        let options = BestResponseOptions::default();
        let mut engine = DistanceEngine::new(spec, start);
        let mut stats = WalkStats::default();
        let mut trace = Vec::new();
        let mut history = DetHashMap::default();
        let note = |engine: &mut DistanceEngine, stats: &mut WalkStats| {
            if stats.steps_to_strong_connectivity.is_none() && engine.is_strongly_connected() {
                stats.steps_to_strong_connectivity = Some(stats.steps);
            }
        };
        note(&mut engine, &mut stats);
        let outcome = loop {
            if stats.steps >= max_steps {
                break WalkOutcome::StepLimit { steps: stats.steps };
            }
            if let Some(&first) = history.get(engine.config()) {
                break WalkOutcome::Cycle {
                    first_seen_step: first,
                    period: stats.steps - first,
                };
            }
            history.insert(engine.config().clone(), stats.steps);
            let costs = engine.node_costs();
            let mut order: Vec<NodeId> = NodeId::all(n).filter(|&u| engine.is_live(u)).collect();
            order.sort_by_key(|&u| (std::cmp::Reverse(costs[u.index()]), u));
            let mut moved = false;
            for u in order {
                let out = engine.best_response(u, &options).unwrap();
                stats.bounds_hit += out.bounds_hit;
                stats.rows_materialized += out.rows_materialized;
                stats.steps += 1;
                if out.improves() {
                    trace.push(MoveRecord {
                        step: stats.steps - 1,
                        node: u,
                        old_strategy: engine.config().strategy(u).to_vec(),
                        new_strategy: out.best_strategy.clone(),
                        old_cost: out.current_cost,
                        new_cost: out.best_cost,
                    });
                    engine.apply_strategy(u, out.best_strategy).unwrap();
                    stats.moves += 1;
                    note(&mut engine, &mut stats);
                    moved = true;
                    break;
                }
            }
            if !moved {
                break WalkOutcome::Equilibrium { steps: stats.steps };
            }
        };
        (outcome, stats, trace, engine.into_config())
    }

    #[test]
    fn max_cost_first_queue_replays_the_frozen_rescan_exactly() {
        // The engine-aware priority-queue scheduler must reproduce the
        // recompute-and-sort reference *exactly*: same probe count (steps),
        // same movers in the same order, same endpoint — from random
        // starts, from an equilibrium start, and with the search budget
        // exercised by several (n, k) shapes.
        for (n, k, seeds) in [(6usize, 1u64, 0..6u64), (8, 2, 0..4), (10, 2, 0..3)] {
            let spec = GameSpec::uniform(n, k);
            for seed in seeds {
                let start = Configuration::random(&spec, seed);
                let mut walk = Walk::new(&spec, start.clone())
                    .with_scheduler(Scheduler::MaxCostFirst)
                    .record_trace(true);
                let outcome = walk.run(4_000).unwrap();
                let queue = (
                    outcome,
                    walk.stats().clone(),
                    walk.trace().to_vec(),
                    walk.into_config(),
                );
                assert_eq!(
                    queue,
                    max_cost_first_by_rescan(&spec, start, 4_000),
                    "n={n} k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn max_cost_first_queue_counts_equilibrium_scan_steps() {
        // From an equilibrium start the single scan probes all n nodes and
        // counts all n stability tests — the WalkStats contract — on the
        // queue path just like in a recompute-and-sort scan.
        let n = 5;
        let spec = GameSpec::uniform(n, 1);
        let ring =
            Configuration::from_strategies(&spec, (0..n).map(|i| vec![v((i + 1) % n)]).collect())
                .unwrap();
        let mut walk = Walk::new(&spec, ring).with_scheduler(Scheduler::MaxCostFirst);
        let outcome = walk.run(1000).unwrap();
        assert_eq!(outcome, WalkOutcome::Equilibrium { steps: n as u64 });
        assert_eq!(walk.stats().moves, 0);
    }

    #[test]
    fn walks_skip_departed_members_on_every_scheduler() {
        for scheduler in [
            Scheduler::RoundRobin,
            Scheduler::MaxCostFirst,
            Scheduler::Random { seed: 3 },
        ] {
            let spec = GameSpec::uniform(8, 2);
            let mut walk = Walk::new(&spec, Configuration::random(&spec, 2))
                .with_scheduler(scheduler.clone())
                .record_trace(true);
            walk.remove_node(v(3)).unwrap();
            walk.remove_node(v(6)).unwrap();
            let outcome = walk.run(100_000).unwrap();
            assert!(
                matches!(
                    outcome,
                    WalkOutcome::Equilibrium { .. } | WalkOutcome::Cycle { .. }
                ),
                "{scheduler:?}: {outcome:?}"
            );
            for mv in walk.trace() {
                assert_ne!(mv.node, v(3), "{scheduler:?}: departed node moved");
                assert_ne!(mv.node, v(6), "{scheduler:?}: departed node moved");
            }
            if matches!(outcome, WalkOutcome::Equilibrium { .. }) {
                // Every live node really is stable in the masked game.
                let report = StabilityChecker::new(&spec)
                    .check_with_engine(&mut walk.engine)
                    .unwrap();
                assert!(report.stable, "{scheduler:?}: {:?}", report.deviations);
            }
        }
    }

    #[test]
    fn churned_walk_matches_fresh_membership_walk() {
        // A walk that churns and re-equilibrates must land in exactly the
        // state a fresh walk started from the post-churn snapshot lands in.
        let spec = GameSpec::uniform(9, 2);
        let mut walk = Walk::new(&spec, Configuration::random(&spec, 5)).detect_cycles(false);
        let _ = walk.run(200).unwrap();
        walk.remove_node(v(2)).unwrap();
        walk.remove_node(v(7)).unwrap();
        walk.add_node(v(2), vec![v(0), v(4)]).unwrap();
        let snapshot = walk.config().clone();
        let live = walk.engine.live_set().clone();
        let pre_churn_steps = walk.stats().steps;
        let target = pre_churn_steps + 50_000;
        let outcome = walk.run(target).unwrap();

        let mut fresh = Walk::with_membership(&spec, snapshot, &live)
            .unwrap()
            .detect_cycles(false);
        let fresh_outcome = fresh.run(50_000).unwrap();
        match (outcome, fresh_outcome) {
            (
                WalkOutcome::Equilibrium { steps },
                WalkOutcome::Equilibrium { steps: fresh_steps },
            ) => {
                assert_eq!(
                    steps - pre_churn_steps,
                    fresh_steps,
                    "same number of post-churn steps"
                );
            }
            (a, b) => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
        assert_eq!(walk.config(), fresh.config());
        assert_eq!(walk.state_digest(), fresh.state_digest());
    }

    #[test]
    fn reset_phase_makes_runs_pure_in_config_and_membership() {
        // The bbc-serve snapshot contract: after reset_phase(), a run is a
        // pure function of (configuration, membership, scheduler), so a
        // walk restored from those alone replays the identical phase even
        // when the original was interrupted mid-round.
        let spec = GameSpec::uniform(7, 2);
        let mut walk = Walk::new(&spec, Configuration::random(&spec, 11));
        let _ = walk.run(3).unwrap(); // park the cursor mid-round
        walk.remove_node(v(5)).unwrap();
        let mid = walk.config().clone();
        let live = walk.engine.live_set().clone();
        walk.reset_phase();
        let steps_before = walk.stats().steps;
        let target = steps_before + 50_000;
        let outcome = walk.run(target).unwrap();

        let mut restored = Walk::with_membership(&spec, mid, &live).unwrap();
        let restored_outcome = restored.run(50_000).unwrap();
        match (outcome, restored_outcome) {
            (WalkOutcome::Equilibrium { steps }, WalkOutcome::Equilibrium { steps: r }) => {
                assert_eq!(steps - steps_before, r, "same post-reset step count");
            }
            (a, b) => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
        assert_eq!(walk.config(), restored.config());
        assert_eq!(walk.state_digest(), restored.state_digest());
    }

    #[test]
    fn canonicalize_makes_the_digest_rebuildable() {
        // The snapshot contract: state_digest hashes the physical CSR
        // arenas, and strategy patches (best-response moves, shocks) leave
        // them history-dependent. canonicalize() must land the walk on the
        // exact digest a fresh with_membership build of the same semantic
        // state produces — that is what lets a snapshot certify a digest a
        // restore can verify.
        let spec = GameSpec::uniform(9, 2);
        let mut walk = Walk::new(&spec, Configuration::empty(9));
        let _ = walk.run(50_000).unwrap(); // settle: patches on a fresh arena
        walk.remove_node(v(3)).unwrap(); // canonical again here
        let target = walk.stats().steps + 50_000;
        let _ = walk.run(target).unwrap(); // re-settle: patches on top
        walk.shock_node(v(0), vec![v(1)]).unwrap();

        let rebuilt =
            Walk::with_membership(&spec, walk.config().clone(), walk.engine.live_set()).unwrap();
        walk.canonicalize();
        assert_eq!(
            walk.state_digest(),
            rebuilt.state_digest(),
            "canonicalized digest equals the fresh-rebuild digest"
        );
        assert_eq!(walk.config(), rebuilt.config(), "semantic state untouched");
    }

    #[test]
    fn advise_observes_without_mutating() {
        let spec = GameSpec::uniform(5, 1);
        let mut walk = Walk::new(&spec, Configuration::empty(5));
        let before = walk.state_digest();
        let advice = walk.advise(v(0)).unwrap();
        assert!(advice.improves(), "empty start: any link beats isolation");
        assert_eq!(walk.state_digest(), before, "advice never mutates state");
        assert_eq!(walk.stats().steps, 0, "advice costs no walk step");
        assert_eq!(walk.config(), &Configuration::empty(5));
    }

    #[test]
    fn service_queries_guard_liveness() {
        let spec = GameSpec::uniform(6, 1);
        let mut walk = Walk::new(&spec, Configuration::empty(6));
        walk.remove_node(v(2)).unwrap();
        assert!(matches!(
            walk.advise(v(2)),
            Err(crate::Error::NodeNotLive { node }) if node == v(2)
        ));
        assert!(matches!(
            walk.node_cost(v(2)),
            Err(crate::Error::NodeNotLive { node }) if node == v(2)
        ));
        assert!(walk.node_cost(v(0)).unwrap() > 0, "isolated node pays M");
        assert_eq!(
            walk.live_nodes().collect::<Vec<_>>(),
            vec![v(0), v(1), v(3), v(4), v(5)]
        );
    }

    #[test]
    fn shock_restarts_equilibrium_certification() {
        let spec = GameSpec::uniform(6, 1);
        let mut walk = Walk::new(&spec, Configuration::empty(6));
        let _ = walk.run(100_000).unwrap();
        let settled = walk.config().clone();
        // Shock node 0 onto a (probably) suboptimal link; the walk must
        // re-test everyone before re-certifying equilibrium.
        walk.shock_node(v(0), vec![v(3)]).unwrap();
        let target = walk.stats().steps + 100_000;
        let outcome = walk.run(target).unwrap();
        assert!(matches!(outcome, WalkOutcome::Equilibrium { .. }));
        assert!(crate::StabilityChecker::new(&spec)
            .is_stable(walk.config())
            .unwrap());
        let _ = settled;
    }

    #[test]
    fn prefill_threads_never_change_the_walk() {
        // The parallel oracle fan-out is an execution policy, not a
        // semantic one: outcome, endpoint, steps and moves must be
        // byte-identical for every thread count, on every scheduler.
        for scheduler in [
            Scheduler::RoundRobin,
            Scheduler::MaxCostFirst,
            Scheduler::Random { seed: 7 },
        ] {
            let spec = GameSpec::uniform(10, 2);
            let start = Configuration::random(&spec, 42);
            let run = |threads: usize| {
                let mut walk = Walk::new(&spec, start.clone())
                    .with_scheduler(scheduler.clone())
                    .prefill_threads(threads);
                let outcome = walk.run(2_000).unwrap();
                (outcome, walk.stats().clone(), walk.into_config())
            };
            let base = run(1);
            for threads in [2usize, 4] {
                assert_eq!(run(threads), base, "{scheduler:?} threads={threads}");
            }
        }
    }

    #[test]
    fn step_limit_reported() {
        let spec = GameSpec::uniform(8, 2);
        let mut walk = Walk::new(&spec, Configuration::empty(8));
        let outcome = walk.run(3).unwrap();
        assert_eq!(outcome, WalkOutcome::StepLimit { steps: 3 });
    }

    #[test]
    fn trace_records_costs_consistently() {
        let spec = GameSpec::uniform(6, 2);
        let mut walk = Walk::new(&spec, Configuration::empty(6)).record_trace(true);
        let _ = walk.run(10_000).unwrap();
        for mv in walk.trace() {
            assert!(mv.new_cost < mv.old_cost, "recorded moves strictly improve");
        }
        assert_eq!(walk.stats().moves as usize, walk.trace().len());
    }
}
