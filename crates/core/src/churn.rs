//! Churn runtime: dynamic node membership under best-response play.
//!
//! The BBC paper's motivating domain is peer-to-peer overlays (§1.1), whose
//! defining workload is *churn*: peers join and leave while the remaining
//! players re-optimize their bounded-budget links. [`ChurnSim`] drives that
//! workload end to end on the engine's node-lifecycle layer
//! ([`crate::DistanceEngine::remove_node`] /
//! [`crate::DistanceEngine::add_node`]): a deterministic, seed-driven event
//! stream of joins, leaves and (optional) strategy shocks is interleaved
//! with best-response play through the ordinary [`Walk`] schedulers.
//!
//! # Event model
//!
//! Between stabilization phases the sim draws one [`ChurnEvent`] from a
//! seeded RNG, weighted by [`ChurnConfig`] and gated by feasibility:
//!
//! * **leave** — a uniformly drawn live peer departs (never below
//!   [`ChurnConfig::min_live`] members). Its links, and every link *to* it,
//!   vanish; the survivors are left holding the disconnection exposure.
//! * **join** — a uniformly drawn departed slot is re-admitted with a
//!   random budget-greedy strategy over *live* targets (in-links form later
//!   through the other players' best responses, as in a real overlay).
//! * **shock** — a live peer's strategy is forcibly rewired to a random
//!   one (operator intervention or fault; off by default —
//!   [`ChurnConfig::shock_weight`] is 0).
//!
//! After each event the walk runs until it re-certifies an equilibrium,
//! certifies an exact best-response loop (§4.3 play need not settle), or
//! the per-event budget [`ChurnConfig::settle_steps`] expires, and the sim
//! records the stabilization metrics in an [`EventRecord`]: steps and moves
//! to re-equilibrate, the social-cost spike and the regret it implies, and
//! the disconnection-penalty exposure the event created and how much of it
//! survived settling.
//!
//! # Determinism contract
//!
//! Everything is a pure function of `(spec, start, ChurnConfig)`: the RNG
//! is a seeded [`SmallRng`] consulted in a fixed order, and schedulers are
//! the deterministic [`Walk`] ones — so the full event/move trajectory
//! (hence [`ChurnReport::trajectory_digest`]) reproduces bit-for-bit across
//! runs and machines. The release test suite pins a fixed seed's digest.
//!
//! ```
//! use bbc_core::{ChurnConfig, ChurnSim, Configuration, GameSpec};
//!
//! let spec = GameSpec::uniform(8, 1);
//! let cfg = ChurnConfig {
//!     seed: 7,
//!     events: 4,
//!     settle_steps: 10_000,
//!     ..ChurnConfig::default()
//! };
//! let report = ChurnSim::new(&spec, Configuration::empty(8), cfg.clone()).run()?;
//! assert_eq!(report.events.len(), 4);
//! assert!(report.initial_settled, "an (8,1) game settles from empty");
//! // Determinism: an identical sim replays the identical trajectory.
//! let again = ChurnSim::new(&spec, Configuration::empty(8), cfg).run()?;
//! assert_eq!(report.trajectory_digest, again.trajectory_digest);
//! # Ok::<(), bbc_core::Error>(())
//! ```

use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{Configuration, GameSpec, NodeId, Result, Scheduler, Walk, WalkOutcome};

/// Tuning of a churn simulation. Everything that decides the trajectory is
/// in here — two sims with equal `(spec, start, config)` are byte-identical.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Seed of the event stream (and of join/shock strategy draws).
    pub seed: u64,
    /// Number of churn events to apply.
    pub events: u32,
    /// Leaves never drop the membership below this many live peers.
    pub min_live: usize,
    /// Per-phase step budget: the initial stabilization and each post-event
    /// re-equilibration run at most this many best-response steps.
    pub settle_steps: u64,
    /// Relative weight of leave events (when feasible).
    pub leave_weight: u32,
    /// Relative weight of join events (when a departed slot exists).
    pub join_weight: u32,
    /// Relative weight of strategy shocks (0 disables them — the default).
    pub shock_weight: u32,
    /// Does nothing: the sim runs on the calling thread. Kept for the
    /// benchmark package, which still sets it, until ROADMAP item 2(c)
    /// removes it.
    pub prefill_threads: usize,
    /// Which deterministic scheduler plays between events.
    pub scheduler: Scheduler,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            events: 8,
            min_live: 2,
            settle_steps: 100_000,
            leave_weight: 1,
            join_weight: 1,
            shock_weight: 0,
            prefill_threads: 1,
            scheduler: Scheduler::RoundRobin,
        }
    }
}

/// One membership / strategy perturbation applied by the sim.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// A live peer departed.
    Leave {
        /// The departing peer.
        node: NodeId,
    },
    /// A departed slot (re)joined with the given opening strategy.
    Join {
        /// The joining peer.
        node: NodeId,
        /// Its opening links (random budget-greedy over live targets).
        strategy: Vec<NodeId>,
    },
    /// A live peer's strategy was forcibly rewired (no best response).
    Shock {
        /// The shocked peer.
        node: NodeId,
        /// The imposed strategy.
        strategy: Vec<NodeId>,
    },
}

impl ChurnEvent {
    /// The peer the event acts on.
    pub fn node(&self) -> NodeId {
        match self {
            ChurnEvent::Leave { node }
            | ChurnEvent::Join { node, .. }
            | ChurnEvent::Shock { node, .. } => *node,
        }
    }
}

/// Stabilization metrics of one applied event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// The applied event.
    pub event: ChurnEvent,
    /// Live members after the event.
    pub live_after: u32,
    /// Social cost just before the event (post previous settling).
    pub cost_before: u64,
    /// Social cost immediately after the event, before any best response —
    /// the spike the survivors must play their way out of.
    pub cost_spike: u64,
    /// Ordered live pairs left unreachable by the event (each priced at
    /// `w·M` inside [`EventRecord::cost_spike`]).
    pub disconnected_after_event: u64,
    /// Best-response steps (stability tests) until re-certified equilibrium
    /// or budget expiry.
    pub steps_to_requilibrate: u64,
    /// Strategy changes among those steps.
    pub moves: u64,
    /// `true` when the walk re-certified a pure Nash equilibrium within the
    /// budget.
    pub settled: bool,
    /// `true` when the phase instead certified an exact best-response loop
    /// (§4.3: BBC games are not potential games — play may never settle).
    pub looped: bool,
    /// Social cost after settling.
    pub cost_settled: u64,
    /// Disconnection exposure that survived settling (0 = fully healed).
    pub disconnected_settled: u64,
    /// `cost_spike − cost_settled`: how much of the spike best-response
    /// play recovered (negative when settling got *costlier*, which joins
    /// can legitimately cause — more live pairs to serve).
    pub regret: i64,
}

/// Everything a finished churn simulation measured.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Steps of the initial (pre-churn) stabilization phase.
    pub initial_steps: u64,
    /// Whether the initial phase certified an equilibrium.
    pub initial_settled: bool,
    /// One record per applied event, in order.
    pub events: Vec<EventRecord>,
    /// Live members at the end.
    pub final_live: u32,
    /// Social cost at the end.
    pub final_social_cost: u64,
    /// The final engine state digest
    /// ([`crate::DistanceEngine::state_digest`]).
    pub state_digest: u64,
    /// FNV-1a digest of the full trajectory: every event, every metric,
    /// and the final state. Equal digests ⇒ byte-identical runs.
    pub trajectory_digest: u64,
}

impl ChurnReport {
    /// Fraction of events whose re-equilibration settled within budget
    /// (1.0 when no events were applied).
    pub fn settled_fraction(&self) -> f64 {
        if self.events.is_empty() {
            return 1.0;
        }
        self.events.iter().filter(|e| e.settled).count() as f64 / self.events.len() as f64
    }

    /// Largest per-event re-equilibration step count.
    pub fn max_steps_to_requilibrate(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.steps_to_requilibrate)
            .max()
            .unwrap_or(0)
    }

    /// Mean per-event re-equilibration step count (0 with no events).
    pub fn mean_steps_to_requilibrate(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.events
            .iter()
            .map(|e| e.steps_to_requilibrate)
            .sum::<u64>() as f64
            / self.events.len() as f64
    }

    /// Sum of the per-event regrets (spike minus settled cost).
    pub fn total_regret(&self) -> i64 {
        self.events.iter().map(|e| e.regret).sum()
    }

    /// Largest disconnection exposure any single event created.
    pub fn max_disconnected(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.disconnected_after_event)
            .max()
            .unwrap_or(0)
    }

    /// `true` when every event's disconnection exposure was fully healed
    /// by its re-equilibration phase.
    pub fn all_exposure_healed(&self) -> bool {
        self.events.iter().all(|e| e.disconnected_settled == 0)
    }
}

/// A churn-capable overlay simulation (see the module docs).
#[derive(Debug)]
pub struct ChurnSim<'a> {
    walk: Walk<'a>,
    rng: SmallRng,
    cfg: ChurnConfig,
    capacity: usize,
}

impl<'a> ChurnSim<'a> {
    /// Creates a simulation over `spec`'s full peer universe, starting from
    /// `start` with every node live.
    ///
    /// # Panics
    ///
    /// Panics if `start`'s node count differs from the spec's.
    pub fn new(spec: &'a GameSpec, start: Configuration, cfg: ChurnConfig) -> Self {
        // Cycle detection stays on: §4.3 walks need not settle at all, and
        // a certified exact-state loop ends a phase deterministically
        // instead of burning the whole settle budget re-treading it.
        let walk = Walk::new(spec, start).with_scheduler(cfg.scheduler.clone());
        Self {
            walk,
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            capacity: spec.node_count(),
        }
    }

    /// [`ChurnSim::new`] on an explicit engine row tier (the tier never
    /// changes a trajectory — the cross-width differential suite pins it —
    /// so this exists for benchmarks and tier-forcing tests).
    ///
    /// # Errors
    ///
    /// As [`crate::DistanceEngine::with_tier`].
    pub fn with_tier(
        spec: &'a GameSpec,
        start: Configuration,
        cfg: ChurnConfig,
        tier: crate::RowTier,
    ) -> Result<Self> {
        let walk = Walk::with_tier(spec, start, tier)?.with_scheduler(cfg.scheduler.clone());
        Ok(Self {
            walk,
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            capacity: spec.node_count(),
        })
    }

    /// Returns the sim unchanged. Kept for the benchmark package until
    /// ROADMAP item 2(c) removes it.
    #[must_use]
    pub fn with_landmarks(self, _policy: crate::LandmarkPolicy) -> Self {
        self
    }

    /// The walk (and engine state) as the simulation left it.
    pub fn walk(&self) -> &Walk<'a> {
        &self.walk
    }

    /// Consumes the sim, returning the walk for further play.
    pub fn into_walk(self) -> Walk<'a> {
        self.walk
    }

    /// Runs the full simulation: initial stabilization, then
    /// [`ChurnConfig::events`] draw/apply/settle rounds.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::Error::SearchBudgetExceeded`] from the
    /// best-response searches.
    pub fn run(&mut self) -> Result<ChurnReport> {
        let initial_outcome = self.settle()?;
        let initial_steps = self.walk.stats().steps;
        let initial_settled = matches!(initial_outcome, WalkOutcome::Equilibrium { .. });

        let mut events = Vec::new();
        for _ in 0..self.cfg.events {
            let cost_before = self.walk.social_cost();
            let Some(event) = self.draw_event() else {
                break; // no feasible event under the configured weights
            };
            match &event {
                ChurnEvent::Leave { node } => self.walk.remove_node(*node)?,
                ChurnEvent::Join { node, strategy } => {
                    self.walk.add_node(*node, strategy.clone())?;
                }
                ChurnEvent::Shock { node, strategy } => {
                    self.walk.shock_node(*node, strategy.clone())?;
                }
            }
            let cost_spike = self.walk.social_cost();
            let disconnected_after_event = self.walk.disconnected_live_pairs();
            let steps_before = self.walk.stats().steps;
            let moves_before = self.walk.stats().moves;
            let outcome = self.settle()?;
            let cost_settled = self.walk.social_cost();
            events.push(EventRecord {
                live_after: self.walk.live_count() as u32,
                cost_before,
                cost_spike,
                disconnected_after_event,
                steps_to_requilibrate: self.walk.stats().steps - steps_before,
                moves: self.walk.stats().moves - moves_before,
                settled: matches!(outcome, WalkOutcome::Equilibrium { .. }),
                looped: matches!(outcome, WalkOutcome::Cycle { .. }),
                cost_settled,
                disconnected_settled: self.walk.disconnected_live_pairs(),
                regret: cost_spike as i64 - cost_settled as i64,
                event,
            });
        }

        let mut report = ChurnReport {
            initial_steps,
            initial_settled,
            final_live: self.walk.live_count() as u32,
            final_social_cost: self.walk.social_cost(),
            state_digest: self.walk.state_digest(),
            trajectory_digest: 0,
            events,
        };
        report.trajectory_digest = digest_report(&report);
        Ok(report)
    }

    /// Runs the walk for up to [`ChurnConfig::settle_steps`] further steps.
    fn settle(&mut self) -> Result<WalkOutcome> {
        let target = self.walk.stats().steps + self.cfg.settle_steps;
        self.walk.run(target)
    }

    /// Draws the next feasible event; `None` when every weight is gated off
    /// (e.g. joins disabled and the membership already at `min_live`).
    fn draw_event(&mut self) -> Option<ChurnEvent> {
        let live_count = self.walk.live_count();
        let w_leave = if live_count > self.cfg.min_live {
            self.cfg.leave_weight
        } else {
            0
        };
        let w_join = if live_count < self.capacity {
            self.cfg.join_weight
        } else {
            0
        };
        let w_shock = if live_count > 0 {
            self.cfg.shock_weight
        } else {
            0
        };
        let total = w_leave + w_join + w_shock;
        if total == 0 {
            return None;
        }
        let roll = self.rng.gen_range(0..total);
        if roll < w_leave {
            let i = self.rng.gen_range(0..live_count);
            let node = self.nth_member(i, true);
            Some(ChurnEvent::Leave { node })
        } else if roll < w_leave + w_join {
            let dead = self.capacity - live_count;
            let i = self.rng.gen_range(0..dead);
            let node = self.nth_member(i, false);
            let strategy = self.random_live_strategy(node);
            Some(ChurnEvent::Join { node, strategy })
        } else {
            let i = self.rng.gen_range(0..live_count);
            let node = self.nth_member(i, true);
            let strategy = self.random_live_strategy(node);
            Some(ChurnEvent::Shock { node, strategy })
        }
    }

    /// The `i`-th live (or departed) node in ascending id order.
    fn nth_member(&self, i: usize, live: bool) -> NodeId {
        NodeId::all(self.capacity)
            .filter(|&u| self.walk.is_live(u) == live)
            .nth(i)
            // bbc-lint: allow(panic, callers draw i below the live or departed member count)
            .expect("index drawn below the member count")
    }

    /// A random budget-greedy strategy over live, affordable targets —
    /// the churn analogue of [`Configuration::random`]'s per-node draw.
    fn random_live_strategy(&mut self, u: NodeId) -> Vec<NodeId> {
        let spec = self.walk.spec();
        let mut pool: Vec<NodeId> = spec
            .affordable_targets(u)
            .into_iter()
            .filter(|&v| v != u && self.walk.is_live(v))
            .collect();
        pool.shuffle(&mut self.rng);
        let mut remaining = spec.budget(u);
        let mut picks = Vec::new();
        for v in pool {
            let c = spec.link_cost(u, v);
            if c <= remaining {
                remaining -= c;
                picks.push(v);
            }
        }
        picks.sort_unstable();
        picks
    }
}

/// FNV-1a over every field of the report except the digest itself (the
/// shared [`bbc_graph::digest::Fnv1a`] fold, so every determinism digest in
/// the workspace uses identical constants).
fn digest_report(report: &ChurnReport) -> u64 {
    let mut h = bbc_graph::digest::Fnv1a::new();
    h.write_u64(report.initial_steps);
    h.write_u64(u64::from(report.initial_settled));
    for e in &report.events {
        let (tag, node, strategy): (u64, NodeId, &[NodeId]) = match &e.event {
            ChurnEvent::Leave { node } => (0, *node, &[]),
            ChurnEvent::Join { node, strategy } => (1, *node, strategy),
            ChurnEvent::Shock { node, strategy } => (2, *node, strategy),
        };
        h.write_u64(tag);
        h.write_u64(node.index() as u64);
        h.write_u64(strategy.len() as u64);
        for &t in strategy {
            h.write_u64(t.index() as u64);
        }
        h.write_u64(u64::from(e.live_after));
        h.write_u64(e.cost_before);
        h.write_u64(e.cost_spike);
        h.write_u64(e.disconnected_after_event);
        h.write_u64(e.steps_to_requilibrate);
        h.write_u64(e.moves);
        h.write_u64(u64::from(e.settled));
        h.write_u64(u64::from(e.looped));
        h.write_u64(e.cost_settled);
        h.write_u64(e.disconnected_settled);
        h.write_u64(e.regret as u64);
    }
    h.write_u64(u64::from(report.final_live));
    h.write_u64(report.final_social_cost);
    h.write_u64(report.state_digest);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64, events: u32) -> ChurnConfig {
        ChurnConfig {
            seed,
            events,
            settle_steps: 50_000,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn sim_is_deterministic_across_schedulers_only_via_config() {
        // Different schedulers give different trajectories; the same
        // config replays exactly.
        let spec = GameSpec::uniform(9, 1);
        let start = Configuration::random(&spec, 1);
        for scheduler in [Scheduler::RoundRobin, Scheduler::MaxCostFirst] {
            let mut c = cfg(7, 5);
            c.scheduler = scheduler;
            let a = ChurnSim::new(&spec, start.clone(), c.clone())
                .run()
                .unwrap();
            let b = ChurnSim::new(&spec, start.clone(), c).run().unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn events_respect_membership_gates() {
        let spec = GameSpec::uniform(6, 1);
        // Leaves only (joins disabled): the membership must stop shrinking
        // at min_live, after which no feasible event remains.
        let mut c = cfg(11, 10);
        c.join_weight = 0;
        c.min_live = 3;
        let report = ChurnSim::new(&spec, Configuration::empty(6), c)
            .run()
            .unwrap();
        assert_eq!(report.events.len(), 3, "6 → 3 live, then gated off");
        assert!(report
            .events
            .iter()
            .all(|e| matches!(e.event, ChurnEvent::Leave { .. })));
        assert_eq!(report.final_live, 3);
    }

    #[test]
    fn leaves_expose_and_requilibration_heals() {
        // In a settled (n,1) ring-like equilibrium a leave tears the
        // cycle; the survivors must re-link and heal every disconnected
        // pair within the budget.
        let spec = GameSpec::uniform(8, 1);
        let mut c = cfg(5, 4);
        c.join_weight = 0;
        c.min_live = 4;
        let report = ChurnSim::new(&spec, Configuration::empty(8), c)
            .run()
            .unwrap();
        assert!(report.initial_settled);
        assert_eq!(report.events.len(), 4);
        for e in &report.events {
            assert!(e.settled, "every (n,1) re-equilibration settles");
            assert_eq!(e.disconnected_settled, 0, "exposure fully healed");
        }
        assert!(report.all_exposure_healed());
        assert!(report.settled_fraction() >= 1.0);
    }

    #[test]
    fn joins_and_leaves_interleave_and_strategies_stay_valid() {
        let spec = GameSpec::uniform(10, 2);
        let mut c = cfg(23, 12);
        c.shock_weight = 1;
        let mut sim = ChurnSim::new(&spec, Configuration::random(&spec, 9), c);
        let report = sim.run().unwrap();
        assert_eq!(report.events.len(), 12);
        let kinds: Vec<bool> = report
            .events
            .iter()
            .map(|e| matches!(e.event, ChurnEvent::Leave { .. }))
            .collect();
        assert!(kinds.iter().any(|&k| k), "seed 23 draws at least one leave");
        assert!(
            kinds.iter().any(|&k| !k),
            "seed 23 draws at least one join/shock"
        );
        // The final configuration is valid for the final membership.
        let walk = sim.walk();
        for u in NodeId::all(10) {
            if !walk.is_live(u) {
                assert!(walk.config().strategy(u).is_empty());
            } else {
                for &t in walk.config().strategy(u) {
                    assert!(walk.is_live(t), "live {u} links to departed {t}");
                }
            }
        }
    }

    #[test]
    fn regret_accounts_spike_minus_settled() {
        let spec = GameSpec::uniform(8, 1);
        let report = ChurnSim::new(&spec, Configuration::empty(8), cfg(2, 5))
            .run()
            .unwrap();
        for e in &report.events {
            assert_eq!(e.regret, e.cost_spike as i64 - e.cost_settled as i64);
        }
        assert_eq!(
            report.total_regret(),
            report.events.iter().map(|e| e.regret).sum::<i64>()
        );
    }
}
