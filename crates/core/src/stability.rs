//! Pure Nash equilibrium (stability) checking.
//!
//! A configuration is *stable* (§2) when no node can strictly lower its cost
//! by re-buying its links, everyone else held fixed. [`StabilityChecker`]
//! decides this exactly via the per-node best-response search, returning
//! concrete [`Deviation`] witnesses when the answer is "unstable".

use serde::{Deserialize, Serialize};

use crate::{
    best_response::{self, BestResponseOptions},
    Configuration, DistanceEngine, GameSpec, NodeId, Result,
};

/// A profitable unilateral deviation: proof that a configuration is not a
/// pure Nash equilibrium.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Deviation {
    /// The node that benefits from switching.
    pub node: NodeId,
    /// Its cost under the current configuration.
    pub current_cost: u64,
    /// Its cost after switching to [`Deviation::strategy`].
    pub improved_cost: u64,
    /// The cheaper strategy (not necessarily the node's optimum when the
    /// checker runs in first-improvement mode).
    pub strategy: Vec<NodeId>,
}

impl Deviation {
    /// Cost saved by deviating.
    pub fn gain(&self) -> u64 {
        self.current_cost - self.improved_cost
    }
}

/// Outcome of a stability check.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// `true` iff the configuration is a pure Nash equilibrium.
    pub stable: bool,
    /// Witnessing deviations. Empty when stable; contains the first witness
    /// found, or one per unstable node when the checker collects all.
    pub deviations: Vec<Deviation>,
    /// Total strategy evaluations spent across nodes.
    pub evaluations: u64,
}

/// Exact stability checker for one game.
///
/// # Examples
///
/// ```
/// use bbc_core::{Configuration, GameSpec, NodeId, StabilityChecker};
///
/// // A directed cycle is the canonical stable (n,1)-uniform graph.
/// let spec = GameSpec::uniform(5, 1);
/// let ring = Configuration::from_strategies(&spec, (0..5).map(|i| {
///     vec![NodeId::new((i + 1) % 5)]
/// }).collect())?;
/// assert!(StabilityChecker::new(&spec).is_stable(&ring)?);
/// # Ok::<(), bbc_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct StabilityChecker<'a> {
    spec: &'a GameSpec,
    options: BestResponseOptions,
    collect_all: bool,
}

impl<'a> StabilityChecker<'a> {
    /// Creates a checker with default search options: stop at the first
    /// unstable node, report one witness.
    pub fn new(spec: &'a GameSpec) -> Self {
        Self {
            spec,
            options: BestResponseOptions {
                stop_at_first_improvement: true,
                ..Default::default()
            },
            collect_all: false,
        }
    }

    /// Collect one deviation per unstable node instead of stopping at the
    /// first.
    pub fn collect_all_deviations(mut self, yes: bool) -> Self {
        self.collect_all = yes;
        self
    }

    /// Checks whether `config` is a pure Nash equilibrium.
    ///
    /// Builds a fresh [`DistanceEngine`] for the check; callers scanning
    /// many related configurations should hold an engine and use
    /// [`StabilityChecker::check_with_engine`] so distance rows carry over.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::Error::SearchBudgetExceeded`] if some node's
    /// strategy space is too large for the configured limit.
    pub fn check(&self, config: &Configuration) -> Result<StabilityReport> {
        let mut engine = DistanceEngine::new(self.spec, config.clone());
        self.check_with_engine(&mut engine)
    }

    /// Checks the configuration bound to `engine`, reusing its caches.
    /// Only live members are tested: a departed node plays no strategy.
    ///
    /// Sync the engine first ([`DistanceEngine::sync_to`]) if it tracks a
    /// different configuration than the one to check.
    ///
    /// # Panics
    ///
    /// Panics if `engine` serves a different game than this checker — the
    /// report would silently describe the wrong game otherwise.
    ///
    /// # Errors
    ///
    /// See [`StabilityChecker::check`].
    pub fn check_with_engine(&self, engine: &mut DistanceEngine<'_>) -> Result<StabilityReport> {
        assert!(
            std::ptr::eq(engine.spec(), self.spec) || engine.spec() == self.spec,
            "engine is bound to a different game than this checker"
        );
        let mut deviations = Vec::new();
        let mut evaluations = 0;
        for u in NodeId::all(self.spec.node_count()) {
            if !engine.is_live(u) {
                continue;
            }
            let out = engine.best_response(u, &self.options)?;
            if out.improves() {
                evaluations += out.evaluations;
                deviations.push(Deviation {
                    node: u,
                    current_cost: out.current_cost,
                    improved_cost: out.best_cost,
                    strategy: out.best_strategy,
                });
                if !self.collect_all {
                    break;
                }
            }
        }
        Ok(StabilityReport {
            stable: deviations.is_empty(),
            deviations,
            evaluations,
        })
    }

    /// `true` iff `config` is a pure Nash equilibrium.
    ///
    /// # Errors
    ///
    /// See [`StabilityChecker::check`].
    pub fn is_stable(&self, config: &Configuration) -> Result<bool> {
        Ok(self.check(config)?.stable)
    }

    /// `true` iff the configuration bound to `engine` is a pure Nash
    /// equilibrium (cache-reusing variant of [`StabilityChecker::is_stable`]).
    ///
    /// # Errors
    ///
    /// See [`StabilityChecker::check`].
    pub fn is_stable_with_engine(&self, engine: &mut DistanceEngine<'_>) -> Result<bool> {
        Ok(self.check_with_engine(engine)?.stable)
    }

    /// Checks a single node; returns a deviation witness plus the number of
    /// evaluations spent, or `None` if the node is best-responding.
    ///
    /// # Errors
    ///
    /// See [`StabilityChecker::check`].
    pub fn check_node(
        &self,
        config: &Configuration,
        u: NodeId,
    ) -> Result<Option<(Deviation, u64)>> {
        let out = best_response::exact(self.spec, config, u, &self.options)?;
        if out.improves() {
            Ok(Some((
                Deviation {
                    node: u,
                    current_cost: out.current_cost,
                    improved_cost: out.best_cost,
                    strategy: out.best_strategy,
                },
                out.evaluations,
            )))
        } else {
            Ok(None)
        }
    }

    /// Cheap falsifier: looks for a deviation with the greedy heuristic
    /// only. `Some` proves instability; `None` proves nothing.
    ///
    /// Use on instances where exact per-node search is out of reach
    /// (large `k`); every use in this workspace is labelled as heuristic.
    pub fn heuristic_deviation(&self, config: &Configuration) -> Option<Deviation> {
        let mut engine = DistanceEngine::new(self.spec, config.clone());
        for u in NodeId::all(self.spec.node_count()) {
            let out = engine.greedy(u);
            if out.improves() {
                return Some(Deviation {
                    node: u,
                    current_cost: out.current_cost,
                    improved_cost: out.best_cost,
                    strategy: out.best_strategy,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn ring(spec: &GameSpec, n: usize) -> Configuration {
        Configuration::from_strategies(spec, (0..n).map(|i| vec![v((i + 1) % n)]).collect())
            .unwrap()
    }

    #[test]
    fn directed_cycle_is_stable_for_k1() {
        // Paper §4.2: "the simple directed cycle ... is stable" (k = 1).
        for n in 2..8 {
            let spec = GameSpec::uniform(n, 1);
            assert!(
                StabilityChecker::new(&spec)
                    .is_stable(&ring(&spec, n))
                    .unwrap(),
                "cycle on {n} nodes"
            );
        }
    }

    #[test]
    fn empty_configuration_is_unstable_when_linking_helps() {
        let spec = GameSpec::uniform(4, 1);
        let report = StabilityChecker::new(&spec)
            .check(&Configuration::empty(4))
            .unwrap();
        assert!(!report.stable);
        let dev = &report.deviations[0];
        assert!(dev.gain() > 0);
        assert_eq!(dev.strategy.len(), 1);
    }

    #[test]
    fn empty_configuration_is_stable_with_zero_budgets() {
        let spec = GameSpec::builder(4).default_budget(0).build().unwrap();
        assert!(StabilityChecker::new(&spec)
            .is_stable(&Configuration::empty(4))
            .unwrap());
    }

    #[test]
    fn collect_all_reports_every_unstable_node() {
        let spec = GameSpec::uniform(4, 1);
        let report = StabilityChecker::new(&spec)
            .collect_all_deviations(true)
            .check(&Configuration::empty(4))
            .unwrap();
        assert_eq!(
            report.deviations.len(),
            4,
            "every node is disconnected and can improve"
        );
    }

    #[test]
    fn deviation_witness_is_verifiable() {
        let spec = GameSpec::uniform(5, 2);
        let cfg = Configuration::random(&spec, 11);
        let report = StabilityChecker::new(&spec)
            .collect_all_deviations(true)
            .check(&cfg)
            .unwrap();
        let mut eval = crate::Evaluator::new(&spec);
        for dev in &report.deviations {
            let mut moved = cfg.clone();
            moved
                .set_strategy(&spec, dev.node, dev.strategy.clone())
                .unwrap();
            assert_eq!(eval.node_cost(&moved, dev.node), dev.improved_cost);
            assert_eq!(eval.node_cost(&cfg, dev.node), dev.current_cost);
            assert!(dev.improved_cost < dev.current_cost);
        }
    }

    #[test]
    fn heuristic_deviation_agrees_with_exact_on_k1() {
        let spec = GameSpec::uniform(6, 1);
        for seed in 0..10 {
            let cfg = Configuration::random(&spec, seed);
            let checker = StabilityChecker::new(&spec);
            let exact_stable = checker.is_stable(&cfg).unwrap();
            let heuristic = checker.heuristic_deviation(&cfg);
            if heuristic.is_some() {
                assert!(!exact_stable, "heuristic witness must imply instability");
            }
            if !exact_stable {
                // k=1 greedy+swap is exhaustive, so it must find a witness.
                assert!(heuristic.is_some(), "seed {seed}");
            }
        }
    }

    #[test]
    fn engine_reuse_across_checks_is_sound() {
        let spec = GameSpec::uniform(6, 1);
        let checker = StabilityChecker::new(&spec);
        let mut engine = crate::DistanceEngine::new(&spec, Configuration::empty(6));
        for seed in 0..8 {
            let cfg = Configuration::random(&spec, seed);
            engine.sync_to(&cfg);
            assert_eq!(
                checker.is_stable_with_engine(&mut engine).unwrap(),
                checker.is_stable(&cfg).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn engine_check_skips_departed_members() {
        let spec = GameSpec::uniform(6, 1);
        // Departed node 2 holds no links; the live ring 0→1→3→4→5→0 is stable.
        let ring = Configuration::from_strategies(
            &spec,
            vec![
                vec![v(1)],
                vec![v(3)],
                vec![],
                vec![v(4)],
                vec![v(5)],
                vec![v(0)],
            ],
        )
        .unwrap();
        let mut live = bbc_graph::BitSet::new(6);
        live.extend([0usize, 1, 3, 4, 5]);
        let mut engine = DistanceEngine::with_membership(&spec, ring, &live).unwrap();
        let report = StabilityChecker::new(&spec)
            .check_with_engine(&mut engine)
            .unwrap();
        assert!(report.stable, "{:?}", report.deviations);

        // An engine that removed node 2 itself, from an unstable start.
        let mut engine = DistanceEngine::new(&spec, Configuration::empty(6));
        engine.remove_node(v(2)).unwrap();
        let report = StabilityChecker::new(&spec)
            .collect_all_deviations(true)
            .check_with_engine(&mut engine)
            .unwrap();
        let movers: Vec<NodeId> = report.deviations.iter().map(|d| d.node).collect();
        assert_eq!(movers, vec![v(0), v(1), v(3), v(4), v(5)]);
    }

    #[test]
    fn two_node_mutual_link_is_stable() {
        let spec = GameSpec::uniform(2, 1);
        let cfg = Configuration::from_strategies(&spec, vec![vec![v(1)], vec![v(0)]]).unwrap();
        assert!(StabilityChecker::new(&spec).is_stable(&cfg).unwrap());
    }
}
