//! Property-based tests for the BBC core: deviation-row pricing, best
//! response, stability, and dynamics invariants.

use bbc_core::{
    best_response, BestResponseOptions, Configuration, CostModel, DistanceEngine, Evaluator,
    GameSpec, LandmarkPolicy, NodeId, StabilityChecker, Walk, WalkOutcome,
};
use proptest::prelude::*;

/// Arbitrary uniform game plus a seeded random configuration.
fn arb_uniform_instance() -> impl Strategy<Value = (GameSpec, Configuration)> {
    (2usize..=9, 1u64..=3, any::<u64>()).prop_map(|(n, k, seed)| {
        let spec = GameSpec::uniform(n, k);
        let cfg = Configuration::random(&spec, seed);
        (spec, cfg)
    })
}

/// Arbitrary non-uniform game (weights/lengths/costs in small ranges) plus a
/// random configuration.
fn arb_nonuniform_instance() -> impl Strategy<Value = (GameSpec, Configuration)> {
    (2usize..=7, any::<u64>()).prop_flat_map(|(n, seed)| {
        (
            proptest::collection::vec(0u64..=3, n * n),
            proptest::collection::vec(1u64..=5, n * n),
            proptest::collection::vec(1u64..=3, n * n),
            proptest::collection::vec(0u64..=4, n),
            proptest::bool::ANY,
        )
            .prop_map(move |(ws, ls, cs, bs, use_max)| {
                let mut b = GameSpec::builder(n);
                for u in 0..n {
                    for v in 0..n {
                        b = b
                            .weight(u, v, ws[u * n + v])
                            .link_length(u, v, ls[u * n + v])
                            .link_cost(u, v, cs[u * n + v]);
                    }
                    b = b.budget(u, bs[u]);
                }
                if use_max {
                    b = b.cost_model(CostModel::MaxDistance);
                }
                let spec = b.build().expect("valid spec");
                let cfg = Configuration::random(&spec, seed);
                (spec, cfg)
            })
    })
}

/// Brute-force best-response cost via full re-evaluation of every feasible
/// subset.
fn brute_force_best(spec: &GameSpec, config: &Configuration, u: NodeId) -> u64 {
    let mut eval = Evaluator::new(spec);
    let pool = spec.affordable_targets(u);
    assert!(pool.len() <= 16, "brute force capped at 16 candidates");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn oracle_prices_match_full_evaluation((spec, cfg) in arb_nonuniform_instance()) {
        let mut eval = Evaluator::new(&spec);
        let opts = BestResponseOptions::default();
        for policy in [LandmarkPolicy::Off, LandmarkPolicy::Forced(2)] {
            let mut engine = DistanceEngine::new(&spec, cfg.clone()).with_landmarks(policy);
            for u in NodeId::all(spec.node_count()) {
                let out = engine.best_response(u, &opts).unwrap();
                prop_assert_eq!(out.current_cost, eval.node_cost(&cfg, u));
            }
        }
    }

    #[test]
    fn exact_best_response_matches_brute_force((spec, cfg) in arb_nonuniform_instance()) {
        let opts = BestResponseOptions::default();
        for u in NodeId::all(spec.node_count()) {
            let out = best_response::exact(&spec, &cfg, u, &opts).unwrap();
            prop_assert!(out.optimal);
            prop_assert_eq!(out.best_cost, brute_force_best(&spec, &cfg, u));
            prop_assert!(out.best_cost <= out.current_cost,
                "best response can always keep the current strategy");
        }
    }

    #[test]
    fn best_response_is_idempotent((spec, cfg) in arb_uniform_instance()) {
        let opts = BestResponseOptions::default();
        for u in NodeId::all(spec.node_count()) {
            let out = best_response::exact(&spec, &cfg, u, &opts).unwrap();
            let mut moved = cfg.clone();
            moved.set_strategy(&spec, u, out.best_strategy.clone()).unwrap();
            let again = best_response::exact(&spec, &moved, u, &opts).unwrap();
            prop_assert_eq!(again.best_cost, out.best_cost);
            prop_assert!(!again.improves());
        }
    }

    #[test]
    fn greedy_is_sound((spec, cfg) in arb_nonuniform_instance()) {
        for u in NodeId::all(spec.node_count()) {
            let out = best_response::greedy(&spec, &cfg, u);
            prop_assert!(out.best_cost <= out.current_cost);
            prop_assert!(spec.validate_strategy(u, &out.best_strategy).is_ok());
            // Reported cost is real: applying the strategy reproduces it.
            let mut moved = cfg.clone();
            moved.set_strategy(&spec, u, out.best_strategy.clone()).unwrap();
            let mut eval = Evaluator::new(&spec);
            prop_assert_eq!(eval.node_cost(&moved, u), out.best_cost);
        }
    }

    #[test]
    fn stability_agrees_with_per_node_brute_force((spec, cfg) in arb_nonuniform_instance()) {
        let stable = StabilityChecker::new(&spec).is_stable(&cfg).unwrap();
        let mut eval = Evaluator::new(&spec);
        let brute_stable = NodeId::all(spec.node_count()).all(|u| {
            brute_force_best(&spec, &cfg, u) >= eval.node_cost(&cfg, u)
        });
        prop_assert_eq!(stable, brute_stable);
    }

    #[test]
    fn walk_fixpoints_are_equilibria((spec, cfg) in arb_uniform_instance()) {
        let mut walk = Walk::new(&spec, cfg);
        match walk.run(50_000).unwrap() {
            WalkOutcome::Equilibrium { .. } => {
                prop_assert!(StabilityChecker::new(&spec).is_stable(walk.config()).unwrap());
            }
            WalkOutcome::Cycle { period, .. } => {
                prop_assert!(period > 0);
            }
            WalkOutcome::StepLimit { .. } => prop_assert!(false, "50k steps should suffice"),
        }
    }

    #[test]
    fn reach_is_monotone_under_best_response((spec, cfg) in arb_uniform_instance()) {
        // Lemma 9: with M above the reach-monotonicity threshold, a best
        // response never decreases the mover's reach.
        let opts = BestResponseOptions::default();
        for u in NodeId::all(spec.node_count()) {
            let before = bbc_graph::reach::reach_of(&cfg.to_graph(&spec), u.index());
            let out = best_response::exact(&spec, &cfg, u, &opts).unwrap();
            let mut moved = cfg.clone();
            moved.set_strategy(&spec, u, out.best_strategy.clone()).unwrap();
            let after = bbc_graph::reach::reach_of(&moved.to_graph(&spec), u.index());
            prop_assert!(after >= before, "node {} reach {} -> {}", u, before, after);
        }
    }

    #[test]
    fn social_cost_is_sum_of_node_costs((spec, cfg) in arb_nonuniform_instance()) {
        let mut eval = Evaluator::new(&spec);
        let total: u64 = eval.node_costs(&cfg).iter().sum();
        prop_assert_eq!(eval.social_cost(&cfg), total);
    }

    #[test]
    fn adding_a_link_never_increases_cost((spec, cfg) in arb_uniform_instance()) {
        // Monotonicity that the subset search relies on: supersets of a
        // strategy are at least as good (budget permitting).
        let mut eval = Evaluator::new(&spec);
        for u in NodeId::all(spec.node_count()) {
            let current = cfg.strategy(u).to_vec();
            if spec.strategy_cost(u, &current) >= spec.budget(u) {
                continue;
            }
            let base = eval.node_cost(&cfg, u);
            for v in spec.affordable_targets(u) {
                if current.contains(&v) {
                    continue;
                }
                let mut bigger = current.clone();
                bigger.push(v);
                if spec.validate_strategy(u, &bigger).is_err() {
                    continue;
                }
                let mut trial = cfg.clone();
                trial.set_strategy(&spec, u, bigger).unwrap();
                prop_assert!(eval.node_cost(&trial, u) <= base);
            }
        }
    }
}
