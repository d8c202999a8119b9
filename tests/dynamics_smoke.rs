//! Hot-path smoke: a fixed-seed round-robin dynamics walk on the
//! `(24,3)`-uniform game — the workload the CSR `DistanceEngine` refactor is
//! benchmarked on — pinned to its exact trajectory.
//!
//! CI runs this in release mode so a regression in the engine's caching or
//! the best-response search surfaces as a wall-clock blowup there, while the
//! pinned move/cost numbers catch *behavioral* drift anywhere: the walk's
//! scheduler, cycle-detection map, and RNG are all deterministic-by-design
//! (seeded `SmallRng`, FNV-hashed lookup-only history), so these values must
//! reproduce bit-for-bit across Rust versions and platforms.

use bbc::core::{DistanceEngine, EngineStats};
use bbc::prelude::*;

#[test]
fn fixed_seed_walk_trajectory_is_pinned() {
    let spec = GameSpec::uniform(24, 3);
    let start = Configuration::random(&spec, 7);
    let mut walk = Walk::new(&spec, start.clone())
        .detect_cycles(false)
        .with_landmarks(LandmarkPolicy::Off);
    let outcome = walk.run(2_000).expect("search fits budget");

    assert_eq!(outcome, WalkOutcome::StepLimit { steps: 2_000 });
    assert_eq!(walk.stats().moves, 1_914);
    assert_eq!(social_cost(&spec, walk.config()), 1_479);
    // Effort counters are pure functions of the inputs too. On this dense
    // game every move invalidates nearly every row, so each step rebuilds
    // all 23 of the tested node's deviation rows.
    assert_eq!(
        walk.engine_stats(),
        EngineStats {
            oracle_rows_computed: 46_000,
            oracle_row_hits: 0,
            outcome_hits: 0,
            searches_run: 2_000,
            rows_invalidated: 45_977,
            patches_applied: 1_914,
            eval_rows_computed: 0,
            landmark_rows_computed: 0,
        }
    );
    assert_eq!(
        (walk.stats().bounds_hit, walk.stats().rows_materialized),
        (0, 0)
    );

    // Determinism: an identical second run replays the identical walk.
    let mut again = Walk::new(&spec, start).detect_cycles(false);
    let outcome_again = again.run(2_000).expect("search fits budget");
    assert_eq!(outcome_again, outcome);
    assert_eq!(again.config(), walk.config());
}

#[test]
fn fixed_seed_walk_converges_from_random_start() {
    // The same game run to completion: the equilibrium step count is part
    // of the pinned trajectory (it changes iff any best-response decision
    // along the walk changes). ~10k steps is instant in release but minutes
    // without optimization, so the full run is CI's release-mode smoke.
    if cfg!(debug_assertions) {
        return;
    }
    let spec = GameSpec::uniform(24, 3);
    let mut walk = Walk::new(&spec, Configuration::random(&spec, 7)).detect_cycles(false);
    let outcome = walk.run(100_000).expect("search fits budget");
    assert_eq!(outcome, WalkOutcome::Equilibrium { steps: 10_684 });
    assert!(StabilityChecker::new(&spec)
        .is_stable(walk.config())
        .expect("check fits budget"));
}

#[test]
fn landmark_walk_prefix_effort_is_pinned() {
    // The same walk's first 500 steps on the landmark-bounded search: the
    // held strategy's 3 rows are filled before staging (3 row hits per
    // step), the rest only when the search includes their candidate.
    let spec = GameSpec::uniform(24, 3);
    let mut walk = Walk::new(&spec, Configuration::random(&spec, 7))
        .detect_cycles(false)
        .with_landmarks(LandmarkPolicy::Forced(4));
    let outcome = walk.run(500).expect("search fits budget");

    assert_eq!(outcome, WalkOutcome::StepLimit { steps: 500 });
    assert_eq!(walk.stats().moves, 479);
    assert_eq!(
        walk.engine_stats(),
        EngineStats {
            oracle_rows_computed: 11_474,
            oracle_row_hits: 1_500,
            outcome_hits: 0,
            searches_run: 500,
            rows_invalidated: 13_364,
            patches_applied: 479,
            eval_rows_computed: 0,
            landmark_rows_computed: 1_913,
        }
    );
    assert_eq!(
        (walk.stats().bounds_hit, walk.stats().rows_materialized),
        (953, 11_474)
    );
}

#[test]
fn start_configuration_search_effort_is_pinned() {
    // One best response per node on the walk's start configuration: the
    // summed `evaluations` pin the search's pruning, per bound source.
    let spec = GameSpec::uniform(24, 3);
    let start = Configuration::random(&spec, 7);
    let options = BestResponseOptions::default();
    for (policy, evaluations, rows_computed, row_hits) in [
        (LandmarkPolicy::Off, 801, 552, 0),
        (LandmarkPolicy::Forced(4), 1_472, 530, 72),
    ] {
        let mut engine = DistanceEngine::new(&spec, start.clone()).with_landmarks(policy);
        let total: u64 = NodeId::all(24)
            .map(|u| {
                engine
                    .best_response(u, &options)
                    .expect("search fits budget")
                    .evaluations
            })
            .sum();
        assert_eq!(total, evaluations, "{policy:?}");
        let stats = engine.stats();
        assert_eq!(
            (
                stats.oracle_rows_computed,
                stats.oracle_row_hits,
                stats.searches_run
            ),
            (rows_computed, row_hits, 24),
            "{policy:?}"
        );
    }
}
