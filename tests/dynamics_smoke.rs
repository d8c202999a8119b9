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

use bbc::constructions::CayleyGraph;
use bbc::core::{DistanceEngine, EngineStats};
use bbc::prelude::*;

#[test]
fn fixed_seed_walk_trajectory_is_pinned() {
    let spec = GameSpec::uniform(24, 3);
    let start = Configuration::random(&spec, 7);
    let mut walk = Walk::new(&spec, start.clone()).detect_cycles(false);
    let outcome = walk.run(2_000).expect("search fits budget");

    assert_eq!(outcome, WalkOutcome::StepLimit { steps: 2_000 });
    assert_eq!(walk.stats().moves, 1_914);
    assert_eq!(social_cost(&spec, walk.config()), 1_479);
    // Effort counters are pure functions of the inputs too. On this dense
    // game every move invalidates nearly every base row, and since each
    // move follows the mover's own search, its patch refills them all from
    // that search's staged rows, the mover's own row included: only the
    // first search traverses (its 23 candidates' rows).
    assert_eq!(
        walk.engine_stats(),
        EngineStats {
            oracle_rows_computed: 23,
            oracle_row_hits: 45_977,
            outcome_hits: 0,
            searches_run: 2_000,
            rows_invalidated: 45_912,
            patches_applied: 1_914,
            eval_rows_computed: 0,
            landmark_rows_computed: 0,
        }
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
fn start_configuration_search_effort_is_pinned() {
    // One best response per node on the walk's start configuration: the
    // summed `evaluations` pin the search's pruning. The nodes share base
    // rows, so the search runs one traversal per node, not one per (node,
    // candidate) pair.
    let spec = GameSpec::uniform(24, 3);
    let start = Configuration::random(&spec, 7);
    let options = BestResponseOptions::default();
    let mut engine = DistanceEngine::new(&spec, start);
    let total: u64 = NodeId::all(24)
        .map(|u| {
            engine
                .best_response(u, &options)
                .expect("search fits budget")
                .evaluations
        })
        .sum();
    assert_eq!(total, 737);
    let stats = engine.stats();
    assert_eq!(
        (
            stats.oracle_rows_computed,
            stats.oracle_row_hits,
            stats.searches_run
        ),
        (24, 528, 24)
    );
}

#[test]
fn overlay512_walk_prefix_effort_is_pinned() {
    // The first 8 stability tests of the benchmark's 512-peer walk (the e13
    // point): the designed circulant{1,23}, identity round-robin order, no
    // cycle detection, replayed through the engine so the summed search
    // effort is visible. Every test moves, and each move drops every base
    // row. The first search traverses all 511 rows its deviation rows
    // derive from. Each move then refills the rows it drops, its own
    // included, from the rows its search staged, so no later search
    // traverses (511 traversals in all), and the costs that follow equal a
    // fresh build's. A 512-peer search takes seconds without optimization,
    // so debug builds skip this.
    if cfg!(debug_assertions) {
        return;
    }
    let overlay = CayleyGraph::circulant(512, &[1, 23]).expect("512 admits circulant{1,23}");
    let spec = overlay.spec();
    let options = BestResponseOptions::default();
    let mut engine = DistanceEngine::new(&spec, overlay.configuration());
    let (mut moves, mut evaluations) = (0u64, 0u64);
    for u in NodeId::all(8) {
        let out = engine
            .best_response(u, &options)
            .expect("the default budget fits a 512-peer search");
        evaluations += out.evaluations;
        if out.improves() {
            engine
                .apply_strategy(u, out.best_strategy)
                .expect("a best response is a valid strategy");
            moves += 1;
        }
    }
    assert_eq!(engine.state_digest(), 0x9216_af62_00e6_2f31);
    assert_eq!((moves, evaluations), (8, 262_792), "moves, evaluations");
    assert_eq!(
        engine.stats(),
        EngineStats {
            oracle_rows_computed: 511,
            oracle_row_hits: 3_577,
            outcome_hits: 0,
            searches_run: 8,
            rows_invalidated: 4_095,
            patches_applied: 8,
            eval_rows_computed: 0,
            landmark_rows_computed: 0,
        }
    );
    // The prune checks whose packing correction the row counts could not
    // bracket, so the search counted it exactly.
    let mut reg = bbc_obs::Registry::new();
    engine.publish_metrics(&mut reg);
    assert_eq!(reg.counter("engine/bound_recounts"), Some(270));
    let mut fresh = DistanceEngine::new(&spec, engine.config().clone());
    assert_eq!(engine.node_costs(), fresh.node_costs());
}
