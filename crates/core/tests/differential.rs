//! Differential suite: the CSR [`DistanceEngine`] substrate versus the
//! frozen pre-refactor implementations in [`bbc_core::reference`].
//!
//! On arbitrary games (uniform and weighted lengths/costs, sum and max
//! models) and arbitrary configurations, the engine must return
//!
//! * byte-identical `node_costs` and `social_cost`, and
//! * the same best-response *decision* ([`BestResponseOutcome`] up to its
//!   documented `evaluations` effort counter — see
//!   [`BestResponseOutcome::same_decision`])
//!
//! as the legacy adjacency-list path — including **after arbitrary rewiring
//! scripts**, which is what actually exercises the touched-set cache
//! invalidation (a stale row would surface here as a cost mismatch).

use bbc_core::{
    best_response, enumerate, reference, BestResponseOptions, BestResponseOutcome, Configuration,
    CostModel, DistanceEngine, GameSpec, NodeId, RowTier, Scheduler, StabilityChecker, Walk,
    WalkOutcome,
};
use bbc_graph::{BitSet, ClampedBfs, ClampedDijkstra, CsrGraph};
use proptest::prelude::*;

/// A penalty above the i16 tier's saturated value (16,383): the narrow
/// rows then hold the saturated stand-in for every unreachable target, and
/// every cost must lift it back to this penalty.
const HIGH_PENALTY: u64 = 100_003;

/// Arbitrary uniform game plus a seeded random configuration; about half
/// the games carry [`HIGH_PENALTY`] instead of the default `n²`.
fn arb_uniform_instance() -> impl Strategy<Value = (GameSpec, Configuration)> {
    (2usize..=9, 1u64..=3, any::<u64>(), proptest::bool::ANY).prop_map(|(n, k, seed, high)| {
        let mut spec = GameSpec::uniform(n, k);
        if high {
            spec = spec.with_penalty(HIGH_PENALTY).expect("above n·max ℓ");
        }
        let cfg = Configuration::random(&spec, seed);
        (spec, cfg)
    })
}

/// Arbitrary weighted game (weights, lengths, costs, budgets, both cost
/// models) plus a random configuration; about half the games carry
/// [`HIGH_PENALTY`] instead of the builder's `n·max ℓ + 1`.
fn arb_weighted_instance() -> impl Strategy<Value = (GameSpec, Configuration)> {
    (2usize..=7, any::<u64>()).prop_flat_map(|(n, seed)| {
        (
            proptest::collection::vec(0u64..=3, n * n),
            proptest::collection::vec(1u64..=5, n * n),
            proptest::collection::vec(1u64..=3, n * n),
            proptest::collection::vec(0u64..=4, n),
            proptest::bool::ANY,
            proptest::bool::ANY,
        )
            .prop_map(move |(ws, ls, cs, bs, use_max, high)| {
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
                if high {
                    b = b.penalty(HIGH_PENALTY);
                }
                let spec = b.build().expect("valid spec");
                let cfg = Configuration::random(&spec, seed);
                (spec, cfg)
            })
    })
}

fn assert_same_decision(a: &BestResponseOutcome, b: &BestResponseOutcome, context: &str) {
    assert!(a.same_decision(b), "{context}: {a:?} vs {b:?}");
}

/// Compares every evaluator quantity and every node's best response between
/// the engine and the frozen reference, for the configuration bound to
/// `engine`.
fn assert_engine_matches_reference(
    spec: &GameSpec,
    engine: &mut DistanceEngine<'_>,
    context: &str,
) {
    let cfg = engine.config().clone();
    let options = BestResponseOptions::default();
    assert_eq!(
        engine.node_costs(),
        reference::node_costs(spec, &cfg),
        "{context}: node_costs"
    );
    assert_eq!(
        engine.social_cost(),
        reference::social_cost(spec, &cfg),
        "{context}: social_cost"
    );
    for u in NodeId::all(spec.node_count()) {
        let fast = engine.best_response(u, &options).expect("search fits");
        let frozen = reference::exact(spec, &cfg, u, &options).expect("search fits");
        assert_same_decision(&frozen, &fast, context);
        // The one-shot optimized path must agree bit for bit with the
        // engine (they share the search); both must not out-work the
        // reference.
        let one_shot = best_response::exact(spec, &cfg, u, &options).expect("search fits");
        assert_eq!(one_shot, fast, "{context}: engine vs one-shot");
        assert!(fast.evaluations <= frozen.evaluations, "{context}");
    }
}

proptest! {
    #[test]
    fn engine_matches_reference_on_uniform_games((spec, cfg) in arb_uniform_instance()) {
        let mut engine = DistanceEngine::new(&spec, cfg);
        assert_engine_matches_reference(&spec, &mut engine, "uniform");
    }

    #[test]
    fn engine_matches_reference_on_weighted_games((spec, cfg) in arb_weighted_instance()) {
        let mut engine = DistanceEngine::new(&spec, cfg);
        assert_engine_matches_reference(&spec, &mut engine, "weighted");
    }

    #[test]
    fn engine_matches_reference_across_rewiring_scripts(
        (spec, cfg) in arb_uniform_instance(),
        script in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..12),
    ) {
        // Drive the engine through a random edit script; after each patch its
        // caches must be indistinguishable from a from-scratch evaluation.
        // This is the test that fails if touched-set invalidation misses a
        // dependent row.
        let mut engine = DistanceEngine::new(&spec, cfg);
        for (step, (node_sel, seed)) in script.into_iter().enumerate() {
            let u = NodeId::new((node_sel % spec.node_count() as u64) as usize);
            let replacement = Configuration::random(&spec, seed);
            engine
                .apply_strategy(u, replacement.strategy(u).to_vec())
                .expect("random strategies validate");
            assert_engine_matches_reference(&spec, &mut engine, &format!("after edit {step}"));
        }
    }

    #[test]
    fn engine_matches_reference_across_weighted_rewiring(
        (spec, cfg) in arb_weighted_instance(),
        script in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..8),
    ) {
        let mut engine = DistanceEngine::new(&spec, cfg);
        for (step, (node_sel, seed)) in script.into_iter().enumerate() {
            let u = NodeId::new((node_sel % spec.node_count() as u64) as usize);
            let replacement = Configuration::random(&spec, seed);
            engine
                .apply_strategy(u, replacement.strategy(u).to_vec())
                .expect("random strategies validate");
            assert_engine_matches_reference(&spec, &mut engine, &format!("after edit {step}"));
        }
    }

    #[test]
    fn first_improvement_mode_agrees_with_reference((spec, cfg) in arb_uniform_instance()) {
        // The stability checker's mode: stop at the first improving
        // strategy. The seeded incumbent must report the same first
        // improvement (in DFS order) as the frozen search.
        let options = BestResponseOptions {
            stop_at_first_improvement: true,
            ..Default::default()
        };
        let mut engine = DistanceEngine::new(&spec, cfg.clone());
        for u in NodeId::all(spec.node_count()) {
            let fast = engine.best_response(u, &options).expect("search fits");
            let frozen = reference::exact(&spec, &cfg, u, &options).expect("search fits");
            assert_same_decision(&frozen, &fast, "first-improvement");
        }
    }

    #[test]
    fn walks_replay_identically_to_reference_steps(
        (spec, cfg) in arb_uniform_instance(),
    ) {
        // An engine-backed round-robin walk must produce exactly the move
        // sequence the frozen best response dictates.
        let mut walk = Walk::new(&spec, cfg.clone()).detect_cycles(false).record_trace(true);
        let outcome = walk.run(400).expect("walk fits");
        let mut replay = cfg;
        let options = BestResponseOptions::default();
        for mv in walk.trace() {
            // Fast-forward the replay to this trace entry by applying the
            // frozen best response for every scheduled node in between; the
            // recorded mover must be the next improving node.
            let frozen = reference::exact(&spec, &replay, mv.node, &options).expect("fits");
            prop_assert!(frozen.improves(), "trace recorded a non-improving move");
            prop_assert_eq!(&frozen.best_strategy, &mv.new_strategy);
            prop_assert_eq!(frozen.current_cost, mv.old_cost);
            prop_assert_eq!(frozen.best_cost, mv.new_cost);
            replay
                .set_strategy(&spec, mv.node, mv.new_strategy.clone())
                .expect("valid move");
        }
        prop_assert_eq!(&replay, walk.config(), "trace replay reproduces the final state");
        if let WalkOutcome::Equilibrium { .. } = outcome {
            prop_assert!(
                StabilityChecker::new(&spec).is_stable(walk.config()).expect("check fits")
            );
        }
    }
}

/// A small preference game: unit lengths/costs, budget 1, seeded weights —
/// the Theorem-1 shape whose joint space stays enumerable.
fn preference_spec(n: usize, weights: &[u64]) -> GameSpec {
    let mut b = GameSpec::builder(n).default_budget(1);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                b = b.weight(u, v, weights[u * n + v]);
            }
        }
    }
    b.build().expect("preference game is valid")
}

/// Restricts each node's candidate list to a seeded non-empty prefix of the
/// full strategy set, so shard boundaries land in differently-shaped spaces.
fn restricted_space(spec: &GameSpec, keep: &[u64]) -> enumerate::ProfileSpace {
    let full = enumerate::ProfileSpace::full(spec, 10_000).expect("small space");
    let candidates: Vec<Vec<Vec<NodeId>>> = NodeId::all(spec.node_count())
        .map(|u| {
            let all = full.candidates(u);
            let take = 1 + (keep[u.index()] as usize) % all.len();
            all[..take].to_vec()
        })
        .collect();
    enumerate::ProfileSpace::from_candidates(spec, candidates).expect("prefixes stay valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_enumeration_matches_sequential_on_uniform_games(
        n in 3usize..=4,
        keep in proptest::collection::vec(0u64..=255, 4),
        threads in 2usize..=8,
    ) {
        // Work-stealing sharding must return the same `EnumerationResult` —
        // equilibria in enumeration order AND profiles_checked — as the
        // sequential scan, for any worker count and any space shape.
        let spec = GameSpec::uniform(n, 1);
        let space = restricted_space(&spec, &keep);
        let seq = enumerate::find_equilibria(&spec, &space, 100_000).expect("scan fits");
        let par = enumerate::find_equilibria_parallel(&spec, &space, 100_000, threads)
            .expect("scan fits");
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn sharded_enumeration_matches_sequential_on_preference_games(
        n in 3usize..=4,
        weights in proptest::collection::vec(0u64..=3, 16),
        keep in proptest::collection::vec(0u64..=255, 4),
        threads in 2usize..=8,
    ) {
        let spec = preference_spec(n, &weights);
        let space = restricted_space(&spec, &keep);
        let seq = enumerate::find_equilibria(&spec, &space, 100_000).expect("scan fits");
        let par = enumerate::find_equilibria_parallel(&spec, &space, 100_000, threads)
            .expect("scan fits");
        prop_assert_eq!(par, seq);
    }
}

/// Deterministic valid random strategy for `u` over the engine's *live*
/// targets: shuffle the affordable live pool, then greedily spend the
/// budget on a seeded prefix.
fn seeded_live_strategy(
    spec: &GameSpec,
    engine: &DistanceEngine<'_>,
    u: NodeId,
    seed: u64,
) -> Vec<NodeId> {
    use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool: Vec<NodeId> = spec
        .affordable_targets(u)
        .into_iter()
        .filter(|&v| engine.is_live(v))
        .collect();
    pool.shuffle(&mut rng);
    let take = if pool.is_empty() {
        0
    } else {
        rng.gen_range(0..=pool.len())
    };
    let mut remaining = spec.budget(u);
    let mut picks = Vec::new();
    for v in pool.into_iter().take(take) {
        let c = spec.link_cost(u, v);
        if c <= remaining {
            remaining -= c;
            picks.push(v);
        }
    }
    picks.sort_unstable();
    picks
}

proptest! {
    #[test]
    fn greedy_never_beats_exact_on_nonuniform_games((spec, cfg) in arb_weighted_instance()) {
        // The heuristic's contract on arbitrary per-edge weights, link
        // costs and lengths (both cost models): it prices through the same
        // oracle as the exact search, never reports a cost below the true
        // optimum, and never reports one above the node's current cost.
        let options = BestResponseOptions::default();
        let mut engine = DistanceEngine::new(&spec, cfg.clone());
        for u in NodeId::all(spec.node_count()) {
            let g = best_response::greedy(&spec, &cfg, u);
            let e = best_response::exact(&spec, &cfg, u, &options).expect("search fits");
            prop_assert!(e.optimal, "exact search completed");
            prop_assert_eq!(g.current_cost, e.current_cost, "same oracle pricing for {}", u);
            prop_assert!(
                g.best_cost >= e.best_cost,
                "{}: greedy {} below exact optimum {}", u, g.best_cost, e.best_cost
            );
            prop_assert!(
                g.best_cost <= g.current_cost,
                "{}: greedy must never worsen the node", u
            );
            spec.validate_strategy(u, &g.best_strategy).expect("greedy strategy validates");
            // And the engine path agrees with the one-shot exact search.
            let fast = engine.best_response(u, &options).expect("search fits");
            assert_same_decision(&e, &fast, "greedy-vs-exact instance");
        }
    }

    #[test]
    fn churn_round_trips_are_byte_identical_to_fresh_builds(
        use_weighted in proptest::bool::ANY,
        uniform in arb_uniform_instance(),
        weighted in arb_weighted_instance(),
        script in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..10),
    ) {
        let (spec, cfg) = if use_weighted { weighted } else { uniform };
        // Drive the engine through an interleaved rewire/leave/join script.
        // After every membership event the physical engine state must be
        // byte-identical to a fresh build of the same (config, membership)
        // — the churn determinism contract — and after *every* action the
        // masked costs and best responses must match the fresh build's.
        let options = BestResponseOptions::default();
        let mut engine = DistanceEngine::new(&spec, cfg);
        let n = spec.node_count();
        for (step, (action, node_sel, seed)) in script.into_iter().enumerate() {
            let churned = match action % 3 {
                0 => {
                    // Rewire a random live node.
                    let i = (node_sel % engine.live_count() as u64) as usize;
                    let u = engine.live_nodes().nth(i).expect("live index");
                    let s = seeded_live_strategy(&spec, &engine, u, seed);
                    engine.apply_strategy(u, s).expect("seeded strategy validates");
                    false
                }
                1 => {
                    // Depart a random live node (keep at least one).
                    if engine.live_count() <= 1 {
                        continue;
                    }
                    let i = (node_sel % engine.live_count() as u64) as usize;
                    let u = engine.live_nodes().nth(i).expect("live index");
                    engine.remove_node(u).expect("live node departs");
                    true
                }
                _ => {
                    // Re-admit a random departed node (if any) — including
                    // the remove-then-re-add-same-strategy round trip when
                    // the seeded draw reproduces the old links.
                    let dead: Vec<NodeId> =
                        NodeId::all(n).filter(|&u| !engine.is_live(u)).collect();
                    if dead.is_empty() {
                        continue;
                    }
                    let u = dead[(node_sel % dead.len() as u64) as usize];
                    let s = seeded_live_strategy(&spec, &engine, u, seed);
                    engine.add_node(u, s).expect("seeded join validates");
                    true
                }
            };

            let live = engine.live_set().clone();
            let mut fresh =
                DistanceEngine::with_membership(&spec, engine.config().clone(), &live)
                    .expect("engine state is always a valid membership");
            if churned {
                // Churn ops canonicalize the CSR: physical byte-identity.
                prop_assert_eq!(
                    engine.state_digest(),
                    fresh.state_digest(),
                    "step {}: churned engine diverged from fresh build", step
                );
            }
            for u in NodeId::all(n) {
                prop_assert_eq!(
                    engine.node_cost(u),
                    fresh.node_cost(u),
                    "step {}: cost of {} diverged", step, u
                );
            }
            for u in engine.live_nodes().collect::<Vec<_>>() {
                let warm = engine.best_response(u, &options).expect("search fits");
                let cold = fresh.best_response(u, &options).expect("search fits");
                prop_assert_eq!(&warm, &cold, "step {}: best response of {} diverged", step, u);
                // The search prices strategies from staged deviation rows,
                // the evaluator from base row `u` masked to the live set:
                // both must agree on the held and on the best strategy.
                prop_assert_eq!(
                    warm.current_cost,
                    engine.node_cost(u),
                    "step {}: search and evaluator price {}'s strategy differently", step, u
                );
                let mut moved = engine.config().clone();
                moved
                    .set_strategy(&spec, u, warm.best_strategy.clone())
                    .expect("the best strategy validates");
                let mut probe = DistanceEngine::with_membership(&spec, moved, &live)
                    .expect("the best strategy targets live nodes");
                prop_assert_eq!(
                    warm.best_cost,
                    probe.node_cost(u),
                    "step {}: {}'s best strategy costs otherwise", step, u
                );
            }
        }
    }
}

// ===== derived deviation rows: the row store against the skip traversal ==
//
// The engine keeps one full-graph base row per source and derives every
// deviation row `ℓ(u,c) + d_{G∖u}(c, ·)` from base row `c` by re-deriving
// only the affected set. The `G∖u` skip traversal is the definition that
// derivation must reproduce, value for value and touched set for touched
// set — including after rewires and departures, when the base rows it
// starts from are the ones that survived the touched-set invalidation.

/// Asserts that every deviation row `(u, c)` between live nodes that
/// `engine` derives equals the skip traversal from `c` in `G∖u` seeded at
/// `ℓ(u,c)` and clamped at the penalty, touched set included, and that its
/// affected set is exactly the nodes reached from `c` whose distance grows
/// without `u`'s arcs.
fn assert_derived_rows_match_skip_traversal(
    spec: &GameSpec,
    engine: &mut DistanceEngine<'_>,
    context: &str,
) {
    let n = spec.node_count();
    let m = spec.penalty();
    let csr = CsrGraph::from_digraph(&engine.config().to_graph(spec));
    let mut bfs = ClampedBfs::<u64>::new(n);
    let mut dijkstra = ClampedDijkstra::<u64>::new(n);
    // `skip = usize::MAX` skips nothing: the full-graph row.
    let mut run = |source: usize, skip: usize, offset: u64| -> (Vec<u64>, BitSet) {
        if spec.has_unit_lengths() {
            bfs.run_skipping(&csr, source, skip, offset, m);
            (bfs.distances().to_vec(), bfs.touched().clone())
        } else {
            dijkstra.run_skipping(&csr, source, skip, offset, m);
            (dijkstra.distances().to_vec(), dijkstra.touched().clone())
        }
    };
    let live: Vec<NodeId> = engine.live_nodes().collect();
    for &u in &live {
        for &c in live.iter().filter(|&&c| c != u) {
            let derived = engine.deviation_row(u, c);
            let (row, touched) = run(c.index(), u.index(), spec.link_length(u, c));
            assert_eq!(derived.row, row, "{context}: row ({u}, {c})");
            assert_eq!(derived.touched, touched, "{context}: touched ({u}, {c})");
            let (full, _) = run(c.index(), usize::MAX, 0);
            let (avoiding, _) = run(c.index(), u.index(), 0);
            let affected: Vec<NodeId> = (0..n)
                .filter(|&v| v != u.index() && full[v] < m && avoiding[v] > full[v])
                .map(NodeId::new)
                .collect();
            assert_eq!(
                derived.affected, affected,
                "{context}: affected set ({u}, {c})"
            );
        }
    }
}

proptest! {
    #[test]
    fn derived_rows_match_the_skip_traversal(
        use_weighted in proptest::bool::ANY,
        uniform in arb_uniform_instance(),
        weighted in arb_weighted_instance(),
        script in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..8),
    ) {
        // Uniform games have unit lengths (BFS rows, FIFO decisions);
        // weighted ones mostly do not (Dijkstra rows, heap decisions).
        let (spec, cfg) = if use_weighted { weighted } else { uniform };
        let tiers: &[RowTier] = match RowTier::auto(&spec) {
            RowTier::I16 => &[RowTier::I16, RowTier::U64],
            RowTier::U64 => &[RowTier::U64],
        };
        for &tier in tiers {
            let mut engine =
                DistanceEngine::with_tier(&spec, cfg.clone(), tier).expect("the tier fits");
            assert_derived_rows_match_skip_traversal(&spec, &mut engine, &format!("{tier:?} start"));
            for (step, &(action, node_sel, seed)) in script.iter().enumerate() {
                let i = (node_sel % engine.live_count() as u64) as usize;
                let u = engine.live_nodes().nth(i).expect("live index");
                // Mostly rewires, with the odd departure.
                if action % 5 == 0 && engine.live_count() > 2 {
                    engine.remove_node(u).expect("live node departs");
                } else {
                    let s = seeded_live_strategy(&spec, &engine, u, seed);
                    engine.apply_strategy(u, s).expect("seeded strategy validates");
                }
                let context = format!("{tier:?} after step {step}");
                assert_derived_rows_match_skip_traversal(&spec, &mut engine, &context);
            }
        }
    }
}

/// Asserts that `engine`'s base row of `v` (its raw distances) equals the
/// row a fresh build of the same configuration and membership computes.
fn assert_row_matches_fresh_build(
    spec: &GameSpec,
    engine: &mut DistanceEngine<'_>,
    tier: RowTier,
    v: NodeId,
    context: &str,
) {
    let mut fresh = DistanceEngine::with_membership_tier(
        spec,
        engine.config().clone(),
        engine.live_set(),
        tier,
    )
    .expect("engine state is always a valid membership");
    assert_eq!(
        engine.distances_from(v),
        fresh.distances_from(v),
        "{context}: distances from {v}"
    );
}

proptest! {
    #[test]
    fn sparse_reads_match_fresh_builds_across_rewiring_scripts(
        use_weighted in proptest::bool::ANY,
        uniform in arb_uniform_instance(),
        weighted in arb_weighted_instance(),
        script in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            1..12,
        ),
    ) {
        // A base row dropped by exactly one patch is repaired when next
        // read; one dropped again first falls back to a traversal. So reads
        // here are skipped for a random number of patches, and otherwise
        // touch a random subset of rows (base rows, and the deviation rows
        // derived from them), each checked against a fresh build. At the
        // end, every live node's distances are.
        let (spec, cfg) = if use_weighted { weighted } else { uniform };
        let n = spec.node_count();
        let tiers: &[RowTier] = match RowTier::auto(&spec) {
            RowTier::I16 => &[RowTier::I16, RowTier::U64],
            RowTier::U64 => &[RowTier::U64],
        };
        for &tier in tiers {
            let mut engine =
                DistanceEngine::with_tier(&spec, cfg.clone(), tier).expect("the tier fits");
            engine.node_costs();
            for (step, &(action, node_sel, seed, reads)) in script.iter().enumerate() {
                // Mostly rewires, with the odd departure and rejoin.
                let dead: Vec<NodeId> = NodeId::all(n).filter(|&u| !engine.is_live(u)).collect();
                if action % 7 == 0 && !dead.is_empty() {
                    let u = dead[(node_sel % dead.len() as u64) as usize];
                    let s = seeded_live_strategy(&spec, &engine, u, seed);
                    engine.add_node(u, s).expect("seeded join validates");
                } else {
                    let i = (node_sel % engine.live_count() as u64) as usize;
                    let u = engine.live_nodes().nth(i).expect("live index");
                    if action % 5 == 0 && engine.live_count() > 2 {
                        engine.remove_node(u).expect("live node departs");
                    } else {
                        let s = seeded_live_strategy(&spec, &engine, u, seed);
                        engine.apply_strategy(u, s).expect("seeded strategy validates");
                    }
                }
                if reads % 3 == 0 {
                    continue;
                }
                let context = format!("{tier:?} after step {step}");
                let live: Vec<NodeId> = engine.live_nodes().collect();
                for (j, &v) in live.iter().enumerate() {
                    match (reads >> (2 + 2 * j)) & 3 {
                        0 => assert_row_matches_fresh_build(&spec, &mut engine, tier, v, &context),
                        1 => {
                            // A deviation row reads base row `c` first.
                            let u = live[(j + 1) % live.len()];
                            if u != v {
                                let derived = engine.deviation_row(u, v);
                                let mut fresh = DistanceEngine::with_membership_tier(
                                    &spec,
                                    engine.config().clone(),
                                    engine.live_set(),
                                    tier,
                                )
                                .expect("engine state is always a valid membership");
                                prop_assert_eq!(
                                    derived,
                                    fresh.deviation_row(u, v),
                                    "{}: deviation row ({}, {})", context, u, v
                                );
                            }
                        }
                        _ => {}
                    }
                }
            }
            let live: Vec<NodeId> = engine.live_nodes().collect();
            for &v in &live {
                assert_row_matches_fresh_build(&spec, &mut engine, tier, v, &format!("{tier:?} end"));
            }
        }
    }
}

proptest! {
    #[test]
    fn moves_after_their_own_search_match_fresh_builds(
        use_weighted in proptest::bool::ANY,
        uniform in arb_uniform_instance(),
        weighted in arb_weighted_instance(),
        departures in proptest::collection::vec(any::<u64>(), 0..3),
        script in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), proptest::bool::ANY),
            1..8,
        ),
    ) {
        // Each step searches a live node and moves it at once, to its best
        // response or to a random valid strategy, as a walk or a daemon
        // client does. The patch then refills the rows it drops from that
        // search's staged rows, and leaves the dropped rows the stage lacks
        // (candidates the mover cannot afford) to the cut repair; a search
        // served from the memo leaves them all to it. Every deviation row,
        // and every cost, must equal a fresh build's, with and without
        // departed peers.
        let (spec, cfg) = if use_weighted { weighted } else { uniform };
        let options = BestResponseOptions::default();
        let tiers: &[RowTier] = match RowTier::auto(&spec) {
            RowTier::I16 => &[RowTier::I16, RowTier::U64],
            RowTier::U64 => &[RowTier::U64],
        };
        for &tier in tiers {
            let mut engine =
                DistanceEngine::with_tier(&spec, cfg.clone(), tier).expect("the tier fits");
            for &sel in &departures {
                if engine.live_count() > 2 {
                    let i = (sel % engine.live_count() as u64) as usize;
                    let u = engine.live_nodes().nth(i).expect("live index");
                    engine.remove_node(u).expect("live node departs");
                }
            }
            for (step, &(node_sel, seed, best)) in script.iter().enumerate() {
                let i = (node_sel % engine.live_count() as u64) as usize;
                let u = engine.live_nodes().nth(i).expect("live index");
                let out = engine.best_response(u, &options).expect("search fits");
                let strategy = if best {
                    out.best_strategy
                } else {
                    seeded_live_strategy(&spec, &engine, u, seed)
                };
                engine.apply_strategy(u, strategy).expect("the strategy validates");
                let mut fresh = DistanceEngine::with_membership_tier(
                    &spec,
                    engine.config().clone(),
                    engine.live_set(),
                    tier,
                )
                .expect("engine state is always a valid membership");
                let live: Vec<NodeId> = engine.live_nodes().collect();
                for &v in &live {
                    for &c in live.iter().filter(|&&c| c != v) {
                        prop_assert_eq!(
                            engine.deviation_row(v, c),
                            fresh.deviation_row(v, c),
                            "{:?} after step {}: deviation row ({}, {})", tier, step, v, c
                        );
                    }
                }
                prop_assert_eq!(
                    engine.node_costs(),
                    fresh.node_costs(),
                    "{:?} after step {}", tier, step
                );
            }
        }
    }
}

// ===== cross-width differential: i16 tier vs u64 tier ===================
//
// The i16 row kernel's contract is byte-identity, not approximation: every
// cost, decision, digest, and walk trajectory must equal the u64 tier's.
// Every cost lifts the saturated stand-in back to the penalty, so any
// divergence here means a missed lift, a 16-bit lane overflow or a
// traversal-order change — exactly the bugs this suite exists to catch.

/// Both tiers of an engine over the same instance; the small proptest
/// instances always fit i16 (`n ≤ 9`, `max ℓ ≤ 5`).
fn both_tiers<'a>(
    spec: &'a GameSpec,
    cfg: &Configuration,
) -> (DistanceEngine<'a>, DistanceEngine<'a>) {
    let narrow = DistanceEngine::with_tier(spec, cfg.clone(), RowTier::I16)
        .expect("proptest instances fit the i16 tier");
    let wide = DistanceEngine::with_tier(spec, cfg.clone(), RowTier::U64).expect("u64 always fits");
    (narrow, wide)
}

proptest! {
    #[test]
    fn i16_tier_matches_u64_on_uniform_games((spec, cfg) in arb_uniform_instance()) {
        let options = BestResponseOptions::default();
        let (mut narrow, mut wide) = both_tiers(&spec, &cfg);
        prop_assert_eq!(narrow.node_costs(), wide.node_costs());
        prop_assert_eq!(narrow.social_cost(), wide.social_cost());
        for u in NodeId::all(spec.node_count()) {
            let a = narrow.best_response(u, &options).expect("search fits");
            let b = wide.best_response(u, &options).expect("search fits");
            // Full equality, not just same_decision: the search prunes on
            // u64 totals on both tiers, so even `evaluations` must agree.
            prop_assert_eq!(a, b, "node {} diverged across tiers", u);
            prop_assert_eq!(narrow.distances_from(u), wide.distances_from(u));
        }
        prop_assert_eq!(narrow.state_digest(), wide.state_digest());
    }

    #[test]
    fn i16_tier_matches_u64_on_weighted_games((spec, cfg) in arb_weighted_instance()) {
        // Non-unit lengths exercise the clamped Dijkstra kernel (u64
        // relaxation, narrow storage).
        let options = BestResponseOptions::default();
        let (mut narrow, mut wide) = both_tiers(&spec, &cfg);
        prop_assert_eq!(narrow.node_costs(), wide.node_costs());
        for u in NodeId::all(spec.node_count()) {
            let a = narrow.best_response(u, &options).expect("search fits");
            let b = wide.best_response(u, &options).expect("search fits");
            prop_assert_eq!(a, b, "node {} diverged across tiers", u);
        }
        prop_assert_eq!(narrow.state_digest(), wide.state_digest());
    }

    #[test]
    fn i16_tier_matches_u64_across_rewiring_scripts(
        (spec, cfg) in arb_uniform_instance(),
        script in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..10),
    ) {
        // Incremental invalidation must keep the tiers in lockstep, not
        // just fresh builds.
        let options = BestResponseOptions::default();
        let (mut narrow, mut wide) = both_tiers(&spec, &cfg);
        for (step, (node_sel, seed)) in script.into_iter().enumerate() {
            let u = NodeId::new((node_sel % spec.node_count() as u64) as usize);
            let replacement = Configuration::random(&spec, seed);
            narrow.apply_strategy(u, replacement.strategy(u).to_vec()).expect("valid");
            wide.apply_strategy(u, replacement.strategy(u).to_vec()).expect("valid");
            prop_assert_eq!(
                narrow.node_costs(),
                wide.node_costs(),
                "step {}: costs diverged", step
            );
            let a = narrow.best_response(u, &options).expect("search fits");
            let b = wide.best_response(u, &options).expect("search fits");
            prop_assert_eq!(a, b, "step {}: decision diverged", step);
        }
    }

    #[test]
    fn churn_scripts_preserve_tier_equality(
        (spec, cfg) in arb_uniform_instance(),
        script in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..10),
    ) {
        // Leave/rejoin/rewire scripts drive both tiers through the same
        // membership history; the physical state digest must stay equal
        // after every event.
        let n = spec.node_count();
        let (mut narrow, mut wide) = both_tiers(&spec, &cfg);
        for (step, (action, node_sel, seed)) in script.into_iter().enumerate() {
            match action % 3 {
                0 => {
                    let i = (node_sel % narrow.live_count() as u64) as usize;
                    let u = narrow.live_nodes().nth(i).expect("live index");
                    let s = seeded_live_strategy(&spec, &narrow, u, seed);
                    narrow.apply_strategy(u, s.clone()).expect("valid");
                    wide.apply_strategy(u, s).expect("valid");
                }
                1 => {
                    if narrow.live_count() <= 1 {
                        continue;
                    }
                    let i = (node_sel % narrow.live_count() as u64) as usize;
                    let u = narrow.live_nodes().nth(i).expect("live index");
                    narrow.remove_node(u).expect("live node departs");
                    wide.remove_node(u).expect("live node departs");
                }
                _ => {
                    let dead: Vec<NodeId> =
                        NodeId::all(n).filter(|&u| !narrow.is_live(u)).collect();
                    if dead.is_empty() {
                        continue;
                    }
                    let u = dead[(node_sel % dead.len() as u64) as usize];
                    let s = seeded_live_strategy(&spec, &narrow, u, seed);
                    narrow.add_node(u, s.clone()).expect("valid join");
                    wide.add_node(u, s).expect("valid join");
                }
            }
            prop_assert_eq!(
                narrow.state_digest(),
                wide.state_digest(),
                "step {}: digests diverged", step
            );
            for u in NodeId::all(n) {
                prop_assert_eq!(
                    narrow.node_cost(u),
                    wide.node_cost(u),
                    "step {}: cost of {} diverged", step, u
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn walks_replay_identically_across_tiers(
        (spec, cfg) in arb_uniform_instance(),
        sched_sel in 0usize..3,
        rng_seed in any::<u64>(),
    ) {
        // Same scheduler, same instance: the i16 walk must apply the
        // identical move sequence and land in the identical state as the
        // u64 walk.
        let scheduler = match sched_sel {
            0 => Scheduler::RoundRobin,
            1 => Scheduler::MaxCostFirst,
            _ => Scheduler::Random { seed: rng_seed },
        };
        let [narrow, wide] = [RowTier::I16, RowTier::U64].map(|tier| {
            let mut walk = Walk::with_tier(&spec, cfg.clone(), tier)
                .expect("proptest instances fit both tiers")
                .with_scheduler(scheduler.clone())
                .detect_cycles(false)
                .record_trace(true);
            let outcome = walk.run(300).expect("walk fits");
            (
                outcome,
                walk.trace().to_vec(),
                walk.state_digest(),
                walk.into_config(),
            )
        });
        prop_assert_eq!(&narrow.0, &wide.0, "outcome diverged on the u64 tier");
        prop_assert_eq!(&narrow.1, &wide.1, "trace diverged on the u64 tier");
        prop_assert_eq!(narrow.2, wide.2, "digest diverged on the u64 tier");
        prop_assert_eq!(&narrow.3, &wide.3, "final config diverged on the u64 tier");
    }
}

// ===== multi-block searches ================================================
//
// The exact bound source keeps one min row per block of 8 consecutive
// candidates and skips whole blocks of budget leaves on it. The proptests
// above draw n ≤ 9, so each of their searches fits one block; these draw
// 10..=40 nodes (2–5 blocks), on both row tiers, with and without departed
// peers, and replay a short rewiring script.

/// A multi-block game: uniform with k in 1..=3, or weighted (seeded
/// weights, lengths, costs and budgets) under the sum or the max model.
fn arb_multi_block_instance() -> impl Strategy<Value = (GameSpec, Configuration)> {
    (10usize..=40, 0u64..3, 1u64..=3, any::<u64>()).prop_map(|(n, shape, k, seed)| {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let spec = if shape == 0 {
            GameSpec::uniform(n, k)
        } else {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut b = GameSpec::builder(n);
            for u in 0..n {
                for v in 0..n {
                    b = b
                        .weight(u, v, rng.gen_range(0..=3u64))
                        .link_length(u, v, rng.gen_range(1..=3u64))
                        .link_cost(u, v, rng.gen_range(1..=2u64));
                }
                b = b.budget(u, rng.gen_range(1..=4u64));
            }
            if shape == 2 {
                b = b.cost_model(CostModel::MaxDistance);
            }
            b.build().expect("valid spec")
        };
        let cfg = Configuration::random(&spec, seed);
        (spec, cfg)
    })
}

/// [`reference::exact`] for live node `u` of `engine`, run on the dense game
/// of the live nodes (same penalty, relabeled ids) and mapped back. The
/// reference knows no membership, and departed peers carry no arcs, so the
/// two games price every live strategy alike.
fn reference_on_live(
    spec: &GameSpec,
    engine: &DistanceEngine<'_>,
    u: NodeId,
    options: &BestResponseOptions,
) -> BestResponseOutcome {
    let live: Vec<NodeId> = engine.live_nodes().collect();
    let dense = |v: NodeId| NodeId::new(live.binary_search(&v).expect("a live node"));
    let mut b = GameSpec::builder(live.len())
        .cost_model(spec.cost_model())
        .penalty(spec.penalty());
    for (i, &a) in live.iter().enumerate() {
        b = b.budget(i, spec.budget(a));
        for (j, &c) in live.iter().enumerate() {
            if i != j {
                b = b
                    .weight(i, j, spec.weight(a, c))
                    .link_cost(i, j, spec.link_cost(a, c))
                    .link_length(i, j, spec.link_length(a, c));
            }
        }
    }
    let compact = b.build().expect("the full game's penalty dominates");
    let strategies = live
        .iter()
        .map(|&a| {
            engine
                .config()
                .strategy(a)
                .iter()
                .map(|&t| dense(t))
                .collect()
        })
        .collect();
    let cfg = Configuration::from_strategies(&compact, strategies).expect("live links only");
    let mut out = reference::exact(&compact, &cfg, dense(u), options).expect("search fits");
    out.node = u;
    out.best_strategy = out.best_strategy.iter().map(|t| live[t.index()]).collect();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multi_block_searches_match_reference(
        (spec, cfg) in arb_multi_block_instance(),
        partial in proptest::bool::ANY,
        leavers in proptest::collection::vec(any::<u64>(), 3),
        script in proptest::collection::vec((any::<u64>(), any::<u64>()), 3),
        probes in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let options = BestResponseOptions::default();
        let (mut narrow, mut wide) = both_tiers(&spec, &cfg);
        if partial {
            for sel in leavers {
                let i = (sel % narrow.live_count() as u64) as usize;
                let u = narrow.live_nodes().nth(i).expect("live index");
                narrow.remove_node(u).expect("live node departs");
                wide.remove_node(u).expect("live node departs");
            }
        }
        for step in 0..=script.len() {
            if step > 0 {
                let (node_sel, seed) = script[step - 1];
                let i = (node_sel % narrow.live_count() as u64) as usize;
                let u = narrow.live_nodes().nth(i).expect("live index");
                let s = seeded_live_strategy(&spec, &narrow, u, seed);
                narrow.apply_strategy(u, s.clone()).expect("seeded strategy validates");
                wide.apply_strategy(u, s).expect("seeded strategy validates");
            }
            for &sel in &probes {
                let i = (sel % narrow.live_count() as u64) as usize;
                let u = narrow.live_nodes().nth(i).expect("live index");
                let frozen = reference_on_live(&spec, &narrow, u, &options);
                for engine in [&mut narrow, &mut wide] {
                    let fast = engine.best_response(u, &options).expect("search fits");
                    let context = format!("step {step} node {u} (partial: {partial})");
                    assert_same_decision(&frozen, &fast, &context);
                    prop_assert!(
                        fast.evaluations <= frozen.evaluations,
                        "{}: {} evaluations above the reference's {}",
                        context, fast.evaluations, frozen.evaluations
                    );
                }
            }
        }
    }
}
