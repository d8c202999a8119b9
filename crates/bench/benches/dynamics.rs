//! Best-response dynamics benchmarks (E8, E9): walk throughput and the
//! convergence workloads of Theorem 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bbc_constructions::{CayleyGraph, RingWithPath};
use bbc_core::{
    reference, BestResponseOptions, ChurnConfig, ChurnSim, Configuration, GameSpec, NodeId,
    RowTier, Walk,
};

/// Round-robin walk over the frozen pre-refactor best response
/// ([`reference::exact`]): fresh adjacency-list materialization and
/// `UNREACHABLE`-sentinel search every step, no caching. This is the
/// baseline the CSR `DistanceEngine` speedup is measured against; it matches
/// the engine-backed `Walk` configured with `detect_cycles(false)` move for
/// move (the differential suite proves the per-step decisions identical).
fn reference_walk(spec: &GameSpec, mut cfg: Configuration, max_steps: u64) -> (u64, Configuration) {
    let options = BestResponseOptions::default();
    let n = spec.node_count();
    let mut moves = 0u64;
    let mut streak = 0usize;
    let mut steps = 0u64;
    let mut pos = 0usize;
    while steps < max_steps {
        let u = NodeId::new(pos);
        pos = (pos + 1) % n;
        let out = reference::exact(spec, &cfg, u, &options).expect("search fits");
        steps += 1;
        if out.improves() {
            cfg.set_strategy(spec, u, out.best_strategy)
                .expect("valid strategy");
            moves += 1;
            streak = 0;
        } else {
            streak += 1;
            if streak >= n {
                break;
            }
        }
    }
    (moves, cfg)
}

fn bench_engine_vs_reference(c: &mut Criterion) {
    // The acceptance workload: a round-robin dynamics walk on the
    // (24,3)-uniform game, engine-backed Walk vs the pre-refactor path.
    // Capped at a fixed step budget so one sample is ~100ms–1s; both sides
    // run the identical schedule from the identical seeded start.
    let spec = GameSpec::uniform(24, 3);
    let start = Configuration::random(&spec, 7);
    const STEPS: u64 = 1_500;

    // The two paths must agree before their timings mean anything.
    let (ref_moves, ref_cfg) = reference_walk(&spec, start.clone(), STEPS);
    let mut walk = Walk::new(&spec, start.clone()).detect_cycles(false);
    let _ = walk.run(STEPS).expect("walk fits");
    assert_eq!(walk.stats().moves, ref_moves, "paths diverged");
    assert_eq!(walk.config(), &ref_cfg, "paths diverged");

    let mut group = c.benchmark_group("walk_n24k3_round_robin");
    group.sample_size(10);
    group.bench_function("pre_refactor", |b| {
        b.iter(|| reference_walk(&spec, start.clone(), STEPS).0)
    });
    group.bench_function("distance_engine", |b| {
        b.iter(|| {
            let mut walk = Walk::new(&spec, start.clone()).detect_cycles(false);
            walk.run(STEPS).expect("walk fits");
            walk.stats().moves
        })
    });
    group.finish();
}

fn bench_walk_from_empty(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk_from_empty");
    group.sample_size(10);
    for &(n, k) in &[(12usize, 1u64), (12, 2), (20, 2)] {
        let spec = GameSpec::uniform(n, k);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}k{k}")),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let mut walk = Walk::new(spec, Configuration::empty(n)).detect_cycles(false);
                    walk.run(100_000).expect("walk fits").clone()
                })
            },
        );
    }
    group.finish();
}

fn bench_ring_with_path(c: &mut Criterion) {
    // E8's Ω(n²) instance: full convergence run.
    let mut group = c.benchmark_group("ring_with_path_convergence");
    group.sample_size(10);
    for &(ring, path) in &[(12usize, 6usize), (24, 12)] {
        let inst = RingWithPath::new(ring, path).expect("valid instance");
        let spec = inst.spec();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("r{ring}p{path}")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let n = inst.node_count() as u64;
                    let mut walk = Walk::new(&spec, inst.configuration())
                        .with_scheduler(inst.round_order())
                        .detect_cycles(false);
                    walk.run(n * n + n).expect("walk fits");
                    walk.stats().steps_to_strong_connectivity
                })
            },
        );
    }
    group.finish();
}

fn bench_loop_detection(c: &mut Criterion) {
    // E9's unit of work: a (7,2) walk with exact-state cycle detection.
    let spec = GameSpec::uniform(7, 2);
    let mut group = c.benchmark_group("loop_detection");
    group.sample_size(20);
    group.bench_function("walk_72_seed13", |b| {
        b.iter(|| {
            let mut walk = Walk::new(&spec, Configuration::random(&spec, 13));
            walk.run(50_000).expect("walk fits").clone()
        })
    });
    group.finish();
}

fn bench_churn_step(c: &mut Criterion) {
    // The churn runtime's unit of work: one event cycle (draw, apply the
    // join/leave through the engine's node-lifecycle layer, settle for one
    // round of best response). Measured as a fixed 6-event sim on the
    // 32-peer circulant (the p2p_overlay `--churn` workload) — divide by
    // the 6 events + 1 initial settle for the per-event figure.
    let overlay = CayleyGraph::circulant(32, &[1, 5]).expect("valid circulant");
    let spec = overlay.spec();
    let designed = overlay.configuration();
    let cfg = ChurnConfig {
        seed: 32,
        events: 6,
        min_live: 16,
        settle_steps: 32,
        ..ChurnConfig::default()
    };
    let mut group = c.benchmark_group("churn_step");
    group.sample_size(10);
    group.bench_function("p2p32_6events", |b| {
        b.iter(|| {
            let mut sim = ChurnSim::new(&spec, designed.clone(), cfg.clone());
            sim.run().expect("phases fit budget").trajectory_digest
        })
    });
    // The same workload pinned to each row tier (auto picks i16 here —
    // n·max ℓ = 32 is below 16,383 — so the i16 case doubles as a guard
    // that the default path stays on the narrow kernel). Digest equality
    // across tiers is asserted before timing.
    let digest = {
        let mut sim = ChurnSim::with_tier(&spec, designed.clone(), cfg.clone(), RowTier::U64)
            .expect("u64 always fits");
        sim.run().expect("phases fit budget").trajectory_digest
    };
    for tier in [RowTier::I16, RowTier::U64] {
        let mut sim = ChurnSim::with_tier(&spec, designed.clone(), cfg.clone(), tier)
            .expect("32-peer overlay fits both tiers");
        assert_eq!(
            sim.run().expect("phases fit budget").trajectory_digest,
            digest,
            "tiers diverged on the churn workload"
        );
        group.bench_function(format!("p2p32_6events_{tier:?}").to_lowercase(), |b| {
            b.iter(|| {
                let mut sim =
                    ChurnSim::with_tier(&spec, designed.clone(), cfg.clone(), tier).expect("fits");
                sim.run().expect("phases fit budget").trajectory_digest
            })
        });
    }
    group.finish();
}

fn bench_e13_point_tiers(c: &mut Criterion) {
    // The E13 512-peer sweep point's inner loop — round-robin selfish play
    // on the circulant{1,23} overlay, the workload the i16 row kernel
    // exists for (rows and search scratch at n = 512 stop fitting cache at
    // u64 width, and M = 512² runs every cost through the lift). Both tiers
    // run the identical trajectory (asserted), so the median ratio is a pure
    // kernel speedup.
    let overlay = CayleyGraph::circulant(512, &[1, 23]).expect("valid circulant");
    let spec = overlay.spec();
    let designed = overlay.configuration();
    const STEPS: u64 = 24;

    let run = |tier: RowTier| {
        let mut walk = Walk::with_tier(&spec, designed.clone(), tier)
            .expect("512-peer overlay fits both tiers")
            .detect_cycles(false);
        walk.run(STEPS).expect("walk fits");
        (walk.stats().moves, walk.state_digest())
    };
    assert_eq!(
        run(RowTier::I16),
        run(RowTier::U64),
        "tiers diverged on the e13 point"
    );

    let mut group = c.benchmark_group("e13_point_512");
    group.sample_size(10);
    for tier in [RowTier::I16, RowTier::U64] {
        group.bench_function(format!("steps24_{tier:?}").to_lowercase(), |b| {
            b.iter(|| run(tier))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_vs_reference,
    bench_walk_from_empty,
    bench_ring_with_path,
    bench_loop_detection,
    bench_churn_step,
    bench_e13_point_tiers
);
criterion_main!(benches);
