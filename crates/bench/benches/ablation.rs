//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * the **deviation oracle** (one BFS per candidate, then subset pricing
//!   over precomputed rows) vs naive per-strategy re-evaluation of the whole
//!   graph;
//! * the **branch-and-bound** exact search vs flat enumeration of every
//!   subset through the oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bbc_core::{
    best_response::{self, BestResponseOptions},
    Configuration, DistanceEngine, Evaluator, GameSpec, NodeId,
};
use bbc_graph::UNREACHABLE;

/// Naive best response: clone the configuration and re-evaluate the full
/// graph for every k-subset of targets.
fn naive_best_response(spec: &GameSpec, config: &Configuration, u: NodeId) -> u64 {
    let mut eval = Evaluator::new(spec);
    let pool = spec.affordable_targets(u);
    let k = spec.budget(u) as usize;
    let mut best = u64::MAX;
    let mut subset: Vec<usize> = (0..k.min(pool.len())).collect();
    loop {
        let targets: Vec<NodeId> = subset.iter().map(|&i| pool[i]).collect();
        let mut trial = config.clone();
        trial
            .set_strategy(spec, u, targets)
            .expect("subset within budget");
        best = best.min(eval.node_cost(&trial, u));
        // Next k-combination.
        let mut i = subset.len();
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if subset[i] != i + pool.len() - subset.len() {
                break;
            }
        }
        subset[i] += 1;
        for j in i + 1..subset.len() {
            subset[j] = subset[j - 1] + 1;
        }
    }
}

/// Oracle-based flat enumeration: one deviation row per candidate, but
/// price every subset with no pruning (ablates the branch-and-bound). Sum
/// cost model only.
fn oracle_flat_enumeration(spec: &GameSpec, config: &Configuration, u: NodeId) -> u64 {
    // Deviation rows `ℓ(u,c) + d_{G∖u}(c, ·)`: distances from each
    // candidate once `u`'s links are cleared, penalty-clamped.
    let mut stripped = config.clone();
    stripped
        .set_strategy(spec, u, Vec::new())
        .expect("the empty strategy is always valid");
    let mut engine = DistanceEngine::new(spec, stripped);
    let pool = spec.affordable_targets(u);
    let rows: Vec<Vec<u64>> = pool
        .iter()
        .map(|&c| {
            let len = spec.link_length(u, c);
            engine
                .distances_from(c)
                .iter()
                .map(|&d| {
                    if d == UNREACHABLE {
                        spec.penalty()
                    } else {
                        len + d
                    }
                })
                .collect()
        })
        .collect();
    let strategy_cost = |subset: &[usize]| -> u64 {
        NodeId::all(spec.node_count())
            .filter(|&v| v != u)
            .map(|v| {
                let d = subset.iter().map(|&i| rows[i][v.index()]);
                spec.weight(u, v) * d.min().unwrap_or(spec.penalty())
            })
            .sum()
    };
    let k = spec.budget(u) as usize;
    let mut best = u64::MAX;
    let mut subset: Vec<usize> = (0..k.min(pool.len())).collect();
    loop {
        best = best.min(strategy_cost(&subset));
        let mut i = subset.len();
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if subset[i] != i + pool.len() - subset.len() {
                break;
            }
        }
        subset[i] += 1;
        for j in i + 1..subset.len() {
            subset[j] = subset[j - 1] + 1;
        }
    }
}

fn bench_oracle_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_best_response");
    group.sample_size(10);
    for &(n, k) in &[(40usize, 2u64), (60, 2)] {
        let spec = GameSpec::uniform(n, k);
        let cfg = Configuration::random(&spec, 9);
        let u = NodeId::new(0);
        let options = BestResponseOptions::default();

        // Sanity: all three strategies agree before we time them.
        let full = best_response::exact(&spec, &cfg, u, &options)
            .expect("fits")
            .best_cost;
        assert_eq!(full, naive_best_response(&spec, &cfg, u));
        assert_eq!(full, oracle_flat_enumeration(&spec, &cfg, u));

        group.bench_with_input(
            BenchmarkId::new("naive_reevaluation", format!("n{n}k{k}")),
            &cfg,
            |b, cfg| b.iter(|| naive_best_response(&spec, cfg, u)),
        );
        group.bench_with_input(
            BenchmarkId::new("oracle_flat", format!("n{n}k{k}")),
            &cfg,
            |b, cfg| b.iter(|| oracle_flat_enumeration(&spec, cfg, u)),
        );
        group.bench_with_input(
            BenchmarkId::new("oracle_branch_bound", format!("n{n}k{k}")),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    best_response::exact(&spec, cfg, u, &options)
                        .expect("fits")
                        .best_cost
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_oracle_ablation);
criterion_main!(benches);
