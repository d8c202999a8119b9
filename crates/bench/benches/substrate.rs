//! Substrate micro-benchmarks: the graph primitives that dominate every
//! best-response loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bbc_core::{Configuration, GameSpec};
use bbc_graph::{
    reach_counts, scc::strongly_connected_components, BfsBuffer, ClampedBfs, ConnectivityScratch,
    CsrGraph, DistanceMatrix, UNREACHABLE,
};

fn graph_of(n: usize, k: u64, seed: u64) -> bbc_graph::DiGraph {
    let spec = GameSpec::uniform(n, k);
    Configuration::random(&spec, seed).to_graph(&spec)
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs");
    group.sample_size(20);
    for &n in &[100usize, 400, 1600] {
        let g = graph_of(n, 3, 7);
        let mut buf = BfsBuffer::new(n);
        group.bench_with_input(BenchmarkId::new("adjacency", n), &g, |b, g| {
            b.iter(|| {
                buf.run(g, 0);
                buf.reached()
            })
        });
        let csr = CsrGraph::from_digraph(&g);
        let mut cbuf = ClampedBfs::<u64>::new(n);
        group.bench_with_input(BenchmarkId::new("csr", n), &csr, |b, csr| {
            b.iter(|| {
                cbuf.run(csr, 0, 0, UNREACHABLE);
                cbuf.distances()
                    .iter()
                    .filter(|&&d| d != UNREACHABLE)
                    .count()
            })
        });
    }
    group.finish();
}

fn bench_csr_patching(c: &mut Criterion) {
    // The dynamics-step primitive: rewire one node's slab in place vs
    // re-materializing the whole adjacency list from the configuration.
    let mut group = c.benchmark_group("graph_update");
    group.sample_size(20);
    for &n in &[64usize, 400] {
        let spec = GameSpec::uniform(n, 3);
        let cfg = Configuration::random(&spec, 3);
        group.bench_with_input(BenchmarkId::new("rebuild_adjacency", n), &cfg, |b, cfg| {
            b.iter(|| cfg.to_graph(&spec).arc_count())
        });
        let mut csr = CsrGraph::from_digraph(&cfg.to_graph(&spec));
        let mut conn = ConnectivityScratch::new();
        group.bench_with_input(BenchmarkId::new("patch_csr", n), &cfg, |b, _| {
            let mut flip = 0u32;
            b.iter(|| {
                // Rewire node 0 between two 3-link strategies.
                flip ^= 1;
                let base = 1 + flip as usize;
                csr.set_out_links(
                    0,
                    &[
                        (base as u32, 1),
                        ((base + 2) as u32, 1),
                        ((base + 4) as u32, 1),
                    ],
                );
                conn.is_strongly_connected(&csr)
            })
        });
    }
    group.finish();
}

fn bench_all_pairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_pairs_distances");
    group.sample_size(10);
    for &n in &[50usize, 150, 300] {
        let g = graph_of(n, 2, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| DistanceMatrix::all_pairs(g).node_count())
        });
    }
    group.finish();
}

fn bench_scc_and_reach(c: &mut Criterion) {
    let mut group = c.benchmark_group("scc_reach");
    group.sample_size(20);
    for &n in &[200usize, 800] {
        let g = graph_of(n, 1, 3); // k=1 gives rich component structure
        group.bench_with_input(BenchmarkId::new("tarjan", n), &g, |b, g| {
            b.iter(|| strongly_connected_components(g).len())
        });
        group.bench_with_input(BenchmarkId::new("reach", n), &g, |b, g| {
            b.iter(|| reach_counts(g).iter().sum::<usize>())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bfs,
    bench_csr_patching,
    bench_all_pairs,
    bench_scc_and_reach
);
criterion_main!(benches);
