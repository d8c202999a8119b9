//! Property-based tests for the graph substrate.

use bbc_graph::{
    bfs::bfs_distances,
    diameter::eccentricity,
    dijkstra::dijkstra_distances,
    reach::reach_counts,
    scc::{condensation, is_strongly_connected, strongly_connected_components},
    ClampedBfs, ClampedDijkstra, ConnectivityScratch, CsrGraph, DiGraph, DistanceMatrix,
    UNREACHABLE,
};
use proptest::prelude::*;

/// Arbitrary unit-length digraph: node count in 1..=24, arc density ~2 per
/// node.
fn arb_unit_graph() -> impl Strategy<Value = DiGraph> {
    (1usize..=24).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(3 * n)).prop_map(move |pairs| {
            DiGraph::from_unit_edges(n, pairs.into_iter().filter(|(u, v)| u != v))
        })
    })
}

/// Arbitrary weighted digraph with lengths in 1..=10.
fn arb_weighted_graph() -> impl Strategy<Value = DiGraph> {
    (1usize..=20).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 1u64..=10), 0..(3 * n)).prop_map(move |tris| {
            DiGraph::from_edges(n, tris.into_iter().filter(|(u, v, _)| u != v))
        })
    })
}

/// Reference Bellman-Ford, deliberately naive.
fn bellman_ford(g: &DiGraph, source: usize) -> Vec<u64> {
    let n = g.node_count();
    let mut dist = vec![UNREACHABLE; n];
    dist[source] = 0;
    for _ in 0..n {
        let mut changed = false;
        for (u, a) in g.iter_arcs() {
            if dist[u] != UNREACHABLE && dist[u] + a.len < dist[a.to()] {
                dist[a.to()] = dist[u] + a.len;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

proptest! {
    #[test]
    fn bfs_matches_dijkstra_on_unit_graphs(g in arb_unit_graph(), src_sel in 0usize..1000) {
        let src = src_sel % g.node_count();
        prop_assert_eq!(bfs_distances(&g, src), dijkstra_distances(&g, src));
    }

    #[test]
    fn dijkstra_matches_bellman_ford(g in arb_weighted_graph(), src_sel in 0usize..1000) {
        let src = src_sel % g.node_count();
        prop_assert_eq!(dijkstra_distances(&g, src), bellman_ford(&g, src));
    }

    #[test]
    fn distance_zero_iff_self(g in arb_unit_graph(), src_sel in 0usize..1000) {
        let src = src_sel % g.node_count();
        let d = bfs_distances(&g, src);
        prop_assert_eq!(d[src], 0);
        for (v, &dv) in d.iter().enumerate() {
            if v != src {
                prop_assert!(dv >= 1);
            }
        }
    }

    #[test]
    fn arc_relaxation_holds(g in arb_weighted_graph(), src_sel in 0usize..1000) {
        // d(s, v) <= d(s, u) + len(u, v) for every arc: shortest paths are
        // consistent with one-step relaxation.
        let src = src_sel % g.node_count();
        let d = dijkstra_distances(&g, src);
        for (u, a) in g.iter_arcs() {
            if d[u] != UNREACHABLE {
                prop_assert!(d[a.to()] != UNREACHABLE);
                prop_assert!(d[a.to()] <= d[u] + a.len);
            }
        }
    }

    #[test]
    fn scc_members_are_mutually_reachable(g in arb_unit_graph()) {
        let comps = strongly_connected_components(&g);
        // Partition check.
        let mut seen = vec![false; g.node_count()];
        for comp in &comps {
            for &v in comp {
                prop_assert!(!seen[v], "node {} in two components", v);
                seen[v] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
        // Mutual reachability within a component.
        for comp in &comps {
            let d0 = bfs_distances(&g, comp[0]);
            for &v in comp {
                prop_assert!(d0[v] != UNREACHABLE);
                let dv = bfs_distances(&g, v);
                prop_assert!(dv[comp[0]] != UNREACHABLE);
            }
        }
    }

    #[test]
    fn condensation_is_acyclic(g in arb_unit_graph()) {
        let cond = condensation(&g);
        // Tarjan order makes every arc strictly decreasing, which is a
        // certificate of acyclicity.
        for &(from, to) in &cond.arcs {
            prop_assert!(from > to);
        }
        prop_assert!(!cond.members.is_empty() || g.node_count() == 0);
        prop_assert!(!cond.sink_components().is_empty());
    }

    #[test]
    fn reach_matches_per_node_bfs(g in arb_unit_graph()) {
        let fast = reach_counts(&g);
        for (v, &fast_v) in fast.iter().enumerate() {
            let d = bfs_distances(&g, v);
            let brute = d.iter().filter(|&&x| x != UNREACHABLE).count();
            prop_assert_eq!(fast_v, brute);
        }
    }

    #[test]
    fn distance_matrix_rows_match_single_source(g in arb_weighted_graph()) {
        let m = DistanceMatrix::all_pairs(&g);
        for u in 0..g.node_count() {
            prop_assert_eq!(m.row(u), &dijkstra_distances(&g, u)[..]);
        }
    }

    #[test]
    fn eccentricity_consistent_with_matrix(g in arb_unit_graph()) {
        let e = eccentricity(&g);
        let m = DistanceMatrix::all_pairs(&g);
        prop_assert_eq!(e.all_pairs_connected, m.all_pairs_connected());
        if e.all_pairs_connected {
            for u in 0..g.node_count() {
                let row_max = m.row(u).iter().copied().max().unwrap();
                prop_assert_eq!(e.ecc[u], row_max);
            }
        }
    }

    #[test]
    fn csr_bfs_and_dijkstra_match_adjacency_list(g in arb_weighted_graph()) {
        let csr = CsrGraph::from_digraph(&g);
        prop_assert_eq!(csr.arc_count(), g.arc_count());
        prop_assert_eq!(csr.is_unit_length(), g.is_unit_length());
        let n = g.node_count();
        let mut bfs = ClampedBfs::<u64>::new(n);
        let mut dij = ClampedDijkstra::<u64>::new(n);
        for s in 0..n {
            bfs.run(&csr, s, 0, UNREACHABLE);
            prop_assert_eq!(bfs.distances(), &bfs_distances(&g, s)[..]);
            dij.run(&csr, s, 0, UNREACHABLE);
            prop_assert_eq!(dij.distances(), &dijkstra_distances(&g, s)[..]);
        }
    }

    #[test]
    fn csr_skip_traversal_matches_stripped_graph(g in arb_weighted_graph(), skip_sel in 0usize..1000) {
        let skip = skip_sel % g.node_count();
        let csr = CsrGraph::from_digraph(&g);
        let mut stripped = g.clone();
        stripped.take_out_arcs(skip);
        let n = g.node_count();
        let mut dij = ClampedDijkstra::<u64>::new(n);
        for s in 0..n {
            dij.run_skipping(&csr, s, skip, 0, UNREACHABLE);
            prop_assert_eq!(dij.distances(), &dijkstra_distances(&stripped, s)[..]);
            prop_assert!(!dij.touched().contains(skip));
        }
    }

    #[test]
    fn csr_patching_matches_fresh_build(
        edits in proptest::collection::vec((0usize..8, proptest::collection::vec((0usize..8, 1u64..=5), 0..4)), 1..40)
    ) {
        // Replay an arbitrary rewiring script against an incrementally
        // patched CSR and compare with a CSR built from the final rows.
        let n = 8;
        let mut patched = CsrGraph::new(n);
        let mut rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for (u, row) in edits {
            // Dedup targets (parallel arcs are legal but make the row
            // comparison noisy) and drop self-loops.
            let mut clean: Vec<(u32, u64)> = Vec::new();
            for (v, len) in row {
                if v != u && !clean.iter().any(|&(t, _)| t == v as u32) {
                    clean.push((v as u32, len));
                }
            }
            patched.set_out_links(u, &clean);
            rows[u] = clean;
        }
        let mut fresh = CsrGraph::new(n);
        for (u, row) in rows.iter().enumerate() {
            fresh.set_out_links(u, row);
        }
        prop_assert_eq!(patched.arc_count(), fresh.arc_count());
        prop_assert_eq!(patched.is_unit_length(), fresh.is_unit_length());
        let mut a = ClampedDijkstra::<u64>::new(n);
        let mut b = ClampedDijkstra::<u64>::new(n);
        for s in 0..n {
            a.run(&patched, s, 0, UNREACHABLE);
            b.run(&fresh, s, 0, UNREACHABLE);
            prop_assert_eq!(a.distances(), b.distances());
        }
    }

    #[test]
    fn csr_connectivity_matches_tarjan(g in arb_unit_graph()) {
        let mut scratch = ConnectivityScratch::new();
        prop_assert_eq!(
            scratch.is_strongly_connected(&CsrGraph::from_digraph(&g)),
            is_strongly_connected(&g)
        );
    }

    #[test]
    fn csr_touched_set_certifies_row_stability(g in arb_unit_graph(), src_sel in 0usize..1000, m_sel in 0usize..1000) {
        // The cache-invalidation contract: if `m` was not touched by the
        // traversal from `src`, rewiring `m`'s out-links cannot change any
        // distance from `src`.
        let n = g.node_count();
        let src = src_sel % n;
        let m = m_sel % n;
        let csr = CsrGraph::from_digraph(&g);
        let mut bfs = ClampedBfs::<u64>::new(n);
        bfs.run(&csr, src, 0, UNREACHABLE);
        if !bfs.touched().contains(m) {
            let before = bfs.distances().to_vec();
            let mut rewired = csr.clone();
            rewired.set_out_links(m, &[(((m + 1) % n) as u32, 1)]);
            if m != (m + 1) % n {
                bfs.run(&rewired, src, 0, UNREACHABLE);
                prop_assert_eq!(bfs.distances(), &before[..]);
            }
        }
    }

    #[test]
    fn reversed_preserves_pairwise_distances_flipped(g in arb_weighted_graph()) {
        let m = DistanceMatrix::all_pairs(&g);
        let mr = DistanceMatrix::all_pairs(&g.reversed());
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                prop_assert_eq!(m.get(u, v), mr.get(v, u));
            }
        }
    }
}
