//! Dijkstra shortest paths for graphs with non-unit arc lengths.
//!
//! Non-uniform BBC games (§3 of the paper) put arbitrary positive lengths on
//! links; the matching-pennies gadget of Theorem 1, for instance, uses length
//! `L ≫ 1` for "omitted" links. [`DijkstraBuffer`] mirrors
//! [`crate::BfsBuffer`]: reusable state, [`crate::UNREACHABLE`] sentinel for
//! unreached nodes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{DiGraph, UNREACHABLE};

/// Reusable Dijkstra state: distance array plus a binary heap.
///
/// # Examples
///
/// ```
/// use bbc_graph::{DiGraph, DijkstraBuffer};
///
/// let g = DiGraph::from_edges(3, [(0, 1, 4), (0, 2, 1), (2, 1, 2)]);
/// let mut dij = DijkstraBuffer::new(g.node_count());
/// dij.run(&g, 0);
/// assert_eq!(dij.distances(), &[0, 3, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct DijkstraBuffer {
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl DijkstraBuffer {
    /// Creates a buffer sized for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            dist: vec![UNREACHABLE; n],
            heap: BinaryHeap::with_capacity(n),
        }
    }

    /// Runs Dijkstra from `source`, overwriting the internal distance array.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds or the buffer was sized for a
    /// different node count.
    pub fn run(&mut self, g: &DiGraph, source: usize) {
        assert_eq!(
            g.node_count(),
            self.dist.len(),
            "buffer sized for a different graph"
        );
        assert!(source < self.dist.len(), "source {source} out of bounds");
        self.dist.fill(UNREACHABLE);
        self.heap.clear();
        self.dist[source] = 0;
        self.heap.push(Reverse((0, source as u32)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = u as usize;
            if d > self.dist[u] {
                continue; // stale entry
            }
            for a in g.out_arcs(u) {
                let v = a.to();
                let nd = d + a.len;
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.heap.push(Reverse((nd, a.to)));
                }
            }
        }
    }

    /// Distances produced by the last run; unreached nodes hold
    /// [`UNREACHABLE`].
    #[inline]
    pub fn distances(&self) -> &[u64] {
        &self.dist
    }

    /// Number of nodes reached by the last run (including the source).
    pub fn reached(&self) -> usize {
        self.dist.iter().filter(|&&d| d != UNREACHABLE).count()
    }
}

/// One-shot Dijkstra convenience wrapper.
pub fn dijkstra_distances(g: &DiGraph, source: usize) -> Vec<u64> {
    let mut buf = DijkstraBuffer::new(g.node_count());
    buf.run(g, source);
    buf.dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_cheaper_indirect_route() {
        let g = DiGraph::from_edges(4, [(0, 3, 100), (0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        assert_eq!(dijkstra_distances(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_nodes_get_sentinel() {
        let g = DiGraph::from_edges(3, [(1, 2, 5)]);
        assert_eq!(dijkstra_distances(&g, 0), vec![0, UNREACHABLE, UNREACHABLE]);
    }

    #[test]
    fn agrees_with_bfs_on_unit_lengths() {
        let g = DiGraph::from_unit_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (3, 5)]);
        assert_eq!(dijkstra_distances(&g, 0), crate::bfs::bfs_distances(&g, 0));
    }
}
