//! Breadth-first shortest paths for unit-length graphs.
//!
//! The BBC best-response oracle runs one BFS per candidate link target, so a
//! single stability check over an `n`-node uniform game performs `Θ(n²)` BFS
//! traversals. [`BfsBuffer`] keeps the queue and distance array alive across
//! runs so each traversal is allocation-free.

use crate::{DiGraph, UNREACHABLE};

/// Reusable BFS state: distance array plus an intrusive queue.
///
/// # Examples
///
/// ```
/// use bbc_graph::{BfsBuffer, DiGraph};
///
/// let g = DiGraph::from_unit_edges(4, [(0, 1), (1, 2), (0, 3)]);
/// let mut bfs = BfsBuffer::new(g.node_count());
/// bfs.run(&g, 0);
/// assert_eq!(bfs.distances(), &[0, 1, 2, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct BfsBuffer {
    dist: Vec<u64>,
    queue: Vec<u32>,
}

impl BfsBuffer {
    /// Creates a buffer sized for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            dist: vec![UNREACHABLE; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Runs BFS from `source`, overwriting the internal distance array.
    ///
    /// Arc lengths are ignored: every arc counts as one hop. Use
    /// [`crate::DijkstraBuffer`] for weighted graphs.
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
        self.queue.clear();
        self.dist[source] = 0;
        self.queue.push(source as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let du = self.dist[u];
            for a in g.out_arcs(u) {
                let v = a.to();
                if self.dist[v] == UNREACHABLE {
                    self.dist[v] = du + 1;
                    self.queue.push(a.to);
                }
            }
        }
    }

    /// Distances produced by the last [`BfsBuffer::run`].
    ///
    /// Unreached nodes hold [`UNREACHABLE`].
    #[inline]
    pub fn distances(&self) -> &[u64] {
        &self.dist
    }

    /// Number of nodes reached by the last run (including the source).
    pub fn reached(&self) -> usize {
        self.dist.iter().filter(|&&d| d != UNREACHABLE).count()
    }
}

/// One-shot BFS convenience wrapper.
///
/// Allocates a fresh buffer; prefer holding a [`BfsBuffer`] in loops.
pub fn bfs_distances(g: &DiGraph, source: usize) -> Vec<u64> {
    let mut buf = BfsBuffer::new(g.node_count());
    buf.run(g, source);
    buf.dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::Arc;

    #[test]
    fn line_graph_distances() {
        let g = DiGraph::from_unit_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(
            bfs_distances(&g, 4),
            vec![UNREACHABLE; 4]
                .into_iter()
                .chain([0])
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_arcs_and_self_loops_are_harmless() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, Arc::unit(1));
        g.add_arc(0, Arc::unit(1));
        g.add_arc(0, Arc::unit(0));
        g.add_arc(1, Arc::unit(2));
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2]);
    }

    #[test]
    fn buffer_reuse_resets_state() {
        let g = DiGraph::from_unit_edges(3, [(0, 1), (1, 2)]);
        let mut buf = BfsBuffer::new(3);
        buf.run(&g, 0);
        assert_eq!(buf.reached(), 3);
        buf.run(&g, 2);
        assert_eq!(buf.distances(), &[UNREACHABLE, UNREACHABLE, 0]);
        assert_eq!(buf.reached(), 1);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn wrong_size_buffer_panics() {
        let g = DiGraph::new(3);
        let mut buf = BfsBuffer::new(4);
        buf.run(&g, 0);
    }
}
