//! Directed-graph substrate for Bounded Budget Connection (BBC) games.
//!
//! BBC games need a small, predictable set of graph primitives evaluated many
//! millions of times inside best-response loops: single-source shortest paths
//! (unit and weighted), strongly connected components, per-node reachability
//! counts, and eccentricity/diameter measurements. This crate implements all
//! of them from scratch with pooled scratch buffers, so the hot paths
//! allocate nothing: [`bfs::BfsBuffer`] and [`dijkstra::DijkstraBuffer`] over
//! the adjacency-list [`DiGraph`], and one kernel family,
//! [`rows::ClampedBfs`] and [`rows::ClampedDijkstra`], over the patchable
//! [`csr::CsrGraph`] the game layer's engine traverses.
//!
//! Distances are `u64`; an unreachable target is reported as [`UNREACHABLE`],
//! never as a silently-large number. The clamped kernels take the value
//! unreached entries hold as an explicit clamp: the game layer passes its
//! disconnection penalty, or [`UNREACHABLE`] for raw distances.
//!
//! # Examples
//!
//! ```
//! use bbc_graph::DiGraph;
//!
//! // A directed triangle 0 -> 1 -> 2 -> 0 with unit lengths.
//! let g = DiGraph::from_unit_edges(3, [(0, 1), (1, 2), (2, 0)]);
//! let d = g.distances_from(0);
//! assert_eq!(d, vec![0, 1, 2]);
//! assert!(bbc_graph::scc::is_strongly_connected(&g));
//! ```

#![forbid(unsafe_code)]

pub mod bfs;
pub mod bitset;
pub mod blocks;
pub mod csr;
pub mod diameter;
pub mod digest;
pub mod digraph;
pub mod dijkstra;
pub mod dot;
pub mod matrix;
pub mod reach;
pub mod rows;
pub mod scc;

pub use bfs::BfsBuffer;
pub use bitset::BitSet;
pub use blocks::{BlockEnvelope, BlockPartition};
pub use csr::{ConnectivityScratch, CsrGraph, ReverseCsr};
pub use diameter::{diameter, eccentricity, Eccentricities};
pub use digraph::{Arc, DiGraph};
pub use dijkstra::DijkstraBuffer;
pub use matrix::DistanceMatrix;
pub use reach::reach_counts;
pub use rows::{ClampedBfs, ClampedDijkstra, RowWord};
pub use scc::{condensation, is_strongly_connected, strongly_connected_components, Condensation};

/// Sentinel distance for "no path exists".
///
/// Every shortest-path routine in this crate reports unreachable targets with
/// this value. Game-layer code replaces it with the instance's disconnection
/// penalty; it is deliberately `u64::MAX` so that accidental arithmetic on it
/// overflows loudly in debug builds instead of silently producing a
/// plausible-looking cost.
pub const UNREACHABLE: u64 = u64::MAX;
