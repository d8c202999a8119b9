//! # BBC games — Bounded Budget Connection games in Rust
//!
//! A full implementation of Laoutaris, Poplawski, Rajaraman, Sundaram and
//! Teng, *"Bounded Budget Connection (BBC) Games or How to make friends and
//! influence people, on a budget"* (PODC 2008): `n` strategic nodes each buy
//! outgoing links under a budget to minimize their preference-weighted
//! distances to everyone else.
//!
//! This facade crate re-exports the member crates:
//!
//! * `core` ([`bbc_core`]) — game model, cost evaluation, exact best response,
//!   stability checking, best-response dynamics, equilibrium enumeration;
//! * `graph` ([`bbc_graph`]) — the graph substrate (BFS, Dijkstra, SCC,
//!   reachability, diameter);
//! * `constructions` ([`bbc_constructions`]) — every instance family from the
//!   paper (Forest of Willows, Cayley graphs, gadgets, the 3SAT reduction);
//! * `fractional` ([`bbc_fractional`]) — fractional games on a min-cost-flow
//!   substrate (Theorem 3);
//! * `sat` ([`bbc_sat`]) — the 3SAT toolkit behind Theorem 2;
//! * `analysis` ([`bbc_analysis`]) — social cost, PoA/PoS, fairness, reports.
//!
//! # Verifying, benchmarking, reproducing
//!
//! ```text
//! cargo build --release && cargo test -q        # tier-1 verify: everything
//! cargo run --release -p bbc-experiments --bin run_all   # the paper's artifacts
//! cargo bench -p bbc-bench --bench best_response         # hot-path benchmarks
//! ```
//!
//! The tier-1 command runs the unit tests, all six per-crate property
//! suites, the theorem-integration and failure-injection suites, the
//! doctests, and a smoke test that builds and executes every example.
//! Property tests are deterministic: the vendored proptest shim derives
//! each test's RNG seed from the test name (see `vendor/README.md`).
//!
//! # Quickstart
//!
//! ```
//! use bbc::prelude::*;
//!
//! // An (n,k)-uniform game: run best-response dynamics from scratch and
//! // verify the endpoint is a pure Nash equilibrium.
//! let spec = GameSpec::uniform(12, 2);
//! let mut walk = Walk::new(&spec, Configuration::empty(12));
//! assert!(matches!(walk.run(100_000)?, WalkOutcome::Equilibrium { .. }));
//! assert!(StabilityChecker::new(&spec).is_stable(walk.config())?);
//! # Ok::<(), bbc::Error>(())
//! ```

#![forbid(unsafe_code)]

pub use bbc_analysis as analysis;
pub use bbc_constructions as constructions;
pub use bbc_core as core;
pub use bbc_fractional as fractional;
pub use bbc_graph as graph;
pub use bbc_sat as sat;

pub use bbc_core::{Error, Result};

/// The most common imports, in one place.
pub mod prelude {
    pub use bbc_analysis::{fairness, price_ratio, social_cost, Table};
    pub use bbc_constructions::{
        CayleyGraph, ForestOfWillows, Gadget, GadgetVariant, MaxPoaGraph, RingWithPath,
        SatReduction,
    };
    pub use bbc_core::{
        best_response, enumerate, BestResponseOptions, ChurnConfig, ChurnEvent, ChurnReport,
        ChurnSim, Configuration, CostModel, Error, Evaluator, GameSpec, NodeId, Result, Scheduler,
        StabilityChecker, Walk, WalkOutcome,
    };
    pub use bbc_fractional::{FractionalConfig, FractionalGame};
    pub use bbc_sat::{dpll, Cnf, Lit};
}
