//! Bounded Budget Connection (BBC) games — the core model.
//!
//! This crate implements the game of Laoutaris, Poplawski, Rajaraman,
//! Sundaram and Teng, *"Bounded Budget Connection (BBC) Games or How to make
//! friends and influence people, on a budget"* (PODC 2008): `n` players each
//! buy a set of outgoing links under a budget; a player's cost is the
//! preference-weighted sum (or max) of its shortest-path distances to
//! everyone else, with a penalty `M` per unreachable node.
//!
//! The public surface mirrors the paper's concepts:
//!
//! * [`GameSpec`] — the tuple `⟨V, w, c, ℓ, b⟩` plus penalty and cost model;
//! * [`Configuration`] — a joint strategy profile `S`, materializable as the
//!   network `G(S)`;
//! * [`Evaluator`] — node and social costs;
//! * [`DistanceEngine`] — the shared CSR shortest-path substrate every
//!   consumer above sits on: patched in place per move, with one shared
//!   full-graph row per node (after a move, refilled from the mover's
//!   staged deviation rows or repaired, not recomputed) from which each
//!   deviation row is derived, and memoized best-response outcomes (see
//!   [`engine`] for the cache-invalidation rules);
//! * [`best_response`] — exact single-node best response: one
//!   branch-and-bound search over per-candidate deviation rows (each
//!   derived from the candidate's shared row), run by the engine;
//! * [`reference`](mod@reference) — frozen pre-refactor implementations, the executable
//!   spec the engine is differentially tested and benchmarked against;
//! * [`StabilityChecker`] — pure-Nash-equilibrium decision with
//!   [`Deviation`] witnesses;
//! * [`Walk`] — best-response dynamics with cycle detection and
//!   connectivity tracking (§4.3);
//! * [`enumerate`] — exhaustive equilibrium scans over restricted profile
//!   spaces (the machinery behind the gadget no-equilibrium experiments);
//! * [`par`] — the ordered fan-out every parallel scan and seeded search
//!   runs on: results come back in index order, so parallel runs are
//!   byte-identical to sequential ones.
//!
//! # Examples
//!
//! ```
//! use bbc_core::{Configuration, GameSpec, StabilityChecker, Walk, WalkOutcome};
//!
//! // Run round-robin best response on a (8,2)-uniform game from an empty
//! // network, then confirm the result is a pure Nash equilibrium.
//! let spec = GameSpec::uniform(8, 2);
//! let mut walk = Walk::new(&spec, Configuration::empty(8));
//! let outcome = walk.run(100_000)?;
//! assert!(matches!(outcome, WalkOutcome::Equilibrium { .. }));
//! assert!(StabilityChecker::new(&spec).is_stable(walk.config())?);
//! # Ok::<(), bbc_core::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod best_response;
pub mod churn;
pub mod config;
pub mod det;
pub mod dynamics;
pub mod engine;
pub mod enumerate;
pub mod error;
pub mod eval;
pub mod node;
pub mod par;
pub mod reference;
mod row_store;
pub mod spec;
pub mod stability;

pub use best_response::{BestResponseOptions, BestResponseOutcome};
pub use churn::{ChurnConfig, ChurnEvent, ChurnReport, ChurnSim};
pub use config::Configuration;
pub use dynamics::{LandmarkPolicy, MoveRecord, Scheduler, Walk, WalkOutcome, WalkStats};
pub use engine::{DeviationRow, DistanceEngine, EngineStats, RowTier};
pub use enumerate::{EnumerationResult, ProfileSpace};
pub use error::{Error, Result};
pub use eval::Evaluator;
pub use node::NodeId;
pub use spec::{CostModel, GameSpec, GameSpecBuilder};
pub use stability::{Deviation, StabilityChecker, StabilityReport};
