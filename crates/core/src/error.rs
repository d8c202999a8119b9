//! Error types for game construction and analysis.

use std::fmt;

use crate::NodeId;

/// Errors produced by the BBC game layer.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A game was declared with zero nodes.
    EmptyGame,
    /// A strategy referenced a node outside `0..n`.
    NodeOutOfBounds {
        /// The offending node.
        node: NodeId,
        /// The game size.
        n: usize,
    },
    /// A strategy contained a self-link, which the model forbids (a self-link
    /// never shortens any distance and wastes budget).
    SelfLink {
        /// The node attempting to link to itself.
        node: NodeId,
    },
    /// A strategy listed the same target twice.
    DuplicateTarget {
        /// The buying node.
        node: NodeId,
        /// The repeated target.
        target: NodeId,
    },
    /// A strategy's total link cost exceeds the node's budget.
    BudgetExceeded {
        /// The overspending node.
        node: NodeId,
        /// Total cost of the attempted strategy.
        spent: u64,
        /// The node's budget.
        budget: u64,
    },
    /// The disconnection penalty is too small to dominate in-graph distances,
    /// which breaks the paper's standing assumption `M ≫ n·max ℓ`.
    PenaltyTooSmall {
        /// The configured penalty.
        penalty: u64,
        /// The smallest acceptable value.
        minimum: u64,
    },
    /// An exact search (best response or equilibrium enumeration) would
    /// exceed its configured evaluation budget. Raise the limit or use a
    /// heuristic mode.
    SearchBudgetExceeded {
        /// The configured evaluation limit.
        limit: u64,
    },
    /// A matrix argument had the wrong dimensions.
    DimensionMismatch {
        /// Expected dimension (game size).
        expected: usize,
        /// Provided dimension.
        actual: usize,
    },
    /// A restricted profile space listed no candidate strategies for some
    /// node, which would make the product empty.
    EmptyCandidateSet {
        /// The node with an empty candidate list.
        node: NodeId,
    },
    /// A churn-aware operation addressed a node that is not currently a
    /// live member (it departed, or was never admitted with links).
    NodeNotLive {
        /// The departed node.
        node: NodeId,
    },
    /// [`crate::DistanceEngine::add_node`] was asked to admit a node that is
    /// already live.
    NodeAlreadyLive {
        /// The already-live node.
        node: NodeId,
    },
    /// A strategy targets a node that is not currently a live member —
    /// links to departed peers are forbidden (they would silently absorb
    /// traffic a real overlay could never route).
    TargetNotLive {
        /// The buying node.
        node: NodeId,
        /// The departed target.
        target: NodeId,
    },
    /// A parallel worker thread panicked (or poisoned a shared lock while
    /// panicking). The underlying panic payload has already been printed by
    /// the default hook; this variant lets the driver fail its whole batch
    /// with a typed error instead of re-raising in the caller's thread.
    WorkerPanicked {
        /// Which parallel section lost the worker.
        section: &'static str,
    },
    /// A forced-i16 engine was requested for a spec whose rows do not fit
    /// the narrow word: every finite distance must lie below the word's
    /// saturated value (`n·max ℓ < 2¹⁴ − 1`), and every lifted row sum must
    /// fit `u64` (`n·M ≤ u64::MAX`).
    RowTierOverflow {
        /// The game size.
        n: usize,
        /// The game's largest link length.
        max_length: u64,
        /// The configured disconnection penalty.
        penalty: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyGame => write!(f, "game must have at least one node"),
            Error::NodeOutOfBounds { node, n } => {
                write!(f, "node {node} out of bounds for game of size {n}")
            }
            Error::SelfLink { node } => write!(f, "node {node} may not link to itself"),
            Error::DuplicateTarget { node, target } => {
                write!(f, "node {node} lists target {target} more than once")
            }
            Error::BudgetExceeded {
                node,
                spent,
                budget,
            } => {
                write!(f, "node {node} spends {spent} but has budget {budget}")
            }
            Error::PenaltyTooSmall { penalty, minimum } => {
                write!(
                    f,
                    "disconnection penalty {penalty} below required minimum {minimum}"
                )
            }
            Error::SearchBudgetExceeded { limit } => {
                write!(f, "exact search exceeded its evaluation limit of {limit}")
            }
            Error::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "matrix dimension {actual} does not match game size {expected}"
                )
            }
            Error::EmptyCandidateSet { node } => {
                write!(f, "node {node} has no candidate strategies")
            }
            Error::NodeNotLive { node } => {
                write!(f, "node {node} is not a live member")
            }
            Error::NodeAlreadyLive { node } => {
                write!(f, "node {node} is already a live member")
            }
            Error::TargetNotLive { node, target } => {
                write!(
                    f,
                    "node {node} links to {target}, which is not a live member"
                )
            }
            Error::WorkerPanicked { section } => {
                write!(f, "a {section} worker thread panicked")
            }
            Error::RowTierOverflow {
                n,
                max_length,
                penalty,
            } => {
                write!(
                    f,
                    "i16 row tier needs n*max_length < 16383 and n*penalty within u64, \
                     got n = {n}, max_length = {max_length}, penalty = {penalty}; \
                     use the u64 tier"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = Error::BudgetExceeded {
            node: NodeId::new(2),
            spent: 5,
            budget: 3,
        };
        assert_eq!(e.to_string(), "node v2 spends 5 but has budget 3");
        let e = Error::SearchBudgetExceeded { limit: 10 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
