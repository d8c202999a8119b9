//! ALT-style landmark lower bounds for the deviation search.
//!
//! The exact bound source of the best-response search needs one
//! shortest-path traversal per affordable candidate — `m` traversals before
//! the branch-and-bound search even starts. Landmark bounds trade exactness
//! in the *bound* for traversal laziness: a small landmark set `L` yields
//! the classic ALT lower bound
//!
//! ```text
//! d(c, v)  ≥  d(l, v) − d(l, c)      for every l ∈ L
//! ```
//!
//! (rearranged triangle inequality: any `l → v` path is at most the `l → c`
//! prefix plus a `c → v` path). These bounds replace the exact suffix-min
//! rows in the search's optimistic-completion prune; exact rows are
//! materialized lazily, only for candidates the search actually *includes*.
//! Bounds are admissible (never above the true clamped through-distance),
//! so the search records the identical incumbent sequence and returns the
//! same decision — only effort counters (`evaluations`, `bounds_hit`,
//! `rows_materialized`) may differ.
//!
//! The bound layer lives in the engine: the default
//! [`crate::DistanceEngine`] outcome path consults cached, touched-set
//! invalidated full-`G` landmark rows whenever the [`LandmarkPolicy`]
//! resolves to a nonzero landmark count, so walks, churn sims, and sweeps
//! get the pruning for free. This module holds only the policy; the engine's
//! unit tests check its bound rows against exact suffix-min rows.

/// How many cached landmark rows the engine's default best-response path
/// keeps (and therefore whether the landmark-bounded search runs at all).
///
/// The bounds are admissible, so the policy never changes a decision, cost,
/// walk trajectory, or stream digest — only effort counters
/// ([`crate::BestResponseOutcome::evaluations`],
/// [`crate::BestResponseOutcome::bounds_hit`],
/// [`crate::BestResponseOutcome::rows_materialized`], and the
/// [`crate::EngineStats`] traversal counts) vary with it. The differential
/// suite pins this byte-identity across `Off`/`Auto`/`Forced`.
///
/// # Examples
///
/// ```
/// use bbc_core::{
///     BestResponseOptions, Configuration, DistanceEngine, GameSpec, LandmarkPolicy, NodeId,
/// };
///
/// let spec = GameSpec::uniform(12, 2);
/// let cfg = Configuration::random(&spec, 7);
/// let options = BestResponseOptions::default();
/// let u = NodeId::new(0);
///
/// let exact = DistanceEngine::new(&spec, cfg.clone())
///     .with_landmarks(LandmarkPolicy::Off)
///     .best_response(u, &options)?;
/// let pruned = DistanceEngine::new(&spec, cfg)
///     .with_landmarks(LandmarkPolicy::Forced(4))
///     .best_response(u, &options)?;
/// // Identical decision; only effort counters may differ.
/// assert!(exact.same_decision(&pruned));
///
/// // Auto keeps small instances on the exact path (n = 12 < 32).
/// assert_eq!(LandmarkPolicy::Auto.resolve(12), 0);
/// // …and scales √n-ish with a measured cap beyond that.
/// assert_eq!(LandmarkPolicy::Auto.resolve(512), 22);
/// assert_eq!(LandmarkPolicy::Forced(40).resolve(512), 40);
/// # Ok::<(), bbc_core::Error>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LandmarkPolicy {
    /// Never run the landmark-bounded search (the pre-landmark engine
    /// behavior, byte-identical counters included).
    Off,
    /// Size the landmark set from the live node count: 0 below 32 live
    /// nodes (bound building would cost more than the tiny search it
    /// prunes — and the exact path's counters stay pinned for the small
    /// instances the unit suites replay), else `⌊√live⌋` clamped to
    /// `[4, 24]` (the measured knee: more landmarks sharpen bounds
    /// sub-linearly while each costs a full-graph traversal to refresh
    /// after an invalidation).
    #[default]
    Auto,
    /// Exactly `k` landmarks (capped at the live count), even on tiny
    /// instances. This is how tests force the landmark path where `Auto`
    /// would stay exact, and how sweeps pin a size across churn.
    Forced(usize),
}

impl LandmarkPolicy {
    /// The landmark count this policy resolves to at `live` live nodes;
    /// `0` means "run the exact path".
    pub fn resolve(self, live: usize) -> usize {
        match self {
            LandmarkPolicy::Off => 0,
            LandmarkPolicy::Auto => {
                if live < 32 {
                    0
                } else {
                    isqrt(live).clamp(4, 24)
                }
            }
            LandmarkPolicy::Forced(k) => k.min(live),
        }
    }
}

/// `⌊√n⌋` without floating-point edge cases.
fn isqrt(n: usize) -> usize {
    let mut s = (n as f64).sqrt() as usize;
    while (s + 1) * (s + 1) <= n {
        s += 1;
    }
    while s * s > n {
        s -= 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        best_response, BestResponseOptions, Configuration, DistanceEngine, GameSpec, NodeId,
    };

    fn opts() -> BestResponseOptions {
        BestResponseOptions::default()
    }

    #[test]
    fn landmark_search_matches_exact_uniform() {
        let spec = GameSpec::uniform(9, 2);
        for seed in 0..6 {
            let cfg = Configuration::random(&spec, seed);
            for u in NodeId::all(9) {
                let ex = best_response::exact(&spec, &cfg, u, &opts()).unwrap();
                for k in [0, 1, 3, 8] {
                    let lm = DistanceEngine::new(&spec, cfg.clone())
                        .with_landmarks(LandmarkPolicy::Forced(k))
                        .best_response(u, &opts())
                        .unwrap();
                    assert!(
                        ex.same_decision(&lm),
                        "seed {seed} node {u} landmarks {k}: {ex:?} vs {lm:?}"
                    );
                    assert_eq!(ex.best_cost, lm.best_cost);
                    assert_eq!(ex.current_cost, lm.current_cost);
                }
            }
        }
    }

    #[test]
    fn landmark_bounds_never_exceed_exact_distances() {
        // The bound rows the search prunes with, for every deviating node of
        // one fixed instance, against exact `G∖u` rows.
        let spec = GameSpec::uniform(10, 2);
        let cfg = Configuration::random(&spec, 7);
        let mut engine = DistanceEngine::new(&spec, cfg).with_landmarks(LandmarkPolicy::Forced(4));
        for u in NodeId::all(10) {
            engine.best_response(u, &opts()).unwrap();
            crate::engine::tests::assert_landmark_bounds_admissible(&engine, u, "Forced(4)");
        }
    }

    #[test]
    fn auto_policy_schedule() {
        assert_eq!(LandmarkPolicy::Auto.resolve(2), 0);
        assert_eq!(LandmarkPolicy::Auto.resolve(31), 0);
        assert_eq!(LandmarkPolicy::Auto.resolve(32), 5);
        assert_eq!(LandmarkPolicy::Auto.resolve(64), 8);
        assert_eq!(LandmarkPolicy::Auto.resolve(100), 10);
        assert_eq!(LandmarkPolicy::Auto.resolve(1024), 24, "cap at 24");
        assert_eq!(LandmarkPolicy::Off.resolve(512), 0);
        assert_eq!(LandmarkPolicy::Forced(6).resolve(512), 6);
        assert_eq!(LandmarkPolicy::Forced(6).resolve(3), 3, "capped at live");
        assert_eq!(LandmarkPolicy::default(), LandmarkPolicy::Auto);
    }
}
