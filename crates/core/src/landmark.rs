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
//! The bound layer lives in the engine, which consults cached,
//! touched-set invalidated full-`G` landmark rows whenever the
//! [`LandmarkPolicy`] resolves to a nonzero landmark count. Only
//! [`LandmarkPolicy::Forced`] does: the default search bounds with the exact
//! suffix and block rows instead (see [`crate::best_response`]), which
//! prune where these bounds do not. This module holds only the policy; the
//! engine's unit tests check its bound rows against exact suffix-min rows.

/// How many cached landmark rows the engine's best-response path keeps (and
/// therefore whether the landmark-bounded search runs at all).
///
/// The bounds are admissible, so the policy never changes a decision, cost,
/// walk trajectory, or stream digest — only effort counters
/// ([`crate::BestResponseOutcome::evaluations`],
/// [`crate::BestResponseOutcome::bounds_hit`],
/// [`crate::BestResponseOutcome::rows_materialized`], and the
/// [`crate::EngineStats`] traversal counts) vary with it. The differential
/// suite pins this byte-identity across `Off`/`Auto`/`Forced`.
///
/// `Auto` resolves to 0 landmarks at every size, so it runs the exact path
/// like `Off`, and `Forced` is the only way onto the landmark tier. On the
/// 512-peer overlay walk the landmark bounds never pruned, while the exact
/// source's bisected suffix rows and block rows cut its evaluations about
/// 25-fold. The tier stays, reachable through `Forced`, until the benchmark
/// stops reading its counters; then the tier, this policy and its builders
/// are deleted.
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
/// // Auto runs the exact path at every size…
/// for live in [12, 36, 512, 16_382] {
///     assert_eq!(LandmarkPolicy::Auto.resolve(live), 0);
/// }
/// // …and Forced is the way onto the landmark tier.
/// assert_eq!(LandmarkPolicy::Forced(40).resolve(512), 40);
/// # Ok::<(), bbc_core::Error>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LandmarkPolicy {
    /// Never run the landmark-bounded search.
    Off,
    /// The default: resolves to 0 landmarks, the exact path, at every live
    /// count.
    #[default]
    Auto,
    /// Exactly `k` landmarks (capped at the live count), at any size. The
    /// only policy that runs the landmark tier: tests force it to exercise
    /// the tier, and sweeps pin a count across churn.
    Forced(usize),
}

impl LandmarkPolicy {
    /// The landmark count this policy resolves to at `live` live nodes;
    /// `0` means "run the exact path".
    pub fn resolve(self, live: usize) -> usize {
        match self {
            LandmarkPolicy::Off | LandmarkPolicy::Auto => 0,
            LandmarkPolicy::Forced(k) => k.min(live),
        }
    }
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
        for live in [2, 12, 31, 32, 36, 512, 1024, 16_382] {
            assert_eq!(LandmarkPolicy::Auto.resolve(live), 0, "Auto at {live}");
        }
        assert_eq!(LandmarkPolicy::Off.resolve(512), 0);
        assert_eq!(LandmarkPolicy::Forced(6).resolve(512), 6);
        assert_eq!(LandmarkPolicy::Forced(6).resolve(3), 3, "capped at live");
        assert_eq!(LandmarkPolicy::default(), LandmarkPolicy::Auto);
    }
}
