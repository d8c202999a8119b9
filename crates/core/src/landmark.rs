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
//! Since the bound layer moved into the engine, the *default*
//! [`crate::DistanceEngine`] outcome path consults cached, touched-set
//! invalidated landmark rows whenever the [`LandmarkPolicy`] resolves to a
//! nonzero landmark count — walks, churn sims, and sweeps get the pruning
//! for free. [`LandmarkOracle`] remains as the frozen per-query reference
//! (rows in `G∖u`, rebuilt from scratch), pinned by the tests below;
//! [`best_response_landmark`] now routes through a fresh engine with
//! [`LandmarkPolicy::Forced`], so every caller exercises the cached path.

use bbc_graph::{BfsBuffer, DijkstraBuffer, UNREACHABLE};

use crate::best_response::{BestResponseOptions, BestResponseOutcome};
use crate::{Configuration, DistanceEngine, GameSpec, NodeId, Result};

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

/// Per-deviating-node landmark distance rows in `G∖u`.
///
/// The frozen *reference* form of the landmark bound: built per query,
/// rows in `G∖u` with the [`UNREACHABLE`] sentinel preserved. The engine's
/// cached layer bounds through full-`G` rows instead (admissible because
/// `d_G ≤ d_{G∖u}`); this struct pins the sharper per-query semantics the
/// admissibility tests check against.
#[derive(Debug)]
pub struct LandmarkOracle<'a> {
    spec: &'a GameSpec,
    node: NodeId,
    landmarks: Vec<NodeId>,
    /// Raw `d_{G∖u}(l, ·)` rows, flattened with stride `n`
    /// ([`UNREACHABLE`] sentinel, *not* penalty-clamped).
    rows: Vec<u64>,
}

impl<'a> LandmarkOracle<'a> {
    /// Builds landmark rows for deviations of `u` under `config`: strips
    /// `u`'s out-links and runs one traversal per landmark.
    ///
    /// Landmarks are picked deterministically — up to `count` nodes evenly
    /// spaced over the id range, excluding `u` — so repeated builds of the
    /// same state bound identically.
    pub fn build(spec: &'a GameSpec, config: &Configuration, u: NodeId, count: usize) -> Self {
        let n = spec.node_count();
        let mut graph = config.to_graph(spec);
        graph.take_out_arcs(u.index());

        let pool: Vec<NodeId> = NodeId::all(n).filter(|&v| v != u).collect();
        let count = count.min(pool.len());
        let landmarks: Vec<NodeId> = (0..count)
            .map(|j| pool[j * pool.len() / count.max(1)])
            .collect();

        let mut rows = Vec::with_capacity(landmarks.len() * n);
        if spec.has_unit_lengths() {
            let mut bfs = BfsBuffer::new(n);
            for &l in &landmarks {
                bfs.run(&graph, l.index());
                rows.extend_from_slice(bfs.distances());
            }
        } else {
            let mut dij = DijkstraBuffer::new(n);
            for &l in &landmarks {
                dij.run(&graph, l.index());
                rows.extend_from_slice(dij.distances());
            }
        }

        Self {
            spec,
            node: u,
            landmarks,
            rows,
        }
    }

    /// The deviating node `u` (rows live in `G∖u`).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The landmark set, in selection order.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Lower bound on the penalty-clamped distance `d_{G∖u}(c, v)`:
    /// at most the exact clamped distance, exactly the penalty when some
    /// landmark proves `v` unreachable from `c`.
    pub fn lower_bound(&self, c: NodeId, v: NodeId) -> u64 {
        if c == v {
            return 0;
        }
        let n = self.spec.node_count();
        let m = self.spec.penalty();
        let mut best = 0u64;
        for k in 0..self.landmarks.len() {
            let row = &self.rows[k * n..(k + 1) * n];
            let lc = row[c.index()];
            if lc == UNREACHABLE {
                // The landmark sees neither endpoint's relation; no info.
                continue;
            }
            let lv = row[v.index()];
            if lv == UNREACHABLE {
                // l reaches c but not v, so no c → v path exists (it would
                // extend l → c into l → v).
                return m;
            }
            best = best.max(lv.saturating_sub(lc));
        }
        best.min(m)
    }
}

/// Exact best response for `u`, pruned by the engine's cached landmark
/// bound layer forced to `landmarks` rows ([`LandmarkPolicy::Forced`]).
///
/// Returns the identical decision to [`crate::best_response::exact`] —
/// same `best_strategy`, `best_cost`, `current_cost` — because the bounds
/// are admissible and the DFS visits candidates in the same order; only
/// the effort counters can differ. `landmarks = 0` degenerates to the
/// exact engine path.
///
/// One-shot convenience: builds a throwaway engine per call. Callers with
/// more than one query should hold a [`DistanceEngine`] and set
/// [`DistanceEngine::set_landmark_policy`] themselves — consecutive
/// queries then reuse the cached landmark rows instead of rebuilding them
/// (the regression test on the engine pins that reuse).
///
/// # Errors
///
/// [`crate::Error::SearchBudgetExceeded`] as in the exact search.
pub fn best_response_landmark(
    spec: &GameSpec,
    config: &Configuration,
    u: NodeId,
    options: &BestResponseOptions,
    landmarks: usize,
) -> Result<BestResponseOutcome> {
    DistanceEngine::new(spec, config.clone())
        .with_landmarks(LandmarkPolicy::Forced(landmarks))
        .best_response(u, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best_response;

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
                    let lm = best_response_landmark(&spec, &cfg, u, &opts(), k).unwrap();
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

    #[test]
    fn landmark_bounds_never_exceed_exact_distances() {
        let spec = GameSpec::uniform(10, 2);
        let cfg = Configuration::random(&spec, 7);
        let u = NodeId::new(3);
        let lm = LandmarkOracle::build(&spec, &cfg, u, 4);
        let mut g = cfg.to_graph(&spec);
        g.take_out_arcs(u.index());
        let mut bfs = BfsBuffer::new(10);
        for c in NodeId::all(10).filter(|&c| c != u) {
            bfs.run(&g, c.index());
            let dist = bfs.distances();
            for v in NodeId::all(10) {
                let exact = if dist[v.index()] == UNREACHABLE {
                    spec.penalty()
                } else {
                    dist[v.index()]
                };
                assert!(
                    lm.lower_bound(c, v) <= exact,
                    "bound({c},{v}) = {} above exact {exact}",
                    lm.lower_bound(c, v)
                );
            }
        }
    }
}
