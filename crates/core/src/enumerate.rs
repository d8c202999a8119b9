//! Exhaustive equilibrium enumeration over joint strategy spaces.
//!
//! The no-equilibrium results (Theorems 1, 2, 7) are *universal* statements:
//! no profile in an exponentially large product space is stable. For the
//! gadget instances the per-node strategy spaces collapse to small candidate
//! sets, and the product becomes enumerable. [`ProfileSpace`] describes such
//! a product; [`find_equilibria`] scans it, checking every profile for
//! stability against the **full, unrestricted** deviation space — the
//! restriction only limits which profiles are *candidates*, never what they
//! may deviate to. [`find_equilibria_parallel`] runs the same scan over
//! fixed-size linear-index shards on the
//! [`ordered fan-out`](crate::par::ordered_fan_out), which hands the shards
//! back in index order, so its output is byte-identical to the sequential
//! scan for every thread count.

use crate::{Configuration, DistanceEngine, Error, GameSpec, NodeId, Result, StabilityChecker};

/// Every feasible strategy for node `u`: all subsets of affordable targets
/// whose total link cost is within budget, in deterministic order (by size,
/// then lexicographically).
///
/// # Errors
///
/// Returns [`Error::SearchBudgetExceeded`] if more than `cap` strategies
/// exist; the subset lattice grows as `2^n` and callers must opt in to large
/// enumerations explicitly.
pub fn all_strategies(spec: &GameSpec, u: NodeId, cap: u64) -> Result<Vec<Vec<NodeId>>> {
    let pool = spec.affordable_targets(u);
    let budget = spec.budget(u);
    let mut out: Vec<Vec<NodeId>> = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    #[allow(clippy::too_many_arguments)]
    fn rec(
        spec: &GameSpec,
        u: NodeId,
        pool: &[NodeId],
        from: usize,
        spent: u64,
        budget: u64,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
        cap: u64,
    ) -> Result<()> {
        if out.len() as u64 >= cap {
            return Err(Error::SearchBudgetExceeded { limit: cap });
        }
        out.push(stack.clone());
        for i in from..pool.len() {
            let price = spec.link_cost(u, pool[i]);
            if spent + price <= budget {
                stack.push(pool[i]);
                rec(spec, u, pool, i + 1, spent + price, budget, stack, out, cap)?;
                stack.pop();
            }
        }
        Ok(())
    }
    rec(spec, u, &pool, 0, 0, budget, &mut stack, &mut out, cap)?;
    out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    Ok(out)
}

/// A product of per-node candidate strategy sets.
#[derive(Clone, Debug)]
pub struct ProfileSpace {
    per_node: Vec<Vec<Vec<NodeId>>>,
}

impl ProfileSpace {
    /// The full joint strategy space of the game.
    ///
    /// # Errors
    ///
    /// Propagates the per-node cap from [`all_strategies`].
    pub fn full(spec: &GameSpec, per_node_cap: u64) -> Result<Self> {
        let per_node = NodeId::all(spec.node_count())
            .map(|u| all_strategies(spec, u, per_node_cap))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { per_node })
    }

    /// A restricted space from explicit per-node candidate strategy lists.
    ///
    /// Each strategy is validated against `spec`.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure, a dimension mismatch, or
    /// [`Error::EmptyCandidateSet`] when some node lists no strategies.
    pub fn from_candidates(spec: &GameSpec, candidates: Vec<Vec<Vec<NodeId>>>) -> Result<Self> {
        if candidates.len() != spec.node_count() {
            return Err(Error::DimensionMismatch {
                expected: spec.node_count(),
                actual: candidates.len(),
            });
        }
        for (u, strategies) in candidates.iter().enumerate() {
            if strategies.is_empty() {
                return Err(Error::EmptyCandidateSet {
                    node: NodeId::new(u),
                });
            }
            for s in strategies {
                spec.validate_strategy(NodeId::new(u), s)?;
            }
        }
        let per_node = candidates
            .into_iter()
            .map(|mut ss| {
                for s in &mut ss {
                    s.sort_unstable();
                }
                ss
            })
            .collect();
        Ok(Self { per_node })
    }

    /// Candidate strategies of one node.
    pub fn candidates(&self, u: NodeId) -> &[Vec<NodeId>] {
        &self.per_node[u.index()]
    }

    /// Number of joint profiles in the product.
    pub fn profile_count(&self) -> u128 {
        self.per_node.iter().map(|s| s.len() as u128).product()
    }
}

/// Result of an exhaustive equilibrium scan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnumerationResult {
    /// Every stable profile found, in enumeration order.
    pub equilibria: Vec<Configuration>,
    /// Profiles examined (equals the space size unless an error aborted).
    pub profiles_checked: u64,
}

/// Scans every profile of `space`, returning all pure Nash equilibria.
///
/// Stability is checked against the full deviation space via the exact
/// best-response search, regardless of how `space` was restricted.
///
/// # Errors
///
/// - [`Error::SearchBudgetExceeded`] if `space` holds more than
///   `max_profiles` profiles (checked up front) or some node's deviation
///   search overruns its internal limit.
pub fn find_equilibria(
    spec: &GameSpec,
    space: &ProfileSpace,
    max_profiles: u64,
) -> Result<EnumerationResult> {
    if space.profile_count() > max_profiles as u128 {
        return Err(Error::SearchBudgetExceeded {
            limit: max_profiles,
        });
    }
    let total = space.profile_count() as u64;
    let checker = StabilityChecker::new(spec);
    let mut worker = ShardWorker::new(spec, space);
    let mut result = EnumerationResult {
        equilibria: Vec::new(),
        profiles_checked: 0,
    };
    worker.scan_linear_range(&checker, 0, total, &mut result)?;
    Ok(result)
}

/// Maximum profiles per shard of [`find_equilibria_parallel`]: small enough
/// that a slow shard cannot leave workers idle for long, large enough that
/// the per-shard engine re-sync (one patch per node) amortizes to noise.
const MAX_SHARD_PROFILES: u64 = 256;

/// Shard size for a scan of `total` profiles across `threads` workers:
/// aims for ≥ 8 shards per worker (so uneven stability checks rebalance)
/// without exceeding [`MAX_SHARD_PROFILES`]. The choice never affects
/// results — shards are merged by index.
fn shard_size(total: u64, threads: usize) -> u64 {
    (total / (threads as u64 * 8)).clamp(1, MAX_SHARD_PROFILES)
}

/// Parallel variant of [`find_equilibria`] over the **full** odometer space.
///
/// The linear profile index range `[0, profile_count)` is cut into
/// fixed-size shards (≤ 256 profiles, sized for ≥ 8 per worker) that run on
/// the [`ordered fan-out`](crate::par::ordered_fan_out), each worker
/// scanning with its own [`DistanceEngine`]. Shard results are merged in
/// ascending shard order, so the output — equilibria order *and*
/// `profiles_checked` — is byte-identical to [`find_equilibria`] for every
/// thread count, and no digit of the odometer caps the attainable
/// parallelism.
///
/// # Errors
///
/// Same conditions as [`find_equilibria`]; when several shards fail, the
/// error of the earliest shard (the one a sequential scan would have hit
/// first) is returned. A panicked worker is [`Error::WorkerPanicked`].
pub fn find_equilibria_parallel(
    spec: &GameSpec,
    space: &ProfileSpace,
    max_profiles: u64,
    threads: usize,
) -> Result<EnumerationResult> {
    let total = budgeted_total(space, max_profiles)?;
    let shard = shard_size(total, threads.max(1));
    let shards = 0..total.div_ceil(shard);
    let section = "equilibrium enumeration";
    scan_shards(spec, space, shard, shards, threads, section, &mut |_, _| {})
}

/// Fixed shard width of checkpointable scans ([`find_equilibria_parallel_resumable`]).
///
/// Unlike the shard size of [`find_equilibria_parallel`] — which may depend
/// on the thread count because it never leaks into results — the
/// *checkpoint* unit must be machine-independent: a scan killed on an
/// 8-core host has to resume exactly where a 2-core host would. This is a
/// **persistence-format constant**, deliberately not aliased to the tunable
/// `MAX_SHARD_PROFILES` knob (private): retuning that for performance
/// must never reinterpret previously recorded shard ranges (the persistence
/// layer additionally pins this width in its stream fingerprints, so a
/// deliberate change here invalidates old checkpoints instead of silently
/// corrupting them).
pub const CHECKPOINT_SHARD_PROFILES: u64 = 256;

/// Number of checkpoint shards a scan of `space` consists of.
///
/// # Panics
///
/// Panics if the space exceeds `u64` profiles (far beyond anything
/// enumerable; real scans are bounded by `max_profiles` long before).
pub fn checkpoint_shard_count(space: &ProfileSpace) -> u64 {
    let total = space.profile_count();
    assert!(total <= u128::from(u64::MAX), "profile space exceeds u64");
    (total as u64).div_ceil(CHECKPOINT_SHARD_PROFILES)
}

/// Checkpointable variant of [`find_equilibria_parallel`]: the scan is cut
/// into fixed-width shards ([`CHECKPOINT_SHARD_PROFILES`] linear profile
/// indices each), `sink` is invoked once per completed shard **in ascending
/// shard order** (regardless of which worker finished first), and shards
/// `[0, completed_shards)` — persisted by a previous, possibly killed run —
/// are skipped entirely.
///
/// The returned result covers only the shards this call scanned; the caller
/// rebuilds the full result by concatenating the persisted prefix with it.
/// Because shards are merged by index, `prefix + resumed` is byte-identical
/// to an uninterrupted [`find_equilibria`] for every thread count and every
/// kill point (pinned by tests).
///
/// # Errors
///
/// Same conditions as [`find_equilibria`]; the earliest failing shard's
/// error is returned. Shards already handed to `sink` are genuinely
/// complete even on error — that is what makes them safe to persist.
pub fn find_equilibria_parallel_resumable(
    spec: &GameSpec,
    space: &ProfileSpace,
    max_profiles: u64,
    threads: usize,
    completed_shards: u64,
    sink: &mut dyn FnMut(u64, &EnumerationResult),
) -> Result<EnumerationResult> {
    budgeted_total(space, max_profiles)?;
    let shards = completed_shards..checkpoint_shard_count(space);
    let (width, section) = (CHECKPOINT_SHARD_PROFILES, "resumable enumeration");
    scan_shards(spec, space, width, shards, threads, section, sink)
}

/// The profile count of `space`, or [`Error::SearchBudgetExceeded`] when it
/// holds more than `max_profiles` — checked before any profile is scanned.
fn budgeted_total(space: &ProfileSpace, max_profiles: u64) -> Result<u64> {
    if space.profile_count() > max_profiles as u128 {
        return Err(Error::SearchBudgetExceeded {
            limit: max_profiles,
        });
    }
    Ok(space.profile_count() as u64)
}

/// Scans the `width`-profile shards `shards` on the ordered fan-out, handing
/// each completed shard to `sink` in ascending order, and returns their
/// concatenation.
fn scan_shards(
    spec: &GameSpec,
    space: &ProfileSpace,
    width: u64,
    shards: std::ops::Range<u64>,
    threads: usize,
    section: &'static str,
    sink: &mut dyn FnMut(u64, &EnumerationResult),
) -> Result<EnumerationResult> {
    let total = space.profile_count() as u64;
    let checker = StabilityChecker::new(spec);
    let mut merged = EnumerationResult::default();
    crate::par::ordered_fan_out(
        shards,
        threads,
        section,
        || ShardWorker::new(spec, space),
        |worker, shard| {
            let lo = shard * width;
            let mut result = EnumerationResult::default();
            worker.scan_linear_range(&checker, lo, (lo + width).min(total), &mut result)?;
            Ok(result)
        },
        |_| false,
        |shard, result| {
            sink(shard, &result);
            merged.equilibria.extend(result.equilibria);
            merged.profiles_checked += result.profiles_checked;
        },
    )?;
    Ok(merged)
}

/// One enumeration worker: a [`DistanceEngine`] plus the odometer state it
/// is synced to, reused across every shard the worker claims.
struct ShardWorker<'a> {
    spec: &'a GameSpec,
    space: &'a ProfileSpace,
    sizes: Vec<usize>,
    /// Current odometer digits (most significant = node 0); `None` until the
    /// first shard positions the engine.
    idx: Option<Vec<usize>>,
    engine: DistanceEngine<'a>,
}

impl<'a> ShardWorker<'a> {
    fn new(spec: &'a GameSpec, space: &'a ProfileSpace) -> Self {
        let n = spec.node_count();
        Self {
            spec,
            space,
            sizes: space.per_node.iter().map(Vec::len).collect(),
            idx: None,
            engine: DistanceEngine::new(spec, Configuration::empty(n)),
        }
    }

    /// Scans linear profile indices `[lo, hi)` in odometer order.
    ///
    /// The engine is patched **per changed digit**: seeking to `lo` rewires
    /// only the nodes whose digit differs from the engine's current state,
    /// and each subsequent odometer tick rebuilds only the digits the carry
    /// touched (usually one), so no profile ever re-clones every node's
    /// strategy.
    fn scan_linear_range(
        &mut self,
        checker: &StabilityChecker<'_>,
        lo: u64,
        hi: u64,
        result: &mut EnumerationResult,
    ) -> Result<()> {
        if lo >= hi {
            return Ok(());
        }
        self.seek(lo);
        let n = self.spec.node_count();
        for linear in lo..hi {
            result.profiles_checked += 1;
            if checker.is_stable_with_engine(&mut self.engine)? {
                result.equilibria.push(self.engine.config().clone());
            }
            if linear + 1 == hi {
                break;
            }
            // Odometer tick: increment from the least significant digit,
            // patching exactly the digits the carry resets.
            let mut d = n - 1;
            loop {
                // bbc-lint: allow(panic, scan_linear_range seeks before ticking, so idx is Some by construction)
                let idx = self.idx.as_mut().expect("seek positioned the odometer");
                idx[d] += 1;
                if idx[d] < self.sizes[d] {
                    self.set_digit(d);
                    break;
                }
                idx[d] = 0;
                // A one-candidate digit wraps 0 → 0: the strategy is
                // unchanged, and re-applying it would needlessly invalidate
                // every cached row the node touches.
                if self.sizes[d] > 1 {
                    self.set_digit(d);
                }
                debug_assert!(d > 0, "odometer overflow before hi");
                d -= 1;
            }
        }
        Ok(())
    }

    /// Positions the odometer (and engine) at linear profile index `target`,
    /// patching only the digits that differ from the current position.
    fn seek(&mut self, target: u64) {
        let n = self.spec.node_count();
        let mut digits = vec![0usize; n];
        let mut rem = target;
        for d in (0..n).rev() {
            let size = self.sizes[d] as u64;
            digits[d] = (rem % size) as usize;
            rem /= size;
        }
        debug_assert_eq!(rem, 0, "linear index exceeds the profile space");
        match &self.idx {
            Some(current) => {
                let changed: Vec<usize> = (0..n).filter(|&d| current[d] != digits[d]).collect();
                self.idx = Some(digits);
                for d in changed {
                    self.set_digit(d);
                }
            }
            None => {
                self.idx = Some(digits);
                for d in 0..n {
                    self.set_digit(d);
                }
            }
        }
    }

    /// Rewires node `d` to its current odometer digit's strategy.
    fn set_digit(&mut self, d: usize) {
        // bbc-lint: allow(panic, both callers write self.idx = Some(..) before calling set_digit)
        let i = self.idx.as_ref().expect("odometer positioned")[d];
        let strategy = self.space.per_node[d][i].clone();
        self.engine
            .apply_strategy(NodeId::new(d), strategy)
            // bbc-lint: allow(panic, ProfileSpace constructors validate every candidate against the spec)
            .expect("candidates pre-validated");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn all_strategies_uniform_counts() {
        // (4,1): empty + 3 singletons.
        let spec = GameSpec::uniform(4, 1);
        let s = all_strategies(&spec, v(0), 1000).unwrap();
        assert_eq!(s.len(), 4);
        // (4,2): empty + 3 singletons + 3 pairs.
        let spec = GameSpec::uniform(4, 2);
        let s = all_strategies(&spec, v(0), 1000).unwrap();
        assert_eq!(s.len(), 7);
        assert_eq!(s[0], Vec::<NodeId>::new());
    }

    #[test]
    fn all_strategies_respects_nonuniform_costs() {
        let spec = GameSpec::builder(4)
            .default_budget(3)
            .link_cost(0, 1, 3)
            .link_cost(0, 2, 2)
            .build()
            .unwrap();
        let s = all_strategies(&spec, v(0), 1000).unwrap();
        // Affordable subsets of {1:3, 2:2, 3:1}: {}, {1}, {2}, {3}, {2,3}.
        assert_eq!(s.len(), 5);
        assert!(s.contains(&vec![v(2), v(3)]));
        assert!(!s.contains(&vec![v(1), v(3)]));
    }

    #[test]
    fn all_strategies_cap_enforced() {
        let spec = GameSpec::uniform(20, 10);
        assert!(matches!(
            all_strategies(&spec, v(0), 100),
            Err(Error::SearchBudgetExceeded { limit: 100 })
        ));
    }

    #[test]
    fn full_space_counts_profiles() {
        let spec = GameSpec::uniform(3, 1);
        let space = ProfileSpace::full(&spec, 100).unwrap();
        // Each node: empty + 2 singletons = 3 strategies; 3^3 = 27 profiles.
        assert_eq!(space.profile_count(), 27);
    }

    #[test]
    fn finds_all_equilibria_of_tiny_uniform_game() {
        // (3,1)-uniform: stable graphs are exactly the two directed
        // triangles (each node must buy its one affordable useful link, and
        // the graph must be strongly connected with out-degree 1).
        let spec = GameSpec::uniform(3, 1);
        let space = ProfileSpace::full(&spec, 100).unwrap();
        let result = find_equilibria(&spec, &space, 1000).unwrap();
        assert_eq!(result.profiles_checked, 27);
        assert_eq!(
            result.equilibria.len(),
            2,
            "two orientations of the triangle"
        );
        for eq in &result.equilibria {
            assert!(bbc_graph::scc::is_strongly_connected(&eq.to_graph(&spec)));
        }
    }

    #[test]
    fn parallel_matches_sequential_byte_identically() {
        // The shard merge is by linear start index, so the parallel scan
        // must reproduce the sequential result *exactly* — same equilibria
        // in the same enumeration order — for every worker count.
        let spec = GameSpec::uniform(4, 1);
        let space = ProfileSpace::full(&spec, 1000).unwrap();
        let seq = find_equilibria(&spec, &space, 100_000).unwrap();
        for threads in [1, 2, 4, 7] {
            let par = find_equilibria_parallel(&spec, &space, 100_000, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn sharding_covers_the_full_odometer_space() {
        // A one-strategy first digit starves the old first-digit split but
        // must not cap work-stealing sharding: restrict node 0 to a single
        // strategy and check multi-thread runs still match sequentially.
        let spec = GameSpec::uniform(4, 1);
        let full = ProfileSpace::full(&spec, 1000).unwrap();
        let mut candidates: Vec<Vec<Vec<NodeId>>> =
            (0..4).map(|u| full.candidates(v(u)).to_vec()).collect();
        candidates[0] = vec![vec![v(1)]];
        let space = ProfileSpace::from_candidates(&spec, candidates).unwrap();
        let seq = find_equilibria(&spec, &space, 100_000).unwrap();
        assert_eq!(seq.profiles_checked, 64, "1 * 4^3 profiles");
        for threads in [2, 3, 8] {
            let par = find_equilibria_parallel(&spec, &space, 100_000, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn resumable_scan_matches_sequential_and_sinks_in_order() {
        // (4,2): 7 strategies per node, 2401 profiles ⇒ 10 checkpoint
        // shards — enough to exercise out-of-order completion and the
        // ordered flush.
        let spec = GameSpec::uniform(4, 2);
        let space = ProfileSpace::full(&spec, 1000).unwrap();
        assert_eq!(checkpoint_shard_count(&space), 10);
        let seq = find_equilibria(&spec, &space, 100_000).unwrap();
        for threads in [1usize, 2, 4] {
            let mut shards_seen = Vec::new();
            let mut sunk = EnumerationResult {
                equilibria: Vec::new(),
                profiles_checked: 0,
            };
            let mut sink = |shard: u64, r: &EnumerationResult| {
                shards_seen.push(shard);
                sunk.equilibria.extend(r.equilibria.iter().cloned());
                sunk.profiles_checked += r.profiles_checked;
            };
            let merged =
                find_equilibria_parallel_resumable(&spec, &space, 100_000, threads, 0, &mut sink)
                    .unwrap();
            assert_eq!(merged, seq, "threads={threads}");
            assert_eq!(sunk, seq, "threads={threads}: sink saw every shard");
            assert_eq!(
                shards_seen,
                (0..10).collect::<Vec<u64>>(),
                "threads={threads}: ascending, contiguous shard order"
            );
        }
    }

    #[test]
    fn killed_scan_resumes_byte_identically_from_any_shard() {
        // Simulate a kill after k persisted shards: the persisted prefix
        // plus a resumed scan over the rest must reproduce the sequential
        // result byte for byte — for every cut point and thread count.
        let spec = GameSpec::uniform(4, 2);
        let space = ProfileSpace::full(&spec, 1000).unwrap();
        let seq = find_equilibria(&spec, &space, 100_000).unwrap();
        // Record the full per-shard results once.
        let mut per_shard: Vec<EnumerationResult> = Vec::new();
        let mut record = |_: u64, r: &EnumerationResult| per_shard.push(r.clone());
        find_equilibria_parallel_resumable(&spec, &space, 100_000, 3, 0, &mut record).unwrap();
        assert_eq!(per_shard.len(), 10);
        for cut in [0usize, 1, 4, 9, 10] {
            for threads in [1usize, 4] {
                let mut rebuilt = EnumerationResult {
                    equilibria: Vec::new(),
                    profiles_checked: 0,
                };
                for r in &per_shard[..cut] {
                    rebuilt.equilibria.extend(r.equilibria.iter().cloned());
                    rebuilt.profiles_checked += r.profiles_checked;
                }
                let mut sink = |_: u64, _: &EnumerationResult| {};
                let resumed = find_equilibria_parallel_resumable(
                    &spec, &space, 100_000, threads, cut as u64, &mut sink,
                )
                .unwrap();
                rebuilt.equilibria.extend(resumed.equilibria);
                rebuilt.profiles_checked += resumed.profiles_checked;
                assert_eq!(rebuilt, seq, "cut={cut} threads={threads}");
            }
        }
    }

    #[test]
    fn empty_candidate_list_is_an_error_not_a_panic() {
        let spec = GameSpec::uniform(3, 1);
        let bad =
            ProfileSpace::from_candidates(&spec, vec![vec![vec![v(1)]], vec![], vec![vec![v(0)]]]);
        assert!(matches!(
            bad,
            Err(Error::EmptyCandidateSet { node }) if node == v(1)
        ));
    }

    #[test]
    fn profile_limit_enforced_up_front() {
        let spec = GameSpec::uniform(4, 1);
        let space = ProfileSpace::full(&spec, 1000).unwrap();
        assert!(matches!(
            find_equilibria(&spec, &space, 10),
            Err(Error::SearchBudgetExceeded { limit: 10 })
        ));
    }

    #[test]
    fn restricted_space_validates_candidates() {
        let spec = GameSpec::uniform(3, 1);
        let bad = ProfileSpace::from_candidates(
            &spec,
            vec![vec![vec![v(0)]], vec![vec![]], vec![vec![]]],
        );
        assert!(matches!(bad, Err(Error::SelfLink { .. })));
    }

    #[test]
    fn restricted_space_scan_checks_full_deviations() {
        // Restrict node 0 to the empty strategy only; in a (3,1) game that
        // profile is NOT stable because node 0's full deviation space lets
        // it link out. The scan must therefore report no equilibria.
        let spec = GameSpec::uniform(3, 1);
        let space = ProfileSpace::from_candidates(
            &spec,
            vec![
                vec![vec![]],
                vec![vec![v(0)], vec![v(2)]],
                vec![vec![v(0)], vec![v(1)]],
            ],
        )
        .unwrap();
        let result = find_equilibria(&spec, &space, 1000).unwrap();
        assert_eq!(result.profiles_checked, 4);
        assert!(result.equilibria.is_empty());
    }
}
