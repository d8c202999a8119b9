//! Equilibrium harvesting and instance search.
//!
//! Two workhorses for the experiments: collecting distinct equilibria by
//! running best-response dynamics from many seeded starting points (the way
//! the paper's §4.3 experiments explore the landscape), and searching small
//! random games for no-equilibrium witnesses (used to pin down Theorem 7's
//! BBC-max claim with a concrete, machine-checkable instance).

use rand::{rngs::SmallRng, Rng, SeedableRng};

use bbc_core::det::DetHashSet;
use bbc_core::par::ordered_fan_out;
use bbc_core::{enumerate, Configuration, CostModel, GameSpec, Result, Walk, WalkOutcome};

/// Outcome of a seeded dynamics harvest.
#[derive(Clone, Debug, Default)]
pub struct Harvest {
    /// Distinct equilibria found, in first-discovery order.
    pub equilibria: Vec<Configuration>,
    /// Seeds whose walk ended in a detected best-response cycle.
    pub cycling_seeds: Vec<u64>,
    /// Seeds whose walk hit the step limit.
    pub exhausted_seeds: Vec<u64>,
}

/// Runs round-robin best-response walks from `seeds` random starting
/// configurations and collects the distinct equilibria reached.
///
/// Each walk owns a [`bbc_core::DistanceEngine`]: the per-step deviation
/// rows and best-response outcomes are cached and invalidated incrementally
/// as the walk rewires nodes, so a harvest is search-bound rather than
/// shortest-path-bound.
///
/// # Errors
///
/// Propagates best-response search failures (oversized strategy spaces).
pub fn harvest_equilibria(
    spec: &GameSpec,
    seeds: std::ops::Range<u64>,
    max_steps: u64,
) -> Result<Harvest> {
    let mut merger = HarvestMerger::default();
    for seed in seeds {
        let verdict = walk_seed(spec, seed, max_steps)?;
        merger.absorb(seed, verdict);
    }
    Ok(merger.harvest)
}

/// Parallel variant of [`harvest_equilibria`]: seeds fan out across
/// `threads` workers on the [`ordered fan-out`](bbc_core::par::ordered_fan_out),
/// each walk owning its own [`bbc_core::DistanceEngine`]. Workers claim
/// seeds from a shared cursor (long walks do not serialize behind short
/// ones) and per-seed outcomes are merged **in seed order**, so the result —
/// equilibria in first-discovery order, cycling and exhausted seed lists —
/// is byte-identical to the sequential harvest for every thread count.
///
/// # Errors
///
/// Same conditions as [`harvest_equilibria`]; when several walks fail, the
/// lowest-seed error (the one the sequential harvest would have hit) is
/// returned. A panicked worker is [`bbc_core::Error::WorkerPanicked`].
pub fn harvest_equilibria_parallel(
    spec: &GameSpec,
    seeds: std::ops::Range<u64>,
    max_steps: u64,
    threads: usize,
) -> Result<Harvest> {
    let mut merger = HarvestMerger::default();
    ordered_fan_out(
        seeds,
        threads,
        "equilibrium harvest",
        || (),
        |(), seed| walk_seed(spec, seed, max_steps),
        |_| false,
        |seed, verdict| merger.absorb(seed, verdict),
    )?;
    Ok(merger.harvest)
}

/// Outcome of one harvest walk, before the deterministic merge.
enum SeedVerdict {
    Equilibrium(Configuration),
    Cycle { first_seen_step: u64, period: u64 },
    StepLimit,
}

/// Runs one engine-backed round-robin walk from `seed`'s random start.
fn walk_seed(spec: &GameSpec, seed: u64, max_steps: u64) -> Result<SeedVerdict> {
    let start = Configuration::random(spec, seed);
    let mut walk = Walk::new(spec, start);
    Ok(match walk.run(max_steps)? {
        WalkOutcome::Equilibrium { .. } => SeedVerdict::Equilibrium(walk.into_config()),
        WalkOutcome::Cycle {
            first_seen_step,
            period,
        } => SeedVerdict::Cycle {
            first_seen_step,
            period,
        },
        WalkOutcome::StepLimit { .. } => SeedVerdict::StepLimit,
    })
}

/// Seed-order accumulator shared by the sequential and parallel harvests, so
/// both produce identical [`Harvest`] records by construction.
#[derive(Default)]
struct HarvestMerger {
    seen: DetHashSet<Configuration>,
    harvest: Harvest,
}

impl HarvestMerger {
    fn absorb(&mut self, seed: u64, verdict: SeedVerdict) {
        match verdict {
            SeedVerdict::Equilibrium(cfg) => {
                if self.seen.insert(cfg.clone()) {
                    self.harvest.equilibria.push(cfg);
                }
            }
            SeedVerdict::Cycle { .. } => self.harvest.cycling_seeds.push(seed),
            SeedVerdict::StepLimit => self.harvest.exhausted_seeds.push(seed),
        }
    }
}

/// Searches for a round-robin best-response *loop* (Figure 4's artifact) in
/// the `(n,k)`-uniform game: walks from seeded random configurations until
/// one provably cycles, returning the seed and the cycle parameters.
///
/// # Errors
///
/// Propagates best-response search failures.
pub fn find_best_response_loop(
    spec: &GameSpec,
    seeds: std::ops::Range<u64>,
    max_steps: u64,
) -> Result<Option<(u64, u64, u64)>> {
    for seed in seeds {
        if let SeedVerdict::Cycle {
            first_seen_step,
            period,
        } = walk_seed(spec, seed, max_steps)?
        {
            return Ok(Some((seed, first_seen_step, period)));
        }
    }
    Ok(None)
}

/// Parallel variant of [`find_best_response_loop`]: seeds fan out across
/// `threads` workers on the [`ordered fan-out`](bbc_core::par::ordered_fan_out),
/// where a cycle ends the search. The returned witness is the **lowest**
/// cycling seed in the range — exactly what the sequential scan returns —
/// regardless of which worker found it first; seeds above it are never
/// claimed once a worker has seen it, so the search still short-circuits.
///
/// # Errors
///
/// Same conditions as [`find_best_response_loop`], resolved to the
/// lowest-seed failure. A panicked worker is
/// [`bbc_core::Error::WorkerPanicked`].
pub fn find_best_response_loop_parallel(
    spec: &GameSpec,
    seeds: std::ops::Range<u64>,
    max_steps: u64,
    threads: usize,
) -> Result<Option<(u64, u64, u64)>> {
    let mut found = None;
    ordered_fan_out(
        seeds,
        threads,
        "best-response loop search",
        || (),
        // Only the cycle parameters travel back, so results waiting for
        // their turn stay small.
        |(), seed| {
            Ok(match walk_seed(spec, seed, max_steps)? {
                SeedVerdict::Cycle {
                    first_seen_step,
                    period,
                } => Some((first_seen_step, period)),
                _ => None,
            })
        },
        Option::is_some,
        |seed, cycle| found = cycle.map(|(step, period)| (seed, step, period)),
    )?;
    Ok(found)
}

/// A seeded random non-uniform game: unit lengths and costs, budget 1,
/// preference weights drawn uniformly from `0..=max_weight`.
pub fn random_preference_game(
    n: usize,
    seed: u64,
    max_weight: u64,
    cost_model: CostModel,
) -> GameSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GameSpec::builder(n)
        .default_budget(1)
        .cost_model(cost_model);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                b = b.weight(u, v, rng.gen_range(0..=max_weight));
            }
        }
    }
    // bbc-lint: allow(panic, the builder gets in-range weights and the default budget, which always validate)
    b.build().expect("random preference game is valid")
}

/// Exhaustively decides whether a small game has any pure Nash equilibrium.
///
/// # Errors
///
/// Returns [`bbc_core::Error::SearchBudgetExceeded`] when the joint space
/// exceeds `max_profiles`.
pub fn has_pure_equilibrium(spec: &GameSpec, max_profiles: u64) -> Result<bool> {
    let space = enumerate::ProfileSpace::full(spec, max_profiles)?;
    let result = enumerate::find_equilibria(spec, &space, max_profiles)?;
    Ok(!result.equilibria.is_empty())
}

/// Scans seeds for a random preference game with **no** pure Nash
/// equilibrium; returns the first witness seed.
///
/// # Errors
///
/// Propagates enumeration failures for oversized instances.
pub fn search_no_equilibrium_game(
    n: usize,
    seeds: std::ops::Range<u64>,
    max_weight: u64,
    cost_model: CostModel,
    max_profiles: u64,
) -> Result<Option<u64>> {
    for seed in seeds {
        let spec = random_preference_game(n, seed, max_weight, cost_model);
        if !has_pure_equilibrium(&spec, max_profiles)? {
            return Ok(Some(seed));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbc_core::StabilityChecker;

    #[test]
    fn harvest_finds_multiple_equilibria() {
        let spec = GameSpec::uniform(6, 1);
        let harvest = harvest_equilibria(&spec, 0..20, 50_000).unwrap();
        assert!(!harvest.equilibria.is_empty());
        let checker = StabilityChecker::new(&spec);
        for eq in &harvest.equilibria {
            assert!(checker.is_stable(eq).unwrap());
        }
        // Different seeds typically land on different cycles/orientations.
        assert!(
            harvest.equilibria.len() >= 2,
            "expected equilibrium diversity"
        );
    }

    #[test]
    fn parallel_harvest_matches_sequential_byte_identically() {
        // (6,1) with a modest step cap: the seed range mixes equilibria,
        // duplicate equilibria (dedup order matters), cycles, and exhausted
        // walks — the parallel merge must reproduce all four lists exactly.
        let spec = GameSpec::uniform(6, 1);
        let seq = harvest_equilibria(&spec, 0..20, 400).unwrap();
        for threads in [2, 3, 8] {
            let par = harvest_equilibria_parallel(&spec, 0..20, 400, threads).unwrap();
            assert_eq!(par.equilibria, seq.equilibria, "threads={threads}");
            assert_eq!(par.cycling_seeds, seq.cycling_seeds, "threads={threads}");
            assert_eq!(
                par.exhausted_seeds, seq.exhausted_seeds,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_loop_search_returns_the_lowest_cycling_seed() {
        let spec = GameSpec::uniform(7, 2);
        let seq = find_best_response_loop(&spec, 0..40, 50_000).unwrap();
        for threads in [2, 4] {
            let par = find_best_response_loop_parallel(&spec, 0..40, 50_000, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn random_preference_game_is_seed_deterministic() {
        let a = random_preference_game(5, 9, 3, CostModel::SumDistance);
        let b = random_preference_game(5, 9, 3, CostModel::SumDistance);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_tiny_games_always_have_equilibria() {
        for n in 2..=4 {
            let spec = GameSpec::uniform(n, 1);
            assert!(has_pure_equilibrium(&spec, 1_000_000).unwrap(), "n={n}");
        }
    }
}
