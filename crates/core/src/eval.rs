//! Cost evaluation: from a configuration to per-node and social costs.
//!
//! The paper defines node `u`'s (dis)utility in `G(S)` as
//! `Σ_v w(u,v)·d(u,v)` with `d(u,v) = M` when `v` is unreachable (§2), and
//! the max-variant `max_v w(u,v)·d(u,v)` (§5). [`Evaluator`] computes both
//! from the distance rows of a [`DistanceEngine`].

use bbc_graph::{BitSet, RowWord};

use crate::{Configuration, CostModel, DistanceEngine, GameSpec, NodeId};

/// Evaluates node costs and social cost for configurations of one game.
///
/// Backed by a [`DistanceEngine`]: consecutive evaluations of similar
/// configurations (a dynamics trace, a harvest of walk endpoints) diff
/// against the previous one and only recompute the distance rows a changed
/// strategy could have affected. Create once and reuse across evaluations of
/// the same game.
///
/// # Examples
///
/// ```
/// use bbc_core::{Configuration, Evaluator, GameSpec, NodeId};
///
/// // Directed 3-cycle in a (3,1)-uniform game: each node sees distances 1,2.
/// let spec = GameSpec::uniform(3, 1);
/// let cfg = Configuration::from_strategies(&spec, vec![
///     vec![NodeId::new(1)], vec![NodeId::new(2)], vec![NodeId::new(0)],
/// ])?;
/// let mut eval = Evaluator::new(&spec);
/// assert_eq!(eval.node_costs(&cfg), vec![3, 3, 3]);
/// assert_eq!(eval.social_cost(&cfg), 9);
/// # Ok::<(), bbc_core::Error>(())
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    spec: &'a GameSpec,
    engine: DistanceEngine<'a>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for `spec`.
    pub fn new(spec: &'a GameSpec) -> Self {
        Self {
            spec,
            engine: DistanceEngine::new(spec, Configuration::empty(spec.node_count())),
        }
    }

    /// The game this evaluator measures (decoupled from the `&self` borrow,
    /// so callers can read spec parameters and evaluate in one expression).
    pub fn spec(&self) -> &'a GameSpec {
        self.spec
    }

    /// Cost of node `u` under `config`.
    pub fn node_cost(&mut self, config: &Configuration, u: NodeId) -> u64 {
        self.engine.sync_to(config);
        self.engine.node_cost(u)
    }

    /// Costs of every node under `config` (cached rows are reused; at most
    /// one shortest-path run per node).
    pub fn node_costs(&mut self, config: &Configuration) -> Vec<u64> {
        self.engine.sync_to(config);
        self.engine.node_costs()
    }

    /// Social cost: the sum of all node costs. (The paper's "total social
    /// cost"; the social *utility* is its negation.)
    pub fn social_cost(&mut self, config: &Configuration) -> u64 {
        self.engine.sync_to(config);
        self.engine.social_cost()
    }
}

/// Aggregates a distance vector into `u`'s cost under the spec's cost model,
/// substituting the disconnection penalty for unreachable nodes.
///
/// `dist` holds raw `u64` distances ([`bbc_graph::UNREACHABLE`] where no
/// path exists) or rows clamped at `min(M, SATURATED)`, at either row
/// width: every entry is read through [`RowWord::lift`], which charges the
/// penalty for the saturated value and for nothing else.
///
/// Exposed for the engine and the frozen reference, which produce distance
/// rows without a full `Evaluator`.
pub fn cost_from_distances<W: RowWord>(spec: &GameSpec, u: NodeId, dist: &[W]) -> u64 {
    debug_assert_eq!(dist.len(), spec.node_count());
    let m = spec.penalty();
    match spec.cost_model() {
        CostModel::SumDistance => {
            let mut total = 0u64;
            for v in NodeId::all(spec.node_count()) {
                if v == u {
                    continue;
                }
                let w = spec.weight(u, v);
                if w == 0 {
                    continue;
                }
                total += w * dist[v.index()].lift(m);
            }
            total
        }
        CostModel::MaxDistance => {
            let mut worst = 0u64;
            for v in NodeId::all(spec.node_count()) {
                if v == u {
                    continue;
                }
                let w = spec.weight(u, v);
                if w == 0 {
                    continue;
                }
                worst = worst.max(w * dist[v.index()].lift(m));
            }
            worst
        }
    }
}

/// [`cost_from_distances`] restricted to a live-membership mask: only live
/// targets contribute distance (or penalty) terms, so a departed peer is
/// neither a destination nor a source of disconnection penalties.
///
/// This is the aggregation rule of the churn runtime
/// ([`crate::DistanceEngine::remove_node`]); with every node live it reduces
/// to [`cost_from_distances`].
pub fn cost_from_distances_masked<W: RowWord>(
    spec: &GameSpec,
    u: NodeId,
    dist: &[W],
    live: &BitSet,
) -> u64 {
    debug_assert_eq!(dist.len(), spec.node_count());
    let m = spec.penalty();
    let mut total = 0u64;
    let mut worst = 0u64;
    for v in live.iter().map(NodeId::new) {
        if v == u {
            continue;
        }
        let w = spec.weight(u, v);
        if w == 0 {
            continue;
        }
        let term = w * dist[v.index()].lift(m);
        total += term;
        worst = worst.max(term);
    }
    match spec.cost_model() {
        CostModel::SumDistance => total,
        CostModel::MaxDistance => worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Configuration;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn cycle(spec: &GameSpec, n: usize) -> Configuration {
        Configuration::from_strategies(spec, (0..n).map(|i| vec![v((i + 1) % n)]).collect())
            .unwrap()
    }

    #[test]
    fn directed_cycle_costs() {
        let n = 5;
        let spec = GameSpec::uniform(n, 1);
        let cfg = cycle(&spec, n);
        let mut eval = Evaluator::new(&spec);
        // Each node sees distances 1..n-1: sum = n(n-1)/2 = 10.
        assert_eq!(eval.node_costs(&cfg), vec![10; n]);
        assert_eq!(eval.social_cost(&cfg), 50);
    }

    #[test]
    fn disconnection_charges_penalty() {
        let spec = GameSpec::uniform(3, 1);
        let mut cfg = Configuration::empty(3);
        cfg.set_strategy(&spec, v(0), vec![v(1)]).unwrap();
        let mut eval = Evaluator::new(&spec);
        // Node 0 reaches 1 at distance 1, node 2 never: cost 1 + M.
        assert_eq!(eval.node_cost(&cfg, v(0)), 1 + spec.penalty());
        // Node 2 reaches nobody: 2M.
        assert_eq!(eval.node_cost(&cfg, v(2)), 2 * spec.penalty());
    }

    #[test]
    fn weights_scale_distances() {
        let spec = GameSpec::builder(3)
            .default_budget(2)
            .weight(0, 1, 10)
            .weight(0, 2, 3)
            .build()
            .unwrap();
        let cfg =
            Configuration::from_strategies(&spec, vec![vec![v(1)], vec![v(2)], vec![]]).unwrap();
        let mut eval = Evaluator::new(&spec);
        // d(0,1)=1 (w 10), d(0,2)=2 (w 3): 10 + 6 = 16.
        assert_eq!(eval.node_cost(&cfg, v(0)), 16);
    }

    #[test]
    fn zero_weight_targets_do_not_contribute() {
        let spec = GameSpec::builder(3).weight(0, 2, 0).build().unwrap();
        let mut cfg = Configuration::empty(3);
        cfg.set_strategy(&spec, v(0), vec![v(1)]).unwrap();
        let mut eval = Evaluator::new(&spec);
        // Node 2 unreachable but has weight 0: only d(0,1)=1 counts.
        assert_eq!(eval.node_cost(&cfg, v(0)), 1);
    }

    #[test]
    fn max_model_takes_weighted_maximum() {
        let spec = GameSpec::uniform(4, 1).with_cost_model(CostModel::MaxDistance);
        let cfg = cycle(&spec, 4);
        let mut eval = Evaluator::new(&spec);
        assert_eq!(
            eval.node_costs(&cfg),
            vec![3; 4],
            "eccentricity of a 4-cycle"
        );
    }

    #[test]
    fn max_model_weights_interact_with_distance() {
        let spec = GameSpec::builder(3)
            .default_budget(2)
            .weight(0, 1, 10) // near but heavily weighted
            .weight(0, 2, 1)
            .cost_model(CostModel::MaxDistance)
            .build()
            .unwrap();
        let cfg =
            Configuration::from_strategies(&spec, vec![vec![v(1)], vec![v(2)], vec![]]).unwrap();
        let mut eval = Evaluator::new(&spec);
        // max(10·1, 1·2) = 10.
        assert_eq!(eval.node_cost(&cfg, v(0)), 10);
    }

    #[test]
    fn weighted_lengths_use_dijkstra() {
        let spec = GameSpec::builder(3)
            .default_budget(2)
            .link_length(0, 2, 10)
            .build()
            .unwrap();
        let cfg = Configuration::from_strategies(&spec, vec![vec![v(1), v(2)], vec![v(2)], vec![]])
            .unwrap();
        let mut eval = Evaluator::new(&spec);
        // d(0,2) = min(10 direct, 1+1 via 1) = 2; d(0,1) = 1.
        assert_eq!(eval.node_cost(&cfg, v(0)), 3);
    }

    #[test]
    fn single_node_game_has_zero_cost() {
        let spec = GameSpec::uniform(1, 1);
        let cfg = Configuration::empty(1);
        let mut eval = Evaluator::new(&spec);
        assert_eq!(eval.node_cost(&cfg, v(0)), 0);
        assert_eq!(eval.social_cost(&cfg), 0);
    }
}
