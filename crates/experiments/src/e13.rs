//! E13 — Theorem 5 / §4.3 at overlay scale: a 256-peer selfish-churn sweep.
//!
//! The paper's §1.1 motivates BBC games with p2p overlay design: an
//! operator deploys a *regular* degree-k topology, peers rewire selfishly.
//! Theorem 5 says every large regular design admits a profitable unilateral
//! rewiring, and §4.3 adds that the resulting churn need not settle. The
//! `examples/p2p_overlay.rs` walkthrough tells that story at 64 peers; this
//! experiment measures it as a sweep up to 256 peers (512 in `--full`
//! mode) — the ROADMAP's larger-scale scenario.
//!
//! At this size a stability test derives up to `n − 1` deviation rows and
//! searches over them; the engine repairs the base rows a move dropped
//! instead of traversing them again, so the walks run on one thread.
//!
//! Per overlay size the sweep records: the Theorem 5 deviation at peer 0,
//! then a fixed budget of selfish best-response churn (one round per peer
//! in fast mode, four in `--full`) and the social cost/diameter shift it
//! causes. (Early churn *lowers* the sum — each peer shortens its own
//! distances — which is exactly the operator's §1.1 dilemma: the selfish
//! process that improves individual costs also destroys the regular
//! design, and §4.3 says it need never settle.) Each size is one resumable sweep point in
//! `target/experiments/E13.jsonl` — these are exactly the multi-minute
//! walks `--resume` exists for.

use bbc_analysis::{social, ExperimentReport};
use bbc_constructions::CayleyGraph;
use bbc_core::{best_response, BestResponseOptions, NodeId, Walk};
use bbc_graph::diameter::eccentricity;

use crate::{finish_streamed, Fingerprint, Outcome, RunOptions, StreamingTable};

/// One overlay size in the sweep: peer count and churn rounds.
#[derive(Clone, Copy, Debug)]
struct SweepPoint {
    peers: u64,
    rounds: u64,
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Outcome {
    let report = ExperimentReport::new(
        "E13",
        "Theorem 5 / §4.3 / §1.1 (overlay scale)",
        "every large regular p2p overlay admits a profitable selfish rewiring \
         (so the regular design is not an equilibrium), and best-response churn \
         keeps rewiring without settling",
    );

    let points: &[SweepPoint] = if opts.full {
        &[
            SweepPoint {
                peers: 64,
                rounds: 4,
            },
            SweepPoint {
                peers: 128,
                rounds: 4,
            },
            SweepPoint {
                peers: 256,
                rounds: 4,
            },
            SweepPoint {
                peers: 512,
                rounds: 2,
            },
        ]
    } else {
        &[
            SweepPoint {
                peers: 64,
                rounds: 1,
            },
            SweepPoint {
                peers: 128,
                rounds: 1,
            },
            SweepPoint {
                peers: 256,
                rounds: 1,
            },
        ]
    };

    let fingerprint = Fingerprint::new("E13")
        .param("full", opts.full)
        .param("grid", format!("{points:?}"))
        .param("family", "circulant{1,round(√n)}")
        .param("scheduler", "round-robin");
    let mut table = StreamingTable::open(
        "E13",
        &[
            "n",
            "offsets",
            "peer0-deviation",
            "churn-steps",
            "moves",
            "cost(designed)",
            "cost(churned)",
            "cost-ratio",
            "diam(designed)",
            "diam(churned)",
            "searches",
        ],
        &fingerprint,
        opts.resume,
    );

    let mut all_unstable = true;
    let mut any_settled = false;
    let mut total_moves = 0u64;
    for &SweepPoint { peers, rounds } in points {
        if let Some(rows) = table.begin_point() {
            for r in &rows {
                all_unstable &= r.raw_bool(0);
                total_moves += r.raw_u64(1);
                any_settled |= r.raw_bool(2);
            }
            continue;
        }
        let root = (peers as f64).sqrt().round() as u64;
        let Some(overlay) = CayleyGraph::circulant(peers, &[1, root]) else {
            continue;
        };
        let spec = overlay.spec();
        let designed = overlay.configuration();
        let designed_cost = social::social_cost(&spec, &designed);
        let designed_diam = eccentricity(&designed.to_graph(&spec)).diameter();

        // Theorem 5: one profitable unilateral rewiring at peer 0 (the
        // circulant is vertex-transitive, so peer 0 witnesses every peer).
        let deviation = best_response::exact(
            &spec,
            &designed,
            NodeId::new(0),
            &BestResponseOptions {
                evaluation_limit: 10_000_000,
                stop_at_first_improvement: true,
            },
        )
        // bbc-lint: allow(panic, run() has no error channel; the k=2 subset search fits the default budget)
        .expect("k=2 subset search fits budget");
        let unstable = deviation.improves();
        all_unstable &= unstable;

        let budget = rounds * peers;
        let mut walk = Walk::new(&spec, designed).detect_cycles(false);
        // bbc-lint: allow(panic, run() has no error channel; walk budgets are sized above the pinned grid)
        let outcome = walk.run(budget).expect("walk fits budget");
        let settled = matches!(
            outcome,
            bbc_core::WalkOutcome::Equilibrium { .. } | bbc_core::WalkOutcome::Cycle { .. }
        );
        any_settled |= settled;
        let moves = walk.stats().moves;
        total_moves += moves;
        // Decision-level effort unit: the number of best-response *calls*
        // (memo hits + searches run) is fixed by the trajectory, whatever
        // the engine's row caching does, so the stream digest reproduces
        // on any machine.
        let stats = walk.engine_stats();
        let searches = stats.searches_run + stats.outcome_hits;
        let churned = walk.into_config();
        let churned_cost = social::social_cost(&spec, &churned);
        let churned_diam = eccentricity(&churned.to_graph(&spec)).diameter();
        let ratio = churned_cost as f64 / designed_cost as f64;

        table.row_raw(
            &[
                peers.to_string(),
                format!("{{1,{root}}}"),
                if unstable {
                    format!("cost {}→{}", deviation.current_cost, deviation.best_cost)
                } else {
                    "none found".to_string()
                },
                budget.to_string(),
                moves.to_string(),
                designed_cost.to_string(),
                churned_cost.to_string(),
                format!("{ratio:.3}"),
                designed_diam.map_or("∞".to_string(), |d| d.to_string()),
                churned_diam.map_or("∞".to_string(), |d| d.to_string()),
                searches.to_string(),
            ],
            &[unstable.to_string(), moves.to_string(), settled.to_string()],
        );
    }

    // Theorem 5 is the claim under test; the churn columns quantify the
    // §4.3 story — within these budgets no walk may certify an equilibrium
    // (or an exact cycle), and moves keep happening at every size.
    let agrees = all_unstable && !any_settled && total_moves > 0;
    let measured = format!(
        "every overlay size admits a profitable peer-0 rewiring: {all_unstable}; \
         selfish churn applied {total_moves} rewirings and never settled: {}",
        !any_settled
    );
    let mut outcome = finish_streamed(report, table, measured, agrees);
    outcome.report.notes.push(
        "churn walks are deterministic round-robin best response on one thread, \
         so the sweep is reproducible on any machine"
            .to_string(),
    );
    outcome
}

/// CLI entry point.
pub fn cli() {
    let outcome = run(&RunOptions::from_env());
    crate::emit(&outcome);
}
