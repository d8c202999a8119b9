//! E14 — §1.1 / §4.3 under churn: dynamic membership on circulant overlays.
//!
//! The paper motivates BBC games with p2p overlays, and the defining p2p
//! workload is *churn*: peers join and leave while the survivors re-optimize
//! their bounded-budget links (the perturbation-response question the
//! follow-up "On a Bounded Budget Network Creation Game" studies for
//! equilibria). This experiment sweeps churn-rate × peer-count on the same
//! circulant family as [`crate::e13`], driving the engine's node-lifecycle
//! layer through [`ChurnSim`]: each sweep point deploys an `{1, √n}`
//! circulant, lets it play toward (non-)equilibrium, then applies a seeded
//! stream of join/leave events, each followed by a re-equilibration phase of
//! `rate · n` best-response steps.
//!
//! Per point the sweep records how play absorbs the events: how many phases
//! re-certified an equilibrium or provably looped, steps-to-requilibrate,
//! the social-cost regret of the spikes, the worst disconnection exposure a
//! leave created and whether settling healed it all. The first point also
//! re-runs its sim with the same configuration and compares trajectory
//! digests — the churn determinism contract, checked end to end inside the
//! experiment itself.
//!
//! Every point is one resumable checkpoint in `target/experiments/E14.jsonl`
//! (kill/`--resume` byte-identity as for every stream); the pinned-seed
//! digest also feeds the release churn smoke test.

use bbc_analysis::ExperimentReport;
use bbc_constructions::CayleyGraph;
use bbc_core::{ChurnConfig, ChurnSim};

use crate::{finish_streamed, Fingerprint, Outcome, RunOptions, StreamingTable};

/// One sweep point: peer count, settle budget in rounds ("churn rate" —
/// rate 1 means the survivors get one round-robin round per event), and the
/// number of churn events.
#[derive(Clone, Copy, Debug)]
struct SweepPoint {
    peers: u64,
    rate: u64,
    events: u32,
}

/// The churn configuration of one sweep point (shared by the experiment and
/// the determinism cross-check).
fn churn_config(point: &SweepPoint) -> ChurnConfig {
    ChurnConfig {
        seed: point.peers * 10 + point.rate,
        events: point.events,
        min_live: (point.peers / 2) as usize,
        settle_steps: point.rate * point.peers,
        leave_weight: 1,
        join_weight: 1,
        shock_weight: 0,
        scheduler: bbc_core::Scheduler::RoundRobin,
        ..ChurnConfig::default()
    }
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Outcome {
    let report = ExperimentReport::new(
        "E14",
        "§1.1 / §4.3 (churn runtime)",
        "a circulant overlay under seeded join/leave churn is absorbed by bounded \
         best-response play — deterministically (a replay of the same configuration \
         is byte-identical), with every event applied and accounted",
    );

    let points: &[SweepPoint] = if opts.full {
        &[
            SweepPoint {
                peers: 64,
                rate: 1,
                events: 8,
            },
            SweepPoint {
                peers: 64,
                rate: 4,
                events: 8,
            },
            SweepPoint {
                peers: 128,
                rate: 1,
                events: 8,
            },
            SweepPoint {
                peers: 128,
                rate: 4,
                events: 8,
            },
            SweepPoint {
                peers: 256,
                rate: 1,
                events: 8,
            },
            SweepPoint {
                peers: 256,
                rate: 4,
                events: 8,
            },
            SweepPoint {
                peers: 512,
                rate: 1,
                events: 4,
            },
        ]
    } else {
        &[
            SweepPoint {
                peers: 64,
                rate: 1,
                events: 4,
            },
            SweepPoint {
                peers: 64,
                rate: 4,
                events: 4,
            },
            SweepPoint {
                peers: 128,
                rate: 1,
                events: 4,
            },
            SweepPoint {
                peers: 128,
                rate: 4,
                events: 4,
            },
            SweepPoint {
                peers: 256,
                rate: 1,
                events: 4,
            },
        ]
    };

    let fingerprint = Fingerprint::new("E14")
        .param("full", opts.full)
        .param("grid", format!("{points:?}"))
        .param("family", "circulant{1,round(√n)}")
        .param("scheduler", "round-robin")
        .param("seeds", "10n+rate")
        .param("weights", "leave=1,join=1,shock=0");
    let mut table = StreamingTable::open(
        "E14",
        &[
            "n",
            "rate",
            "events",
            "joins/leaves",
            "settled",
            "looped",
            "mean-steps",
            "max-steps",
            "regret",
            "max-disc",
            "healed",
            "digest",
        ],
        &fingerprint,
        opts.resume,
    );

    let mut all_events_applied = true;
    let mut determinism_ok = true;
    let mut total_events = 0u64;
    let mut total_settled = 0u64;
    let mut total_looped = 0u64;
    for (i, point) in points.iter().enumerate() {
        if let Some(rows) = table.begin_point() {
            for r in &rows {
                all_events_applied &= r.raw_bool(0);
                determinism_ok &= r.raw_bool(1);
                total_events += r.raw_u64(2);
                total_settled += r.raw_u64(3);
                total_looped += r.raw_u64(4);
            }
            continue;
        }
        let root = (point.peers as f64).sqrt().round() as u64;
        let Some(overlay) = CayleyGraph::circulant(point.peers, &[1, root]) else {
            continue;
        };
        let spec = overlay.spec();
        let designed = overlay.configuration();
        let mut sim = ChurnSim::new(&spec, designed.clone(), churn_config(point));
        let sim_report = sim
            .run()
            // bbc-lint: allow(panic, run() has no error channel; churn budgets are sized above the pinned phases)
            .expect("churn phases fit the search budget");

        // Determinism cross-check on the first (cheapest) point: a second
        // sim with the same configuration must replay the identical
        // trajectory. (Every point would pass; one keeps the sweep fast.)
        let deterministic = if i == 0 {
            let again = ChurnSim::new(&spec, designed, churn_config(point))
                .run()
                // bbc-lint: allow(panic, run() has no error channel; churn budgets are sized above the pinned phases)
                .expect("cross-check fits the search budget");
            again.trajectory_digest == sim_report.trajectory_digest
        } else {
            true
        };
        determinism_ok &= deterministic;

        let applied = sim_report.events.len() as u32 == point.events;
        all_events_applied &= applied;
        let joins = sim_report
            .events
            .iter()
            .filter(|e| matches!(e.event, bbc_core::ChurnEvent::Join { .. }))
            .count();
        let leaves = sim_report.events.len() - joins;
        let settled = sim_report.events.iter().filter(|e| e.settled).count() as u64;
        let looped = sim_report.events.iter().filter(|e| e.looped).count() as u64;
        total_events += sim_report.events.len() as u64;
        total_settled += settled;
        total_looped += looped;

        table.row_raw(
            &[
                point.peers.to_string(),
                point.rate.to_string(),
                sim_report.events.len().to_string(),
                format!("{joins}/{leaves}"),
                settled.to_string(),
                looped.to_string(),
                format!("{:.1}", sim_report.mean_steps_to_requilibrate()),
                sim_report.max_steps_to_requilibrate().to_string(),
                sim_report.total_regret().to_string(),
                sim_report.max_disconnected().to_string(),
                sim_report.all_exposure_healed().to_string(),
                format!("{:016x}", sim_report.trajectory_digest),
            ],
            &[
                applied.to_string(),
                deterministic.to_string(),
                sim_report.events.len().to_string(),
                settled.to_string(),
                looped.to_string(),
            ],
        );
    }

    let agrees = all_events_applied && determinism_ok && total_events > 0;
    let measured = format!(
        "{total_events} churn events applied across {} sweep points \
         ({total_settled} re-equilibrated, {total_looped} certified loops); \
         replayed trajectories byte-identical: {determinism_ok}",
        points.len()
    );
    let mut outcome = finish_streamed(report, table, measured, agrees);
    outcome.report.notes.push(
        "each event's re-equilibration runs rate·n best-response steps through the \
         engine's node-lifecycle layer (DistanceEngine::remove_node/add_node); the \
         trajectory digest pins the full event/move stream"
            .to_string(),
    );
    outcome
}

/// CLI entry point.
pub fn cli() {
    let outcome = run(&RunOptions::from_env());
    crate::emit(&outcome);
}
