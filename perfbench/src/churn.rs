//! `churn128_e14`: the e14 sweep point, replayed under relabellings.
//!
//! `ChurnSim` on circulant{1,11} with 128 peers, `settle_steps = 4·n`, 8
//! join/leave events and e14's seed for the point (`ChurnConfig::seed` =
//! 1284). One `ChurnSim::run` per run gives the event list, and its
//! trajectory digest is checked. The list is then replayed through `Walk`'s
//! public calls, one stability test at a time, for the throughput and the
//! per-test latency, with the host probe between tests (see `HostSpeed`).
//! Settling is 99.6% of a sim, and the replay makes the same `Walk` calls.
//!
//! The seed rotates every peer label of the replay, in its events and in
//! its round-robin order, by `seed` places; seed 0 replays the sim itself
//! and must reproduce its report. The circulant is vertex-transitive, so
//! every rotation replays the same membership history on relabelled peers
//! and does the same work up to tie-breaks and landmark picks (the step
//! count is the same; moves and rows stay within 1%). Distinct e14 seeds
//! were tried first: their event lists differ in how many peers are live,
//! which moved the throughput by 10% and the median test time by 17%
//! between seeds.
//!
//! e14 runs its sims with `prefill_threads` set to every core; the measured
//! runs keep the serial oracle path for the reason given in `walk.rs`. The
//! traced run times one parallel sim as `dynamics.prefill_speedup`.

use std::time::{Duration, Instant};

use bbc_constructions::CayleyGraph;
use bbc_core::churn::EventRecord;
use bbc_core::{
    ChurnConfig, ChurnEvent, ChurnReport, ChurnSim, Configuration, EngineStats, GameSpec,
    LandmarkPolicy, NodeId, Scheduler, Walk, WalkOutcome, WalkStats,
};

use crate::common::{
    available_parallelism, check_digest, median, micros, millis, peak_rss_mib, percentile,
    put_trace_summary, secs, HostSpeed, Metrics, Opts, Outcome, Repetitions, PROBES_PER_SIDE,
    SETUP_SAMPLES,
};

pub const NAME: &str = "churn128_e14";
const PEERS: u64 = 128;
const OFFSETS: [u64; 2] = [1, 11];
const EVENTS: u32 = 8;
/// e14's seed for this point is `10·n + rate` with rate 4.
const E14_SEED: u64 = 1284;
/// The name the sim's recorded trajectory digest is filed under.
const SIM_RECORD: &str = "churn128_e14.sim";

fn overlay() -> (GameSpec, Configuration) {
    let overlay = CayleyGraph::circulant(PEERS, &OFFSETS).expect("128 admits circulant{1,11}");
    (overlay.spec(), overlay.configuration())
}

fn config(prefill_threads: usize) -> ChurnConfig {
    ChurnConfig {
        seed: E14_SEED,
        events: EVENTS,
        min_live: (PEERS / 2) as usize,
        settle_steps: 4 * PEERS,
        leave_weight: 1,
        join_weight: 1,
        shock_weight: 0,
        prefill_threads,
        scheduler: Scheduler::RoundRobin,
    }
}

/// A run's report, the counters its walk ended with, and its wall time.
struct SimRun {
    report: ChurnReport,
    stats: WalkStats,
    engine: EngineStats,
    wall: Duration,
}

fn simulate(policy: LandmarkPolicy, threads: usize) -> SimRun {
    let (spec, designed) = overlay();
    let mut sim = ChurnSim::new(&spec, designed, config(threads)).with_landmarks(policy);
    let t = Instant::now();
    let report = sim.run().expect("e14 phases fit the search budget");
    let wall = t.elapsed();
    SimRun {
        report,
        stats: sim.walk().stats().clone(),
        engine: sim.walk().engine_stats(),
        wall,
    }
}

/// Whether two runs played the same trajectory with the same effort. A
/// replay leaves `trajectory_digest` at 0; every field the digest folds is
/// compared directly.
fn same_run(a: &SimRun, b: &SimRun) -> bool {
    let report = |r: &ChurnReport| ChurnReport {
        trajectory_digest: 0,
        ..r.clone()
    };
    report(&a.report) == report(&b.report) && a.stats == b.stats && a.engine == b.engine
}

/// The sim's trajectory digest under exact search.
fn exact_sim_digest() -> u64 {
    simulate(LandmarkPolicy::Off, 1).report.trajectory_digest
}

/// The final state digest of the replay for `seed` under exact search (the
/// reference the recorded digests come from).
pub fn exact_digest(seed: u64) -> u64 {
    let sim = simulate(LandmarkPolicy::Off, 1);
    replay(&sim.report.events, seed, LandmarkPolicy::Off, false, None)
        .run
        .report
        .state_digest
}

/// The records a `--record` of `first..=last` prints: the sim's trajectory
/// digest, then each seed's replay digest.
pub fn record(first: u64, last: u64) -> Vec<(String, u64, u64)> {
    let sim = simulate(LandmarkPolicy::Off, 1);
    let mut records = vec![(SIM_RECORD.to_string(), 0, sim.report.trajectory_digest)];
    for seed in first..=last {
        let r = replay(&sim.report.events, seed, LandmarkPolicy::Off, false, None);
        records.push((NAME.to_string(), seed, r.run.report.state_digest));
    }
    records
}

/// Time spent in each layer of one replay (filled only when traced).
#[derive(Default)]
struct Layers {
    membership: Duration,
    eval: Duration,
    settle: Duration,
}

/// One replay of the sim's event list.
struct Replay {
    run: SimRun,
    step_us: Vec<f64>,
    layers: Layers,
}

/// Times `f` into `slot` when tracing.
fn timed<T>(traced: bool, slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !traced {
        return f();
    }
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

/// Settles like `ChurnSim` does — at most `settle_steps` further tests —
/// but one test per `Walk::run` call, timing each and ticking `probe`.
fn settle(
    walk: &mut Walk<'_>,
    budget: u64,
    step_us: &mut Vec<f64>,
    probe: &mut Probing<'_>,
) -> WalkOutcome {
    let target = walk.stats().steps + budget;
    loop {
        let steps = walk.stats().steps;
        if steps >= target {
            return WalkOutcome::StepLimit { steps };
        }
        let t = Instant::now();
        let outcome = walk
            .run(steps + 1)
            .expect("e14 phases fit the search budget");
        step_us.push(micros(t.elapsed()));
        probe.tick();
        if !matches!(outcome, WalkOutcome::StepLimit { .. }) {
            return outcome;
        }
    }
}

/// The host probe of a measured replay, and the time it took.
struct Probing<'s> {
    speed: Option<&'s mut HostSpeed>,
    spent: Duration,
}

impl Probing<'_> {
    fn tick(&mut self) {
        if let Some(speed) = self.speed.as_deref_mut() {
            self.spent += speed.tick();
        }
    }
}

/// `event` with every peer label rotated by `shift` places.
fn rotate(event: &ChurnEvent, shift: usize) -> ChurnEvent {
    let n = PEERS as usize;
    let rot = |u: &NodeId| NodeId::new((u.index() + shift) % n);
    match event {
        ChurnEvent::Leave { node } => ChurnEvent::Leave { node: rot(node) },
        ChurnEvent::Join { node, strategy } => ChurnEvent::Join {
            node: rot(node),
            strategy: strategy.iter().map(rot).collect(),
        },
        ChurnEvent::Shock { node, strategy } => ChurnEvent::Shock {
            node: rot(node),
            strategy: strategy.iter().map(rot).collect(),
        },
    }
}

/// Replays `events` with every label rotated by `seed` places, under
/// `policy`. Times each layer when `traced`, and probes the host between
/// tests when given `speed` (the replay's wall time leaves the probes out).
fn replay(
    events: &[EventRecord],
    seed: u64,
    policy: LandmarkPolicy,
    traced: bool,
    speed: Option<&mut HostSpeed>,
) -> Replay {
    let (spec, designed) = overlay();
    let cfg = config(1);
    let n = PEERS as usize;
    let shift = (seed % PEERS) as usize;
    let order = (0..n).map(|i| NodeId::new((i + shift) % n)).collect();
    let mut walk = Walk::new(&spec, designed)
        .with_scheduler(Scheduler::RoundRobinOrder(order))
        .with_landmarks(policy);
    let budget = cfg.settle_steps;
    let mut layers = Layers::default();
    let mut step_us = Vec::new();
    let mut probe = Probing {
        speed,
        spent: Duration::ZERO,
    };
    let t1 = Instant::now();

    let initial = timed(traced, &mut layers.settle, || {
        settle(&mut walk, budget, &mut step_us, &mut probe)
    });
    let initial_steps = walk.stats().steps;
    let mut records = Vec::with_capacity(events.len());
    for event in events.iter().map(|e| rotate(&e.event, shift)) {
        let cost_before = timed(traced, &mut layers.eval, || walk.social_cost());
        timed(traced, &mut layers.membership, || match &event {
            ChurnEvent::Leave { node } => walk.remove_node(*node),
            ChurnEvent::Join { node, strategy } => walk.add_node(*node, strategy.clone()),
            ChurnEvent::Shock { node, strategy } => walk.shock_node(*node, strategy.clone()),
        })
        .expect("the sim applied this event to the same state");
        let (cost_spike, disconnected_after_event) = timed(traced, &mut layers.eval, || {
            (walk.social_cost(), walk.disconnected_live_pairs())
        });
        let (steps_before, moves_before) = (walk.stats().steps, walk.stats().moves);
        let outcome = timed(traced, &mut layers.settle, || {
            settle(&mut walk, budget, &mut step_us, &mut probe)
        });
        let (cost_settled, disconnected_settled) = timed(traced, &mut layers.eval, || {
            (walk.social_cost(), walk.disconnected_live_pairs())
        });
        records.push(EventRecord {
            event,
            live_after: walk.live_count() as u32,
            cost_before,
            cost_spike,
            disconnected_after_event,
            steps_to_requilibrate: walk.stats().steps - steps_before,
            moves: walk.stats().moves - moves_before,
            settled: matches!(outcome, WalkOutcome::Equilibrium { .. }),
            looped: matches!(outcome, WalkOutcome::Cycle { .. }),
            cost_settled,
            disconnected_settled,
            regret: cost_spike as i64 - cost_settled as i64,
        });
    }
    let final_social_cost = timed(traced, &mut layers.eval, || walk.social_cost());
    let wall = t1.elapsed() - probe.spent;
    let report = ChurnReport {
        initial_steps,
        initial_settled: matches!(initial, WalkOutcome::Equilibrium { .. }),
        events: records,
        final_live: walk.live_count() as u32,
        final_social_cost,
        state_digest: walk.state_digest(),
        trajectory_digest: 0,
    };
    Replay {
        run: SimRun {
            report,
            stats: walk.stats().clone(),
            engine: walk.engine_stats(),
            wall,
        },
        step_us,
        layers,
    }
}

fn print_counters(run: &SimRun) {
    let (stats, e, report) = (&run.stats, &run.engine, &run.report);
    let settled = report.events.iter().filter(|e| e.settled).count();
    let looped = report.events.iter().filter(|e| e.looped).count();
    println!(
        "counters: steps={} moves={} bounds_hit={} rows_materialized={} searches_run={} \
         outcome_hits={} oracle_rows_computed={} oracle_row_hits={} landmark_rows_computed={} \
         rows_invalidated={} patches_applied={} eval_rows_computed={} settled_phases={settled} \
         looped_phases={looped}",
        stats.steps,
        stats.moves,
        stats.bounds_hit,
        stats.rows_materialized,
        e.searches_run,
        e.outcome_hits,
        e.oracle_rows_computed,
        e.oracle_row_hits,
        e.landmark_rows_computed,
        e.rows_invalidated,
        e.patches_applied,
        e.eval_rows_computed,
    );
}

/// Checks the sim against its recorded trajectory digest, and a replay
/// against the sim (seed 0 replays it unrotated) and against the recorded
/// or exact digest of its seed.
fn check(seed: u64, sim: &SimRun, replayed: &SimRun) -> bool {
    let sim_ok = check_digest(
        SIM_RECORD,
        0,
        sim.report.trajectory_digest,
        exact_sim_digest,
    );
    let unrotated_ok = seed % PEERS != 0 || same_run(replayed, sim);
    if !unrotated_ok {
        println!("MISMATCH: the unrotated replay diverges from ChurnSim's report or counters");
    }
    let digest = replayed.report.state_digest;
    let digest_ok = check_digest(NAME, seed, digest, || exact_digest(seed));
    sim_ok && unrotated_ok && digest_ok
}

pub fn run(opts: &Opts) -> Outcome {
    let start = Instant::now();
    let sim = simulate(LandmarkPolicy::Auto, 1);
    println!("ChurnSim::run took {:.3} s", secs(sim.wall));
    if opts.trace {
        return run_traced(opts, &sim);
    }
    let deadline = opts.deadline(start);
    let mut speed = HostSpeed::new();
    speed.probe(PROBES_PER_SIDE);
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let (spec, designed) = overlay();
            let sim = ChurnSim::new(&spec, designed, config(1));
            let setup = secs(t.elapsed());
            drop(sim);
            speed.tick();
            setup
        })
        .collect();
    speed.probe(PROBES_PER_SIDE);
    let setup_speed = speed.take();
    // A replay takes seconds, so the deadline is checked between replays;
    // at least three give the medians something to take. Every replay must
    // reproduce the first one's report and counters.
    let mut reps = Repetitions::default();
    let mut first: Option<SimRun> = None;
    let mut failed_reps = 0u64;
    while reps.len() < 3 || Instant::now() < deadline {
        let r = replay(
            &sim.report.events,
            opts.seed,
            LandmarkPolicy::Auto,
            false,
            Some(&mut speed),
        );
        reps.push(
            r.run.stats.steps as f64 / secs(r.run.wall),
            r.step_us,
            speed.take(),
        );
        match &first {
            None => first = Some(r.run),
            Some(first) if !same_run(&r.run, first) => {
                failed_reps += 1;
                println!("MISMATCH: a replay disagrees with the first on report or counters");
            }
            Some(_) => {}
        }
    }
    let first = first.expect("at least one replay ran");
    let rss = peak_rss_mib("self").unwrap_or(0.0);
    print_counters(&first);
    let checks_ok = check(opts.seed, &sim, &first);
    println!(
        "replays={} steps_per_rep={} available_parallelism={}",
        reps.len(),
        first.stats.steps,
        available_parallelism()
    );

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups) * setup_speed, "s");
    reps.put(&mut metrics);
    metrics.put("peak_rss_mb", rss, "MiB");
    let steps = first.stats.steps;
    Outcome {
        correct: checks_ok && failed_reps == 0,
        attempted: steps * reps.len() as u64 + sim.stats.steps,
        failed: steps * failed_reps + if checks_ok { 0 } else { steps },
        metrics,
    }
}

/// The traced run: one untraced replay, then one with every membership,
/// evaluation and settle call timed, then one sim on the parallel oracle
/// path.
fn run_traced(opts: &Opts, sim: &SimRun) -> Outcome {
    let untraced = replay(
        &sim.report.events,
        opts.seed,
        LandmarkPolicy::Auto,
        false,
        None,
    );
    let traced = replay(
        &sim.report.events,
        opts.seed,
        LandmarkPolicy::Auto,
        true,
        None,
    );
    let parallel = simulate(LandmarkPolicy::Auto, available_parallelism());
    let replay_ok = same_run(&traced.run, &untraced.run) && parallel.report == sim.report;
    print_counters(&traced.run);
    println!(
        "traced vs untraced replay (report and counters), parallel sim report: {}",
        if replay_ok { "ok" } else { "MISMATCH" }
    );
    let digest_ok = check(opts.seed, sim, &untraced.run);

    let l = &traced.layers;
    let run = &traced.run;
    let mut m = Metrics::default();
    crate::walk::put_engine_counters(&mut m, &run.engine);
    m.put(
        "best_response.bounds_hit",
        run.stats.bounds_hit as f64,
        "count",
    );
    m.put(
        "best_response.rows_materialized",
        run.stats.rows_materialized as f64,
        "count",
    );
    m.put(
        "dynamics.step_us_p50",
        percentile(&traced.step_us, 0.50),
        "us",
    );
    m.put(
        "dynamics.step_us_p99",
        percentile(&traced.step_us, 0.99),
        "us",
    );
    m.put("dynamics.steps", run.stats.steps as f64, "count");
    m.put("dynamics.moves", run.stats.moves as f64, "count");
    m.put(
        "dynamics.prefill_speedup",
        secs(sim.wall) / secs(parallel.wall),
        "ratio",
    );
    m.put("churn.membership_ms", millis(l.membership), "ms");
    m.put("churn.eval_ms", millis(l.eval), "ms");
    m.put("churn.settle_ms", millis(l.settle), "ms");
    m.put(
        "churn.settled_phases",
        run.report.events.iter().filter(|e| e.settled).count() as f64,
        "count",
    );
    m.put(
        "churn.looped_phases",
        run.report.events.iter().filter(|e| e.looped).count() as f64,
        "count",
    );
    put_trace_summary(
        &mut m,
        run.wall,
        l.membership + l.eval + l.settle,
        millis(run.wall) - millis(untraced.run.wall),
    );
    let steps = run.stats.steps;
    let ok = replay_ok && digest_ok;
    Outcome {
        correct: ok,
        attempted: steps,
        failed: if ok { 0 } else { steps },
        metrics: m,
    }
}
