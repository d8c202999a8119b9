//! `overlay512_walk`: the e13 512-peer sweep point, run from cold.
//!
//! A round-robin best-response walk on the designed circulant{1,23}
//! overlay with the default engine (auto row tier, `LandmarkPolicy::Auto`,
//! no cycle detection). The seed rotates the round-robin order; seed 0 is
//! the identity order e13 uses.
//!
//! e13 spreads each test's oracle fan-out over every core
//! (`Walk::prefill_threads`). The measured walks keep the serial oracle
//! path: on a small shared VM the second thread mostly waits for the
//! hypervisor, which made parallel timings swing by up to 3x between runs.
//! The traced run times the parallel path once, as
//! `dynamics.prefill_speedup`.

use std::time::{Duration, Instant};

use bbc_constructions::CayleyGraph;
use bbc_core::{
    BestResponseOptions, Configuration, DistanceEngine, EngineStats, GameSpec, LandmarkPolicy,
    NodeId, Scheduler, Walk, WalkOutcome,
};

use crate::common::{
    available_parallelism, check_digest, median, micros, millis, peak_rss_mib, percentile,
    put_trace_summary, secs, HostSpeed, Metrics, Opts, Outcome, Repetitions, PROBES_PER_SIDE,
    SETUP_SAMPLES,
};

pub const NAME: &str = "overlay512_walk";
const PEERS: u64 = 512;
const OFFSETS: [u64; 2] = [1, 23];
/// Stability tests per cold walk.
const STEPS: u64 = 128;
/// Nodes whose deviation rows the row-fill probe builds on a side engine.
const ROW_FILL_NODES: usize = 8;

fn overlay() -> (GameSpec, Configuration) {
    let overlay = CayleyGraph::circulant(PEERS, &OFFSETS).expect("512 admits circulant{1,23}");
    (overlay.spec(), overlay.configuration())
}

/// The round-robin order for `seed`: e13's identity order rotated by
/// `seed` places. The circulant is vertex-transitive, so every rotation
/// plays the same kind of walk on relabelled peers: seeds change the inputs
/// and the digests but not the amount of work. (Shuffled orders were tried
/// and cost up to 1.6x more or less per step than the identity order.)
fn order(seed: u64) -> Vec<NodeId> {
    let n = PEERS as usize;
    let shift = (seed % PEERS) as usize;
    (0..n).map(|i| NodeId::new((i + shift) % n)).collect()
}

/// Everything the run compares between repetitions of the same seed.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Effort {
    digest: u64,
    steps: u64,
    moves: u64,
    bounds_hit: u64,
    rows_materialized: u64,
    engine: EngineStats,
}

impl Effort {
    fn of(walk: &Walk<'_>) -> Self {
        let stats = walk.stats();
        Self {
            digest: walk.state_digest(),
            steps: stats.steps,
            moves: stats.moves,
            bounds_hit: stats.bounds_hit,
            rows_materialized: stats.rows_materialized,
            engine: walk.engine_stats(),
        }
    }

    fn print(&self) {
        let e = &self.engine;
        println!(
            "counters: steps={} moves={} bounds_hit={} rows_materialized={} searches_run={} \
             outcome_hits={} oracle_rows_computed={} oracle_row_hits={} \
             landmark_rows_computed={} rows_invalidated={} patches_applied={} \
             eval_rows_computed={}",
            self.steps,
            self.moves,
            self.bounds_hit,
            self.rows_materialized,
            e.searches_run,
            e.outcome_hits,
            e.oracle_rows_computed,
            e.oracle_row_hits,
            e.landmark_rows_computed,
            e.rows_invalidated,
            e.patches_applied,
            e.eval_rows_computed
        );
    }
}

/// The walk as e13 builds it, with its oracle fan-out on `threads` threads.
fn new_walk<'a>(
    spec: &'a GameSpec,
    designed: Configuration,
    order: &[NodeId],
    threads: usize,
) -> Walk<'a> {
    Walk::new(spec, designed)
        .detect_cycles(false)
        .prefill_threads(threads)
        .with_scheduler(Scheduler::RoundRobinOrder(order.to_vec()))
}

/// One cold walk, stepped one stability test at a time so each test's
/// latency is observed. With `speed`, the host probe runs between tests and
/// the walk time leaves it out. Returns (walk time, per-step times, effort).
fn cold_walk(
    order: &[NodeId],
    threads: usize,
    mut speed: Option<&mut HostSpeed>,
) -> (Duration, Vec<f64>, Effort) {
    let (spec, designed) = overlay();
    let mut walk = new_walk(&spec, designed, order, threads);
    let mut step_us = Vec::with_capacity(STEPS as usize);
    let mut probing = Duration::ZERO;
    let t1 = Instant::now();
    for k in 1..=STEPS {
        let t = Instant::now();
        let outcome = walk
            .run(k)
            .expect("the default budget fits a 512-peer search");
        step_us.push(micros(t.elapsed()));
        if let Some(speed) = speed.as_deref_mut() {
            probing += speed.tick();
        }
        if !matches!(outcome, WalkOutcome::StepLimit { .. }) {
            break;
        }
    }
    let wall = t1.elapsed() - probing;
    (wall, step_us, Effort::of(&walk))
}

/// The walk's final digest under exact search (the reference the recorded
/// digests come from).
pub fn exact_digest(seed: u64) -> u64 {
    let (spec, designed) = overlay();
    let mut walk = new_walk(&spec, designed, &order(seed), 1).with_landmarks(LandmarkPolicy::Off);
    walk.run(STEPS)
        .expect("the default budget fits a 512-peer search");
    walk.state_digest()
}

pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        return run_traced(opts);
    }
    let order = order(opts.seed);
    let start = Instant::now();
    let deadline = opts.deadline(start);
    let mut speed = HostSpeed::new();
    speed.probe(PROBES_PER_SIDE);
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let (spec, designed) = overlay();
            let walk = new_walk(&spec, designed, &order, 1);
            let setup = secs(t.elapsed());
            drop(walk);
            speed.tick();
            setup
        })
        .collect();
    speed.probe(PROBES_PER_SIDE);
    let setup_speed = speed.take();
    let mut reps = Repetitions::default();
    let mut efforts: Vec<Effort> = Vec::new();
    while efforts.len() < 2 || Instant::now() < deadline {
        let (wall, steps, effort) = cold_walk(&order, 1, Some(&mut speed));
        reps.push(effort.steps as f64 / secs(wall), steps, speed.take());
        efforts.push(effort);
    }
    let rss = peak_rss_mib("self").unwrap_or(0.0);

    let first = &efforts[0];
    first.print();
    let failed_reps = efforts.iter().filter(|e| *e != first).count() as u64;
    if failed_reps > 0 {
        println!(
            "MISMATCH: {failed_reps} repetitions disagree with the first on digest or counters"
        );
    }
    let digest_ok = check_digest(NAME, opts.seed, first.digest, || exact_digest(opts.seed));
    println!(
        "reps={} steps_per_rep={} available_parallelism={}",
        efforts.len(),
        first.steps,
        available_parallelism(),
    );

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups) * setup_speed, "s");
    reps.put(&mut metrics);
    metrics.put("peak_rss_mb", rss, "MiB");
    let steps_per_rep = first.steps;
    Outcome {
        correct: digest_ok && failed_reps == 0,
        attempted: steps_per_rep * efforts.len() as u64,
        failed: steps_per_rep * failed_reps + if digest_ok { 0 } else { steps_per_rep },
        metrics,
    }
}

/// The traced run: the same walk once untraced through `Walk`, once as a
/// `DistanceEngine` loop with every engine call timed, once untraced on the
/// parallel oracle path, then the row-fill probe on a side engine.
fn run_traced(opts: &Opts) -> Outcome {
    let order = order(opts.seed);
    let (untraced_wall, _, walk_effort) = cold_walk(&order, 1, None);

    let (spec, designed) = overlay();
    let options = BestResponseOptions::default();
    let mut engine = DistanceEngine::new(&spec, designed.clone());
    let t0 = Instant::now();
    // `Walk::run` records connectivity once before its first step.
    engine.is_strongly_connected();
    let (mut br, mut apply) = (Duration::ZERO, Duration::ZERO);
    let mut step_us = Vec::new();
    let (mut steps, mut moves, mut streak) = (0u64, 0u64, 0usize);
    let (mut evaluations, mut bounds_hit, mut rows_materialized, mut candidates) = (0, 0, 0, 0);
    let mut pos = 0;
    while steps < STEPS {
        let u = order[pos];
        pos = (pos + 1) % order.len();
        let t = Instant::now();
        let out = engine
            .best_response(u, &options)
            .expect("the default budget fits a 512-peer search");
        br += t.elapsed();
        evaluations += out.evaluations;
        bounds_hit += out.bounds_hit;
        rows_materialized += out.rows_materialized;
        candidates += engine.live_count() as u64 - 1;
        steps += 1;
        if out.improves() {
            let ta = Instant::now();
            engine
                .apply_strategy(u, out.best_strategy)
                .expect("a best response is a valid strategy");
            apply += ta.elapsed();
            moves += 1;
            streak = 0;
        } else {
            streak += 1;
        }
        step_us.push(micros(t.elapsed()));
        if streak >= engine.live_count() {
            break;
        }
    }
    let traced_wall = t0.elapsed();
    let stats = engine.stats();
    let traced_effort = Effort {
        digest: engine.state_digest(),
        steps,
        moves,
        bounds_hit,
        rows_materialized,
        engine: stats,
    };
    let replay_ok = traced_effort == walk_effort;
    walk_effort.print();
    println!(
        "traced engine loop vs untraced walk (digest and counters): {}",
        if replay_ok { "ok" } else { "MISMATCH" }
    );
    let (parallel_wall, _, parallel) = cold_walk(&order, available_parallelism(), None);
    let parallel_ok = parallel.digest == walk_effort.digest;
    println!(
        "parallel oracle path ({} threads) vs serial digest: {}",
        available_parallelism(),
        if parallel_ok { "ok" } else { "MISMATCH" }
    );
    let digest_ok = check_digest(NAME, opts.seed, walk_effort.digest, || {
        exact_digest(opts.seed)
    }) && parallel_ok;

    // Row fill on a side engine: every deviation row of a few nodes.
    let mut side = DistanceEngine::new(&spec, designed);
    let t = Instant::now();
    let rows: usize = order[..ROW_FILL_NODES]
        .iter()
        .map(|&u| side.prefill_oracle_rows(&[u], 1))
        .sum();
    let row_fill = t.elapsed();

    let layer_sum = br + apply;
    let mut m = Metrics::default();
    m.put("engine.best_response_ms", millis(br), "ms");
    m.put("engine.apply_strategy_ms", millis(apply), "ms");
    m.put(
        "engine.row_fill_us_per_row",
        micros(row_fill) / rows.max(1) as f64,
        "us",
    );
    put_engine_counters(&mut m, &stats);
    m.put("best_response.evaluations", evaluations as f64, "count");
    m.put("best_response.bounds_hit", bounds_hit as f64, "count");
    m.put(
        "best_response.rows_materialized",
        rows_materialized as f64,
        "count",
    );
    m.put(
        "best_response.rows_materialized_per_candidate",
        rows_materialized as f64 / candidates.max(1) as f64,
        "ratio",
    );
    m.put("dynamics.step_us_p50", percentile(&step_us, 0.50), "us");
    m.put("dynamics.step_us_p99", percentile(&step_us, 0.99), "us");
    m.put("dynamics.steps", steps as f64, "count");
    m.put("dynamics.moves", moves as f64, "count");
    m.put(
        "dynamics.prefill_speedup",
        secs(untraced_wall) / secs(parallel_wall),
        "ratio",
    );
    put_trace_summary(
        &mut m,
        traced_wall,
        layer_sum,
        millis(traced_wall) - millis(untraced_wall),
    );
    Outcome {
        correct: replay_ok && digest_ok,
        attempted: steps,
        failed: if replay_ok && digest_ok { 0 } else { steps },
        metrics: m,
    }
}

/// The engine effort counters under their per-layer names.
pub fn put_engine_counters(m: &mut Metrics, s: &EngineStats) {
    m.put("engine.searches_run", s.searches_run as f64, "count");
    m.put("engine.outcome_hits", s.outcome_hits as f64, "count");
    m.put(
        "engine.oracle_rows_computed",
        s.oracle_rows_computed as f64,
        "count",
    );
    m.put("engine.oracle_row_hits", s.oracle_row_hits as f64, "count");
    m.put(
        "engine.landmark_rows_computed",
        s.landmark_rows_computed as f64,
        "count",
    );
    m.put(
        "engine.rows_invalidated",
        s.rows_invalidated as f64,
        "count",
    );
    m.put("engine.patches_applied", s.patches_applied as f64, "count");
    m.put(
        "engine.eval_rows_computed",
        s.eval_rows_computed as f64,
        "count",
    );
    let looked_up = s.oracle_row_hits + s.oracle_rows_computed;
    m.put(
        "engine.row_reuse_share",
        s.oracle_row_hits as f64 / looked_up.max(1) as f64,
        "ratio",
    );
}
