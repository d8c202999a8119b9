//! `serve_mixed`: the release `bbc-serve` daemon behind its Unix socket.
//!
//! Default `ServeConfig` (32 peers, k = 2) with a state directory, driven by
//! one closed-loop `Client` on one connection. A run is a series of rounds;
//! each boots a fresh daemon, sends the seeded mix of reads and journaled
//! writes, checks the daemon's digest against `oracle_digest` of the frames
//! it accepted, stops it cleanly, and reboots it with `--restore`, which must
//! come back with the same digest.

use std::fs::{self, File};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bbc_core::EngineStats;
use bbc_serve::protocol::{decode_request, encode_line};
use bbc_serve::service::{oracle_digest, Dispatch, ServeConfig, Service};
use bbc_serve::socket::Client;
use bbc_serve::{Op, Probe, Reply, RequestFrame};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde_json::Value;

use crate::common::{
    available_parallelism, median, micros, millis, percentile, put_trace_summary, secs, HostSpeed,
    Metrics, Opts, Outcome, Repetitions, PROBES_PER_SIDE,
};

/// Requests per round, and the warm-up prefix of each round that is left
/// out of latency and throughput.
const REQUESTS: usize = 3000;
const WARMUP: usize = 200;
/// Leaves stop at this many live peers.
const MIN_LIVE: usize = 16;
/// How long a daemon may take to answer its first request or to exit.
const PATIENCE: Duration = Duration::from_secs(20);
/// Passes of the codec probe over the run's frames.
const CODEC_PASSES: usize = 5;
const LOGICAL_CLIENT: u64 = 1;
/// The seed of the traffic generator. The run's own seed rotates the peer
/// labels of that traffic instead: the daemon starts from the empty
/// configuration, which every relabelling maps to itself, so rotations do
/// the same work up to tie-breaks (oracle rows within 1%). Distinct traffic
/// seeds built up to 27% more oracle rows than one another.
const TRAFFIC_SEED: u64 = 0;

/// The op kinds of the mix, as the daemon labels its latency histograms.
const KINDS: [&str; 6] = ["query", "advise", "leave", "join", "shock", "step"];

fn kind(op: &Op) -> usize {
    match op {
        Op::Query(_) => 0,
        Op::Advise { .. } => 1,
        Op::Leave { .. } => 2,
        Op::Join { .. } => 3,
        Op::Shock { .. } => 4,
        _ => 5,
    }
}

/// The seeded traffic mix. Op weights, strategy lengths and step counts are
/// those of `bbc_serve::loadgen` (20% Query, 15% Advise, 20% Leave, 20%
/// Join, 10% Shock, 15% Step of 1..=32 tests), with the probes this workload
/// names: NodeCost, SocialCost, DisconnectedPairs and Digest. Unlike the
/// loadgen, membership is tracked from the daemon's replies, so leaves,
/// advice and cost queries name live peers, joins name departed ones, and
/// every strategy links live targets only.
struct Traffic {
    rng: SmallRng,
    live: Vec<bool>,
    budget: usize,
}

impl Traffic {
    fn new(cfg: &ServeConfig) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(TRAFFIC_SEED),
            live: vec![true; cfg.peers],
            budget: cfg.budget as usize,
        }
    }

    fn pick(&mut self, live: bool) -> u32 {
        let nodes: Vec<usize> = (0..self.live.len())
            .filter(|&v| self.live[v] == live)
            .collect();
        nodes[self.rng.gen_range(0..nodes.len())] as u32
    }

    /// 1 to `min(budget, 3)` distinct live targets other than `node`,
    /// ascending.
    fn strategy(&mut self, node: u32) -> Vec<u32> {
        let len = self.rng.gen_range(1..=self.budget.min(3));
        let mut pool: Vec<u32> = (0..self.live.len() as u32)
            .filter(|&v| v != node && self.live[v as usize])
            .collect();
        let mut picks = Vec::new();
        while picks.len() < len && !pool.is_empty() {
            picks.push(pool.swap_remove(self.rng.gen_range(0..pool.len())));
        }
        picks.sort_unstable();
        picks
    }

    fn next_op(&mut self) -> Op {
        let live = self.live.iter().filter(|&&l| l).count();
        let can_leave = live > MIN_LIVE;
        let can_join = live < self.live.len();
        match self.rng.gen_range(0..100u32) {
            0..=19 => Op::Query(match self.rng.gen_range(0..4u32) {
                0 => Probe::SocialCost,
                1 => Probe::DisconnectedPairs,
                2 => Probe::Digest,
                _ => Probe::NodeCost {
                    node: self.pick(true),
                },
            }),
            20..=34 => Op::Advise {
                node: self.pick(true),
            },
            // Leaves and joins share a band: each turns into the other when
            // the membership is at its floor or full.
            roll @ 35..=74 if (roll <= 54 && can_leave) || !can_join => Op::Leave {
                node: self.pick(true),
            },
            35..=74 => {
                let node = self.pick(false);
                Op::Join {
                    node,
                    strategy: self.strategy(node),
                }
            }
            75..=84 => {
                let node = self.pick(true);
                Op::Shock {
                    node,
                    strategy: self.strategy(node),
                }
            }
            _ => Op::Step {
                steps: self.rng.gen_range(1u64..=32),
            },
        }
    }

    /// Follows an accepted membership change.
    fn observe(&mut self, op: &Op, reply: &Reply) {
        if !matches!(reply, Reply::Ok { .. }) {
            return;
        }
        match op {
            Op::Leave { node } => self.live[*node as usize] = false,
            Op::Join { node, .. } => self.live[*node as usize] = true,
            _ => {}
        }
    }
}

/// `op` with every peer label rotated by `shift` places.
fn rotate(op: &Op, shift: u32, peers: u32) -> Op {
    let r = |u: &u32| (u + shift) % peers;
    let rs = |s: &Vec<u32>| {
        let mut v: Vec<u32> = s.iter().map(r).collect();
        v.sort_unstable();
        v
    };
    match op {
        Op::Query(Probe::NodeCost { node }) => Op::Query(Probe::NodeCost { node: r(node) }),
        Op::Advise { node } => Op::Advise { node: r(node) },
        Op::Leave { node } => Op::Leave { node: r(node) },
        Op::Join { node, strategy } => Op::Join {
            node: r(node),
            strategy: rs(strategy),
        },
        Op::Shock { node, strategy } => Op::Shock {
            node: r(node),
            strategy: rs(strategy),
        },
        other => other.clone(),
    }
}

/// A spawned daemon; killed and reaped if dropped while still running.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(bin: &str, paths: &Paths, restore: bool) -> Self {
        let log = File::create(&paths.log).expect("the scratch directory is writable");
        let mut cmd = Command::new(bin);
        cmd.arg("--socket")
            .arg(&paths.socket)
            .arg("--state-dir")
            .arg(&paths.state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log));
        if restore {
            cmd.arg("--restore");
        }
        Self {
            child: cmd.spawn().expect("the bbc-serve binary starts"),
        }
    }

    /// Connects as soon as the daemon listens.
    fn connect(&mut self, socket: &Path) -> Client {
        let start = Instant::now();
        loop {
            if let Ok(client) = Client::connect(socket, LOGICAL_CLIENT) {
                return client;
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                panic!("bbc-serve exited before listening: {status}");
            }
            assert!(start.elapsed() < PATIENCE, "bbc-serve never listened");
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        crate::common::peak_rss_mib(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self, client: &mut Client) {
        // The daemon can exit before its `Bye` reaches the socket, so a
        // closed connection is as good an answer as `Bye`; the exit status
        // below is the check.
        let bye = client.request(Op::Shutdown);
        assert!(
            matches!(bye, Ok(Reply::Bye) | Err(_)),
            "shutdown refused: {bye:?}"
        );
        let start = Instant::now();
        while start.elapsed() < PATIENCE {
            if let Ok(Some(status)) = self.child.try_wait() {
                assert!(status.success(), "bbc-serve exited with {status}");
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("bbc-serve did not exit after shutdown");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn digest_of(client: &mut Client) -> Option<String> {
    match client.request(Op::Query(Probe::Digest)) {
        Ok(Reply::Digest { digest }) => Some(digest),
        _ => None,
    }
}

/// One round trip as the client saw it.
struct Sample {
    kind: usize,
    rtt_us: f64,
}

/// Everything one round measured.
struct Round {
    setup: Duration,
    /// Time of the requests after the warm-up prefix, and of all of them.
    measured: Duration,
    total: Duration,
    /// Round trips after the warm-up prefix.
    samples: Vec<Sample>,
    /// The frames the daemon accepted, in order.
    frames: Vec<RequestFrame>,
    sent: u64,
    rejected: u64,
    busy: u64,
    io_failures: u64,
    sent_by_kind: [u64; KINDS.len()],
    writes: u64,
    digest: Option<String>,
    peak_rss_mib: f64,
    journal_bytes: u64,
    restore: Duration,
    restored: Option<String>,
    metrics: Option<Value>,
}

impl Round {
    fn new(setup: Duration) -> Self {
        Self {
            setup,
            measured: Duration::ZERO,
            total: Duration::ZERO,
            samples: Vec::with_capacity(REQUESTS),
            frames: Vec::with_capacity(REQUESTS),
            sent: 0,
            rejected: 0,
            busy: 0,
            io_failures: 0,
            sent_by_kind: [0; KINDS.len()],
            writes: 0,
            digest: None,
            peak_rss_mib: 0.0,
            journal_bytes: 0,
            restore: Duration::ZERO,
            restored: None,
            metrics: None,
        }
    }
}

struct Paths {
    socket: PathBuf,
    state: PathBuf,
    log: PathBuf,
}

fn round(opts: &Opts, cfg: &ServeConfig, paths: &Paths) -> Round {
    let bin = opts
        .serve_bin
        .as_deref()
        .expect("--serve-bin is set for serve_mixed");
    let _ = fs::remove_dir_all(&paths.state);
    let t0 = Instant::now();
    let mut daemon = Daemon::spawn(bin, paths, false);
    let mut client = daemon.connect(&paths.socket);
    let boot_digest = digest_of(&mut client);
    let mut r = Round::new(t0.elapsed());
    assert!(boot_digest.is_some(), "no digest from a fresh daemon");

    let mut traffic = Traffic::new(cfg);
    let shift = (opts.seed % cfg.peers as u64) as u32;
    let start = Instant::now();
    let mut measured_from = start;
    for i in 0..REQUESTS {
        if i == WARMUP {
            measured_from = Instant::now();
        }
        let canonical = traffic.next_op();
        let op = rotate(&canonical, shift, cfg.peers as u32);
        let frame = RequestFrame {
            client: LOGICAL_CLIENT,
            seq: client.next_seq,
            op: op.clone(),
        };
        let k = kind(&op);
        r.sent += 1;
        r.sent_by_kind[k] += 1;
        let t = Instant::now();
        let reply = client.request(op.clone());
        let rtt = t.elapsed();
        match reply {
            Ok(Reply::Busy { .. }) => r.busy += 1,
            Ok(reply) => {
                if matches!(reply, Reply::Error { .. }) {
                    r.rejected += 1;
                }
                traffic.observe(&canonical, &reply);
                if op.mutates() {
                    r.writes += 1;
                }
                r.frames.push(frame);
                if i >= WARMUP {
                    r.samples.push(Sample {
                        kind: k,
                        rtt_us: micros(rtt),
                    });
                }
            }
            Err(e) => {
                println!("request failed: {e}");
                r.io_failures += 1;
                return r;
            }
        }
    }
    r.measured = measured_from.elapsed();
    r.total = start.elapsed();
    r.digest = digest_of(&mut client);
    if let Ok(Reply::Metrics { metrics }) = client.request(Op::Query(Probe::Metrics)) {
        r.metrics = Some(metrics);
    }
    r.peak_rss_mib = daemon.peak_rss_mib();
    daemon.stop(&mut client);
    r.journal_bytes = journal_bytes(&paths.state);

    let t1 = Instant::now();
    let mut restored = Daemon::spawn(bin, paths, true);
    let mut client = restored.connect(&paths.socket);
    r.restored = digest_of(&mut client);
    r.restore = t1.elapsed();
    restored.stop(&mut client);
    r
}

fn journal_bytes(state: &Path) -> u64 {
    fs::read_dir(state)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("journal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The daemon's deterministic effort counters (engine and walk) at the end
/// of a round.
fn effort(r: &Round) -> Vec<(String, u64)> {
    let counters = r.metrics.as_ref().and_then(|m| get(m, "counters"));
    counters
        .and_then(Value::as_map)
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| k.starts_with("engine/") || k.starts_with("walk/"))
        .filter_map(|(k, v)| match v {
            Value::U64(x) => Some((k.clone(), *x)),
            _ => None,
        })
        .collect()
}

/// Checks a round against the oracle digest of its frames and against the
/// first round's traffic and effort counters; returns the number of failed
/// checks.
fn verify(r: &Round, oracle: &str, first: &Round) -> u64 {
    let mut failed = 0;
    if r.digest.as_deref() != Some(oracle) {
        println!("MISMATCH: daemon digest {:?} vs oracle {oracle}", r.digest);
        failed += 1;
    }
    if r.restored != r.digest {
        println!(
            "MISMATCH: restored digest {:?} vs pre-stop {:?}",
            r.restored, r.digest
        );
        failed += 1;
    }
    if effort(r).is_empty() {
        println!("MISMATCH: the daemon's metrics document has no engine/ or walk/ counters");
        failed += 1;
    }
    if r.frames != first.frames || effort(r) != effort(first) {
        println!("MISMATCH: the round's traffic or effort counters differ from the first round's");
        failed += 1;
    }
    failed
}

fn scratch_paths(opts: &Opts) -> Paths {
    let dir = PathBuf::from(
        opts.scratch
            .as_deref()
            .expect("--scratch is set for serve_mixed"),
    );
    fs::create_dir_all(&dir).expect("the scratch directory is creatable");
    Paths {
        socket: dir.join("d.sock"),
        state: dir.join("state"),
        log: dir.join("daemon.log"),
    }
}

fn print_mix(rounds: &[Round]) {
    let sent: u64 = rounds.iter().map(|r| r.sent).sum();
    let rejected: u64 = rounds.iter().map(|r| r.rejected).sum();
    let mix: Vec<String> = KINDS
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let n: u64 = rounds.iter().map(|r| r.sent_by_kind[k]).sum();
            format!("{name}={:.3}", n as f64 / sent.max(1) as f64)
        })
        .collect();
    println!(
        "mix: {} rejected_share={:.4} available_parallelism={}",
        mix.join(" "),
        rejected as f64 / sent.max(1) as f64,
        available_parallelism()
    );
}

/// Requests sent, failures (Busy, I/O, failed checks), and whether every
/// check passed.
fn totals(rounds: &[Round], oracle: &str) -> (u64, u64, bool) {
    let first = &rounds[0];
    let sent = rounds.iter().map(|r| r.sent).sum();
    let mismatches: u64 = rounds.iter().map(|r| verify(r, oracle, first)).sum();
    let busy: u64 = rounds.iter().map(|r| r.busy).sum();
    let io: u64 = rounds.iter().map(|r| r.io_failures).sum();
    (sent, busy + io + mismatches, mismatches == 0 && io == 0)
}

fn rtts(samples: &[Sample], kinds: &[usize]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| kinds.contains(&s.kind))
        .map(|s| s.rtt_us)
        .collect()
}

pub fn run(opts: &Opts) -> Outcome {
    let paths = scratch_paths(opts);
    let cfg = ServeConfig {
        state_dir: Some(paths.state.clone()),
        ..ServeConfig::default()
    };
    if opts.trace {
        return run_traced(opts, &cfg, &paths);
    }
    let deadline = opts.deadline(Instant::now());
    let mut speed = HostSpeed::new();
    let mut rounds = Vec::new();
    let mut speeds = Vec::new();
    while rounds.len() < 3 || Instant::now() < deadline {
        // A round lasts under a second: probes on either side of it read
        // the host speed it ran at.
        speed.probe(PROBES_PER_SIDE);
        let r = round(opts, &cfg, &paths);
        speed.probe(PROBES_PER_SIDE);
        speeds.push(speed.take());
        let broken = r.io_failures > 0;
        rounds.push(r);
        if broken {
            break;
        }
    }
    let oracle = oracle_digest(&cfg, &rounds[0].frames).expect("the default config is valid");
    let (sent, failed, correct) = totals(&rounds, &oracle);
    print_mix(&rounds);
    let counters: Vec<String> = effort(&rounds[0])
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("counters: {}", counters.join(" "));
    let restores: Vec<f64> = rounds.iter().map(|r| secs(r.restore)).collect();
    println!("rounds={} restore_s={:.6}", rounds.len(), median(&restores));

    let setups: Vec<f64> = rounds
        .iter()
        .zip(&speeds)
        .map(|(r, speed)| secs(r.setup) * speed)
        .collect();
    let mut reps = Repetitions::default();
    for (r, &speed) in rounds.iter().zip(&speeds) {
        let rtt_us = r.samples.iter().map(|s| s.rtt_us).collect();
        reps.push(r.samples.len() as f64 / secs(r.measured), rtt_us, speed);
    }
    let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mib).collect();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    reps.put(&mut m);
    m.put("peak_rss_mb", median(&rss), "MiB");
    Outcome {
        correct,
        attempted: sent,
        failed,
        metrics: m,
    }
}

/// Reads `document[section][name]`, or its `field`, as a number (0 when
/// absent).
fn doc(metrics: &Value, section: &str, name: &str, field: Option<&str>) -> f64 {
    let value = get(metrics, section)
        .and_then(|s| get(s, name))
        .and_then(|v| match field {
            Some(f) => get(v, f),
            None => Some(v),
        });
    match value {
        Some(Value::U64(x)) => *x as f64,
        Some(Value::I64(x)) => *x as f64,
        Some(Value::F64(x)) => *x,
        _ => 0.0,
    }
}

/// The frames through an in-process service that journals to `dir`; with
/// `per_call`, each `Handle::call` is timed. Returns the replay's wall time,
/// the per-call times and the final digest.
fn dispatch_replay(
    cfg: &ServeConfig,
    dir: &Path,
    frames: &[RequestFrame],
    per_call: bool,
) -> (Duration, Vec<f64>, Option<String>) {
    let _ = fs::remove_dir_all(dir);
    let service = Service::start(ServeConfig {
        state_dir: Some(dir.to_path_buf()),
        ..cfg.clone()
    })
    .expect("an in-process service boots");
    let handle = service.handle();
    let mut call_us = Vec::with_capacity(frames.len());
    let start = Instant::now();
    for f in frames {
        let t = per_call.then(Instant::now);
        let d = handle.call(f.clone());
        if let Some(t) = t {
            call_us.push(micros(t.elapsed()));
        }
        assert!(
            matches!(d, Dispatch::Reply(_)),
            "in-process dispatch failed: {d:?}"
        );
    }
    let wall = start.elapsed();
    let control = |op: Op| match handle.call(RequestFrame {
        client: LOGICAL_CLIENT + 1,
        seq: 1,
        op,
    }) {
        Dispatch::Reply(r) => Some(r.reply),
        _ => None,
    };
    let digest = match control(Op::Query(Probe::Digest)) {
        Some(Reply::Digest { digest }) => Some(digest),
        _ => None,
    };
    control(Op::Shutdown);
    service
        .join()
        .expect("the in-process service stops cleanly");
    let _ = fs::remove_dir_all(dir);
    (wall, call_us, digest)
}

/// The traced run: one round, then its accepted frames replayed through the
/// codec, `oracle_digest`, and an in-process `Handle::call` (once untimed,
/// once with every call timed: the difference is the tracing overhead).
fn run_traced(opts: &Opts, cfg: &ServeConfig, paths: &Paths) -> Outcome {
    let rounds = [round(opts, cfg, paths)];
    let t = Instant::now();
    let oracle = oracle_digest(cfg, &rounds[0].frames).expect("the default config is valid");
    let apply = t.elapsed();
    let (sent, mut failed, mut correct) = totals(&rounds, &oracle);
    print_mix(&rounds);
    let [traced] = rounds;
    let frames = &traced.frames;

    // Codec: the run's own frames through encode_line / decode_request.
    let lines: Vec<String> = frames
        .iter()
        .map(|f| encode_line(f).expect("protocol frames encode"))
        .collect();
    let t = Instant::now();
    for _ in 0..CODEC_PASSES {
        for f in frames {
            black_box(encode_line(black_box(f)).ok());
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / (CODEC_PASSES * frames.len()) as f64;
    let t = Instant::now();
    for _ in 0..CODEC_PASSES {
        for line in &lines {
            black_box(decode_request(black_box(line.trim_end().as_bytes())).ok());
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / (CODEC_PASSES * lines.len()) as f64;

    let dir = paths.state.with_file_name("inproc-state");
    let (untimed_wall, _, _) = dispatch_replay(cfg, &dir, frames, false);
    let (timed_wall, dispatch_us, inproc_digest) = dispatch_replay(cfg, &dir, frames, true);
    if inproc_digest.as_deref() != Some(oracle.as_str()) {
        println!("MISMATCH: in-process digest {inproc_digest:?} vs oracle {oracle}");
        failed += 1;
        correct = false;
    }

    let reads = rtts(&traced.samples, &[0, 1]);
    let writes = rtts(&traced.samples, &[2, 3, 4]);
    let steps = rtts(&traced.samples, &[5]);
    let all = rtts(&traced.samples, &[0, 1, 2, 3, 4, 5]);
    let metrics = traced.metrics.clone().unwrap_or(Value::Null);
    let counter = |name: &str| doc(&metrics, "counters", name, None);
    let hist_us = |name: &str, field: &str| doc(&metrics, "histograms", name, Some(field)) / 1e3;

    let engine = |name: &str| counter(&format!("engine/{name}")) as u64;
    let mut m = Metrics::default();
    crate::walk::put_engine_counters(
        &mut m,
        &EngineStats {
            oracle_rows_computed: engine("oracle_rows_computed"),
            oracle_row_hits: engine("oracle_row_hits"),
            outcome_hits: engine("outcome_hits"),
            searches_run: engine("searches_run"),
            rows_invalidated: engine("rows_invalidated"),
            patches_applied: engine("patches_applied"),
            eval_rows_computed: engine("eval_rows_computed"),
            landmark_rows_computed: engine("landmark_rows_computed"),
        },
    );
    m.put(
        "best_response.bounds_hit",
        counter("walk/bounds_hit"),
        "count",
    );
    m.put(
        "best_response.rows_materialized",
        counter("walk/rows_materialized"),
        "count",
    );
    m.put("dynamics.steps", counter("walk/steps"), "count");
    m.put("dynamics.moves", counter("walk/moves"), "count");
    m.put("protocol.encode_ns_per_frame", encode_ns, "ns");
    m.put("protocol.decode_ns_per_frame", decode_ns, "ns");
    m.put(
        "service.dispatch_us_p50",
        percentile(&dispatch_us, 0.50),
        "us",
    );
    m.put(
        "service.dispatch_us_p99",
        percentile(&dispatch_us, 0.99),
        "us",
    );
    m.put("service.apply_ms", millis(apply), "ms");
    m.put(
        "service.journal_append_us_p50",
        hist_us("serve/journal_append_ns", "p50"),
        "us",
    );
    m.put(
        "service.journal_append_us_p99",
        hist_us("serve/journal_append_ns", "p99"),
        "us",
    );
    for name in KINDS {
        m.put(
            format!("service.op_latency_us_p50.{name}"),
            hist_us(&format!("serve/op_latency/{name}"), "p50"),
            "us",
        );
    }
    m.put(
        "service.journal_bytes_per_write",
        traced.journal_bytes as f64 / traced.writes.max(1) as f64,
        "bytes",
    );
    m.put(
        "service.busy_rejections",
        counter("serve/busy_rejections"),
        "count",
    );
    m.put(
        "service.rejected_share",
        traced.rejected as f64 / traced.sent.max(1) as f64,
        "ratio",
    );
    m.put(
        "service.failed_share",
        failed as f64 / sent.max(1) as f64,
        "ratio",
    );
    m.put("service.restore_s", secs(traced.restore), "s");
    m.put("socket.read_rtt_us_p50", percentile(&reads, 0.50), "us");
    m.put("socket.read_rtt_us_p99", percentile(&reads, 0.99), "us");
    m.put("socket.write_rtt_us_p50", percentile(&writes, 0.50), "us");
    m.put("socket.write_rtt_us_p99", percentile(&writes, 0.99), "us");
    m.put("socket.step_rtt_us_p50", percentile(&steps, 0.50), "us");
    m.put("socket.step_rtt_us_p99", percentile(&steps, 0.99), "us");
    m.put(
        "socket.tax_us_p50",
        percentile(&all, 0.50) - percentile(&dispatch_us, 0.50),
        "us",
    );
    // In-process time of every frame: owner-side dispatch plus the codec.
    let in_process_ns =
        dispatch_us.iter().sum::<f64>() * 1e3 + (encode_ns + decode_ns) * frames.len() as f64;
    put_trace_summary(
        &mut m,
        traced.total,
        Duration::from_nanos(in_process_ns as u64),
        millis(timed_wall) - millis(untimed_wall),
    );
    Outcome {
        correct,
        attempted: sent,
        failed,
        metrics: m,
    }
}
