//! Shared pieces: run options, timing statistics, memory readings, the
//! recorded per-seed digests, and the result line.

use std::time::{Duration, Instant};

/// Command-line options of one benchmark run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `bbc-serve` binary (only `serve_mixed` uses it).
    pub serve_bin: Option<String>,
    /// A directory the run may create files in (only `serve_mixed` uses
    /// it).
    pub scratch: Option<String>,
}

impl Opts {
    /// The instant the measured part of the run must end.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs(self.seconds)
    }
}

/// Metrics of one run, in the order they are printed.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What a workload reports back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result object: the last line of standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up samples per run of the walk workloads; `setup_s` is their
/// median.
pub const SETUP_SAMPLES: usize = 101;

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `values` (0 when
/// empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Repetitions that run the same operations in the same order, each
/// scaled to the reference host speed (see `HostSpeed`).
#[derive(Default)]
pub struct Repetitions {
    rates: Vec<f64>,
    op_us: Vec<Vec<f64>>,
    speeds: Vec<f64>,
}

impl Repetitions {
    /// Adds a repetition: its rate, each operation's time, and the host
    /// speed it ran at.
    pub fn push(&mut self, rate: f64, op_us: Vec<f64>, speed: f64) {
        self.rates.push(rate / speed);
        self.op_us
            .push(op_us.into_iter().map(|t| t * speed).collect());
        self.speeds.push(speed);
    }

    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Throughput and latency: the median over repetitions of each one's
    /// rate, median and 99th percentile.
    pub fn put(&self, m: &mut Metrics) {
        let per_rep =
            |q: f64| -> Vec<f64> { self.op_us.iter().map(|r| percentile(r, q)).collect() };
        let (p50, p99) = (per_rep(0.50), per_rep(0.99));
        println!(
            "latency: {} samples from {} repetitions; host speed {:.3?}; scaled rates {:.2?}; \
             scaled p50 {:.0?}; scaled p99 {:.0?}",
            self.op_us.iter().map(Vec::len).sum::<usize>(),
            self.len(),
            self.speeds,
            self.rates,
            p50,
            p99,
        );
        m.put("ops_per_s", median(&self.rates), "1/s");
        m.put("latency_p50_us", median(&p50), "us");
        m.put("latency_p99_us", median(&p99), "us");
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nodes of the probe's graph, and the element-wise minima one probe run
/// sums: about 4 ms of the engine's scoring on the VM the benchmark was
/// tuned on.
const PROBE_NODES: usize = 512;
const PROBE_MINIMA: usize = 1 << 23;

/// A fixed kernel of the benchmark's own that reads how fast the host runs
/// at a given moment. It is the engine's best-response work in miniature: a
/// 1 MiB cache of the 512 BFS distance rows of a fixed graph (out-degree 3:
/// circulant{1,23} plus one seeded link per node); each run rebuilds 64 of
/// the rows by BFS and then sums the element-wise minimum of each rebuilt
/// row with half of the others, as the search scores two-link strategies.
/// It calls no repository code, so a change to the program cannot move it.
/// (Versions at 128 peers, and with 16 and 64 MiB caches, tracked the
/// workloads' speed worse.)
struct Probe {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    rows: Vec<u32>,
    queue: Vec<u32>,
    next: usize,
    /// The checksum of each block of rebuilt rows, once seen.
    checksums: [Option<u64>; 8],
}

impl Probe {
    fn new() -> Self {
        let n = PROBE_NODES;
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(3 * n);
        for u in 0..n {
            offsets.push(targets.len() as u32);
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            for v in [u + 1, u + 23, (lcg >> 33) as usize] {
                targets.push((v % n) as u32);
            }
        }
        offsets.push(targets.len() as u32);
        let mut probe = Self {
            offsets,
            targets,
            rows: vec![0; n * n],
            queue: Vec::with_capacity(n),
            next: 0,
            checksums: [None; 8],
        };
        for s in 0..n {
            probe.fill(s);
        }
        probe
    }

    /// Rebuilds the distance row of source `s`.
    fn fill(&mut self, s: usize) {
        let n = PROBE_NODES;
        let row = &mut self.rows[s * n..(s + 1) * n];
        row.fill(u32::MAX);
        row[s] = 0;
        self.queue.clear();
        self.queue.push(s as u32);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let d = row[u] + 1;
            for &v in &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                if row[v as usize] == u32::MAX {
                    row[v as usize] = d;
                    self.queue.push(v);
                }
            }
        }
    }

    /// Runs the kernel once and returns its wall time. Panics if the
    /// kernel's checksum ever changes, so the work cannot be skipped.
    fn run(&mut self) -> Duration {
        let n = PROBE_NODES;
        let refills = n / self.checksums.len();
        let t = Instant::now();
        let first = self.next;
        self.next = (self.next + refills) % n;
        for s in first..first + refills {
            self.fill(s);
        }
        let rows = std::hint::black_box(&self.rows);
        let mut sum = 0u64;
        for p in 0..PROBE_MINIMA / n {
            let (a, b) = (first + p % refills, p / refills);
            let (a, b) = (&rows[a * n..(a + 1) * n], &rows[b * n..(b + 1) * n]);
            let cost: u32 = a.iter().zip(b).map(|(&x, &y)| x.min(y)).sum();
            sum += u64::from(cost);
        }
        let elapsed = t.elapsed();
        let seen = self.checksums[first / refills].get_or_insert(sum);
        assert_eq!(*seen, sum, "probe checksum");
        elapsed
    }
}

/// Time of one probe on the reference host speed all reported times are
/// scaled to (the probe's typical time on the 2-vCPU VM the benchmark was
/// tuned on).
const PROBE_REFERENCE_S: f64 = 0.004;
/// Work between two probes.
const PROBE_EVERY: Duration = Duration::from_millis(25);
/// Probes run on either side of work too short to be probed in between (a
/// serve round, the set-up samples).
pub const PROBES_PER_SIDE: u32 = 3;

/// Tracks the host's speed while a workload runs. The shared host this
/// benchmark runs on changes speed by up to 2x in phases of seconds to
/// minutes, for reasons outside the program; a whole run can sit in one
/// phase. So the workload calls `tick` between operations, which runs the
/// probe every `PROBE_EVERY` of work, and each repetition's times are scaled
/// by `take`, the probe's reference time over its mean time during that
/// repetition. Both commits of a comparison run the same probe, so the
/// scaling cancels the host's phases and keeps the program's own changes.
pub struct HostSpeed {
    probe: Probe,
    last: Instant,
    probe_time: Duration,
    probes: u32,
}

impl HostSpeed {
    pub fn new() -> Self {
        Self {
            probe: Probe::new(),
            last: Instant::now(),
            probe_time: Duration::ZERO,
            probes: 0,
        }
    }

    fn sample(&mut self) -> Duration {
        let t = self.probe.run();
        self.probe_time += t;
        self.probes += 1;
        self.last = Instant::now();
        t
    }

    /// Runs the probe `times` times.
    pub fn probe(&mut self, times: u32) {
        for _ in 0..times {
            self.sample();
        }
    }

    /// Runs the probe if `PROBE_EVERY` has passed since the last one;
    /// returns the time it took, for the caller to leave out of its own.
    pub fn tick(&mut self) -> Duration {
        if self.last.elapsed() >= PROBE_EVERY {
            self.sample()
        } else {
            Duration::ZERO
        }
    }

    /// The host's speed over the probes since the last call, relative to
    /// the reference speed (below 1 when slower): rates are divided by it,
    /// times multiplied. Probes once first if no probe ran since.
    pub fn take(&mut self) -> f64 {
        if self.probes == 0 {
            self.sample();
        }
        let mean = secs(self.probe_time) / f64::from(self.probes);
        self.probe_time = Duration::ZERO;
        self.probes = 0;
        PROBE_REFERENCE_S / mean
    }
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The traced run's bookkeeping: its wall time, the share of it the timed
/// layer calls cover, and how much slower it ran than the untraced pass.
pub fn put_trace_summary(m: &mut Metrics, wall: Duration, layer_sum: Duration, overhead_ms: f64) {
    m.put("trace.wall_ms", millis(wall), "ms");
    m.put("trace.layer_share", secs(layer_sum) / secs(wall), "ratio");
    m.put("trace.overhead_ms", overhead_ms, "ms");
    m.put(
        "host.available_parallelism",
        available_parallelism() as f64,
        "count",
    );
}

/// Digests recorded by exact (`LandmarkPolicy::Off`) runs, one
/// `<workload> <seed> <hex digest>` line each (see `--record`).
const RECORDED: &str = include_str!("../expected_digests.txt");

/// The recorded digest of `workload` at `seed`, if that seed was recorded.
fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
        if w == workload && s.parse::<u64>().ok()? == seed {
            u64::from_str_radix(d, 16).ok()
        } else {
            None
        }
    })
}

/// Checks `digest` against the recorded value, or against `exact()` — an
/// exact-policy rerun — when the seed was never recorded.
pub fn check_digest(workload: &str, seed: u64, digest: u64, exact: impl FnOnce() -> u64) -> bool {
    let (expected, source) = match recorded_digest(workload, seed) {
        Some(d) => (d, "recorded"),
        None => (exact(), "exact rerun"),
    };
    let ok = expected == digest;
    println!(
        "digest check: {digest:016x} vs {source} {expected:016x}: {}",
        if ok { "ok" } else { "MISMATCH" }
    );
    ok
}
