//! Experiment harness: one module per figure/claim of the BBC paper.
//!
//! Each experiment exposes `run(&RunOptions) -> Outcome` so the binaries,
//! `run_all`, and the integration tests share one code path. Binaries live
//! in `src/bin/` and are thin wrappers; `--full` enables the heavier sweeps.
//!
//! | module | paper artifact | claim |
//! |--------|----------------|-------|
//! | [`e01`] | Thm 1 / Fig 1 | non-uniform games may lack pure NE |
//! | [`e02`] | Thm 2 / Fig 2 | SAT ⇔ NE through the reduction |
//! | [`e03`] | Thm 3 | fractional games approach zero regret |
//! | [`e04`] | Lemma 1 | stable graphs are essentially fair |
//! | [`e05`] | Lemma 6 / Fig 3 | Forest of Willows graphs are stable |
//! | [`e06`] | Thm 4 | PoS Θ(1); PoA grows like √(n/k)/log_k n |
//! | [`e07`] | Thm 5 / Cor 1 / Lemma 8 | Abelian Cayley graphs unstable (small k), stable (huge k) |
//! | [`e08`] | Thm 6 | strong connectivity within n² steps; Ω(n²) instance |
//! | [`e09`] | Fig 4 / §4.3 | best-response loops exist; empty-start converges |
//! | [`e10`] | Thm 8 / Fig 6 | BBC-max PoA is Ω(n/(k·log_k n)) |
//! | [`e11`] | Thm 9 | BBC-max PoS is Θ(1) |
//! | [`e12`] | Thm 7 / Fig 5 | BBC-max no-NE gadget (reproduction discrepancy) |
//! | [`e13`] | Thm 5 / §4.3 / §1.1 | 256-peer overlay churn sweep (parallel oracle prefill) |
//! | [`e14`] | §1.1 / §4.3 churn runtime | dynamic-membership sweep: join/leave events × peer count |

#![forbid(unsafe_code)]

use bbc_analysis::{ExperimentReport, Table};

pub mod scan;
pub mod stream;

pub use scan::resumable_scan;
pub use stream::{
    read_stream, stream_path, Fingerprint, StreamEnd, StreamHeader, StreamRecord, StreamingTable,
};

pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;

/// Shared experiment options.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Enable the heavier parameter sweeps (`--full` on the CLI).
    pub full: bool,
    /// Resume from the existing `target/experiments/<id>.jsonl` stream,
    /// skipping already-recorded sweep points (`--resume` on the CLI;
    /// `--fresh` forces the default truncate-and-restart behaviour).
    pub resume: bool,
}

impl RunOptions {
    /// Parses the process arguments: `--full`, `--resume`, `--fresh`
    /// (later flags win, so `--resume --fresh` starts fresh).
    pub fn from_env() -> Self {
        let mut opts = Self::default();
        for arg in std::env::args() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--resume" => opts.resume = true,
                "--fresh" => opts.resume = false,
                _ => {}
            }
        }
        opts
    }
}

/// Worker count for the parallel search entry points: every available
/// core, with a fixed fallback when the parallelism query fails.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

/// Landmark bound policy for the walk-heavy experiments (e13/e14), from
/// the `BBC_LANDMARKS` environment variable: `off`, `auto`, or
/// `forced:<k>`; unset or unparsable falls back to
/// [`bbc_core::LandmarkPolicy::Auto`]. `auto` resolves to no landmarks
/// at every size, so it runs the same exact path as `off`; only
/// `forced:<k>` reaches the landmark tier.
///
/// Deliberately an env knob and *not* a stream-fingerprint input:
/// admissible bounds never change a decision cell, so the same stream
/// digest must reproduce under every policy (CI runs e13/e14 under
/// `forced:<k>` and asserts md5 equality against the pinned digests).
pub fn landmark_policy_from_env() -> bbc_core::LandmarkPolicy {
    match std::env::var("BBC_LANDMARKS").ok().as_deref() {
        Some("off") => bbc_core::LandmarkPolicy::Off,
        Some(s) => s
            .strip_prefix("forced:")
            .and_then(|k| k.parse().ok())
            .map_or(
                bbc_core::LandmarkPolicy::Auto,
                bbc_core::LandmarkPolicy::Forced,
            ),
        None => bbc_core::LandmarkPolicy::Auto,
    }
}

/// Env-gated metrics sidecar for the walk-heavy sweeps (e13/e14): when
/// `BBC_METRICS_SIDECAR` is set to a non-empty value other than `0`, each
/// sweep point appends one JSON line —
/// `{"point":"<label>","metrics":<registry document>}` — to
/// `target/experiments/<id>.metrics.jsonl`.
///
/// Off by default, and deliberately outside the stream [`Fingerprint`]:
/// the sidecar is observational only. CI's resume leg md5-pins every
/// `target/experiments/*.jsonl` artifact across a kill/`--resume` cycle,
/// so the file must not appear unless a human asks for it — and when it
/// does appear it carries effort counters (rows materialized, bound hits,
/// oracle hit rates), never decision cells or wall-clock readings.
#[derive(Debug)]
pub struct MetricsSidecar {
    out: Option<std::io::BufWriter<std::fs::File>>,
}

impl MetricsSidecar {
    /// Opens (truncating) `target/experiments/<id>.metrics.jsonl` when the
    /// `BBC_METRICS_SIDECAR` gate is set; otherwise a no-op sink. IO
    /// failures also degrade to the no-op sink — observation must never
    /// fail a sweep.
    pub fn from_env(id: &str) -> Self {
        let gated = std::env::var("BBC_METRICS_SIDECAR").is_ok_and(|v| !v.is_empty() && v != "0");
        let out = gated
            .then(|| {
                let path = stream_path(id).with_extension("metrics.jsonl");
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                std::fs::File::create(&path)
                    .ok()
                    .map(std::io::BufWriter::new)
            })
            .flatten();
        Self { out }
    }

    /// Appends one sweep point's registry snapshot, best-effort. The label
    /// is embedded as a JSON string; quotes and backslashes are stripped
    /// rather than escaped (sidecar labels are plain `key=value` ASCII).
    pub fn emit(&mut self, point: &str, registry: &bbc_obs::Registry) {
        use std::io::Write as _;
        if let Some(out) = &mut self.out {
            let label: String = point.chars().filter(|c| *c != '"' && *c != '\\').collect();
            let _ = writeln!(
                out,
                "{{\"point\":\"{label}\",\"metrics\":{}}}",
                registry.to_json()
            );
            let _ = out.flush();
        }
    }
}

/// What every experiment returns.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The claim/measured/verdict record.
    pub report: ExperimentReport,
    /// The data table behind it.
    pub table: Table,
}

/// Prints an outcome and persists its JSON record under
/// `target/experiments/`.
pub fn emit(outcome: &Outcome) {
    println!("{}", outcome.report.banner());
    println!("{}", outcome.table.to_text());
    for note in &outcome.report.notes {
        println!("note: {note}");
    }
    let path = outcome.report.default_path();
    match outcome.report.save(&path) {
        Ok(()) => println!("record: {}", path.display()),
        Err(e) => eprintln!("could not save record to {}: {e}", path.display()),
    }
    println!();
}

/// Experiments allowed to report `agrees = false`: the workspace's
/// documented reproduction discrepancies (see the module docs of each id).
/// Anything else disagreeing is a regression and [`unexpected_disagreements`]
/// (hence the `run_all` binary's exit code) flags it.
pub const DISCREPANCY_ALLOWLIST: &[&str] = &["E12"];

/// Ids of outcomes that disagree with the paper outside the documented
/// [`DISCREPANCY_ALLOWLIST`].
pub fn unexpected_disagreements(outcomes: &[Outcome]) -> Vec<String> {
    outcomes
        .iter()
        .filter(|o| !o.report.agrees && !DISCREPANCY_ALLOWLIST.contains(&o.report.id.as_str()))
        .map(|o| o.report.id.clone())
        .collect()
}

/// Runs every experiment in order (the `run_all` binary).
pub fn run_all(opts: &RunOptions) -> Vec<Outcome> {
    let outcomes = vec![
        e01::run(opts),
        e02::run(opts),
        e03::run(opts),
        e04::run(opts),
        e05::run(opts),
        e06::run(opts),
        e07::run(opts),
        e08::run(opts),
        e09::run(opts),
        e10::run(opts),
        e11::run(opts),
        e12::run(opts),
        e13::run(opts),
        e14::run(opts),
    ];
    for o in &outcomes {
        emit(o);
    }
    outcomes
}

/// Finalizes a report: stamps the measured sentence, verdict and CSV.
pub(crate) fn finish(
    mut report: ExperimentReport,
    table: Table,
    measured: String,
    agrees: bool,
) -> Outcome {
    report.measured = measured;
    report.agrees = agrees;
    report.csv = table.to_csv();
    Outcome { report, table }
}

/// [`finish`] for streaming experiments: writes the stream's completion
/// footer and stamps the run's config fingerprint into the report record.
pub(crate) fn finish_streamed(
    report: ExperimentReport,
    table: StreamingTable,
    measured: String,
    agrees: bool,
) -> Outcome {
    let fingerprint = table.fingerprint().to_string();
    let mut outcome = finish(report, table.into_table(), measured, agrees);
    outcome.report.fingerprint = fingerprint;
    outcome
}
