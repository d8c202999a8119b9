//! Integration: killing a sweep mid-run and re-running with `--resume`
//! replays every recorded point and produces final artifacts byte-identical
//! to an uninterrupted run.

use std::fs;

use bbc_experiments::{e03, e08, stream_path, RunOptions};

const FRESH: RunOptions = RunOptions {
    full: false,
    resume: false,
};
const RESUME: RunOptions = RunOptions {
    full: false,
    resume: true,
};

/// The acceptance pin: interrupt E8 at an arbitrary byte (mid-line, so the
/// trailing record is corrupt *and* the last complete point must be
/// recomputed), resume, and compare every artifact byte for byte.
#[test]
fn e08_interrupted_then_resumed_is_byte_identical() {
    let fresh = e08::run(&FRESH);
    let path = stream_path("E8");
    let full_stream = fs::read(&path).expect("fresh run streamed");

    // Kill the run at ~60% of the stream — mid-line with high probability,
    // and in the middle of part 1's per-walk points either way.
    for cut in [full_stream.len() * 3 / 5, full_stream.len() / 3] {
        fs::write(&path, &full_stream[..cut]).unwrap();
        let resumed = e08::run(&RESUME);
        assert_eq!(
            fs::read(&path).unwrap(),
            full_stream,
            "cut at {cut}: resumed stream must reproduce the uninterrupted file"
        );
        assert_eq!(resumed.report.csv, fresh.report.csv, "cut at {cut}");
        assert_eq!(
            resumed.report.measured, fresh.report.measured,
            "cut at {cut}"
        );
        assert_eq!(resumed.report.agrees, fresh.report.agrees, "cut at {cut}");
        assert_eq!(resumed.report.fingerprint, fresh.report.fingerprint);
        assert_eq!(
            resumed.table.to_csv(),
            fresh.table.to_csv(),
            "cut at {cut}: in-memory table matches"
        );
    }

    // Resuming a *finished* run replays everything and is also idempotent.
    let resumed = e08::run(&RESUME);
    assert_eq!(fs::read(&path).unwrap(), full_stream);
    assert_eq!(resumed.report.csv, fresh.report.csv);
}

/// Replayed points must actually come from the stream, not be recomputed:
/// tamper a recorded cell in a *complete* point, resume, and the tampered
/// value must surface in the final CSV.
#[test]
fn resume_serves_recorded_points_without_recomputing() {
    let fresh = e03::run(&FRESH);
    let path = stream_path("E3");
    let text = fs::read_to_string(&path).expect("fresh run streamed");
    assert!(fresh.report.csv.contains("minimal-witness"));

    // Rewrite the records' instance cells (not the header — its
    // fingerprint must keep matching), drop the footer (so the stream
    // looks interrupted after a later point), and resume.
    let tampered: Vec<String> = text
        .lines()
        .filter(|l| !l.contains("\"complete\""))
        .map(|l| {
            if l.contains("\"seq\"") {
                l.replace("minimal-witness", "tampered-label")
            } else {
                l.to_string()
            }
        })
        .collect();
    fs::write(&path, tampered.join("\n") + "\n").unwrap();
    let resumed = e03::run(&RESUME);
    assert!(
        resumed.report.csv.contains("tampered-label"),
        "an already-recorded point must be replayed verbatim, not recomputed:\n{}",
        resumed.report.csv
    );
}

/// A changed run configuration (here: fast vs --full grids) must discard
/// the stream instead of replaying rows from the wrong sweep.
#[test]
fn mode_switch_changes_fingerprint_and_forces_fresh() {
    use bbc_experiments::{Fingerprint, StreamHeader};
    let fast = Fingerprint::new("EX").param("full", false).canonical();
    let full = Fingerprint::new("EX").param("full", true).canonical();
    assert_ne!(fast, full, "the mode is part of the fingerprint");
    // And the header carries it verbatim.
    let header = StreamHeader {
        experiment: "EX".into(),
        schema: bbc_experiments::stream::STREAM_SCHEMA,
        fingerprint: fast.clone(),
    };
    let line = serde_json::to_string(&header).unwrap();
    let parsed: StreamHeader = serde_json::from_str(&line).unwrap();
    assert_eq!(parsed.fingerprint, fast);
}

/// The ROADMAP's larger-scale scenario: the 256-peer overlay sweep
/// completes under the fast profile, agrees with Theorem 5, and rides the
/// engine's oracle prefill path. Release-only: the 256-peer walk is a
/// release-grade workload (CI runs this via `cargo test --release` and the
/// run_all experiments step).
#[cfg(not(debug_assertions))]
#[test]
fn e13_fast_sweep_completes_with_parallel_prefill() {
    use bbc_experiments::{e13, read_stream};
    let outcome = e13::run(&FRESH);
    assert!(outcome.report.agrees, "{}", outcome.report.measured);
    let records = read_stream(&stream_path("E13")).expect("stream parses");
    assert_eq!(records.len(), 3, "64, 128 and 256 peers");
    let big = records.last().expect("256-peer row");
    assert_eq!(big.cells[0], "256");
    let bfs_rows: u64 = big.cells[10].parse().expect("bfs-rows cell");
    assert!(
        bfs_rows >= 255,
        "the churn walk must have filled oracle rows through the prefill path"
    );
    // And the sweep is resumable like every other experiment.
    let resumed = e13::run(&RESUME);
    assert_eq!(resumed.report.csv, outcome.report.csv);
}

/// The `--full` 512-peer sweep point, cross-width: the i16 row kernel
/// (which [`bbc_core::RowTier::auto`] selects for every overlay in the E13
/// grid — n·max ℓ = 512 is below 16,383) must walk the identical trajectory
/// as the u64 tier, pinned by one shared fixed-seed digest so *any* kernel
/// drift fails loudly rather than as a silent fingerprint change. Here
/// M = 512² exceeds the i16 clamp, so every cost runs the lifted path.
/// Release-only: 64 best-response steps at 512 peers is a release-grade
/// workload.
#[cfg(not(debug_assertions))]
#[test]
fn e13_512_point_walks_identically_on_both_tiers() {
    use bbc_constructions::CayleyGraph;
    use bbc_core::{RowTier, Walk};

    let overlay = CayleyGraph::circulant(512, &[1, 23]).expect("valid circulant");
    let spec = overlay.spec();
    assert_eq!(
        RowTier::auto(&spec),
        RowTier::I16,
        "the E13 512-peer point must ride the narrow kernel by default"
    );

    let mut runs = Vec::new();
    for tier in [RowTier::I16, RowTier::U64] {
        for threads in [1usize, 2] {
            let mut walk = Walk::with_tier(&spec, overlay.configuration(), tier)
                .expect("512-peer overlay fits both tiers")
                .detect_cycles(false)
                .prefill_threads(threads);
            walk.run(64).expect("walk fits");
            runs.push((tier, threads, walk.stats().moves, walk.state_digest()));
        }
    }
    let (_, _, moves, digest) = runs[0];
    for &(tier, threads, m, d) in &runs[1..] {
        assert_eq!(
            (m, d),
            (moves, digest),
            "trajectory diverged on {tier:?} x {threads} threads"
        );
    }
    assert_eq!(
        (moves, digest),
        (64, 0x9063_8573_30da_fd0fu64),
        "the fixed-seed 512-peer trajectory drifted"
    );
}
