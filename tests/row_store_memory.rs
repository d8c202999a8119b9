//! Memory bound of the distance engine at the benchmark's scale.
//!
//! The engine holds one full-graph base row per node and derives every
//! deviation row from them, so its rows take `O(n²)` memory: 0.5 MiB at
//! 512 peers on the i16 tier. A row per (deviator, candidate) pair would be
//! `O(n³)`, over 70 MiB after the first 64 tests of this walk. This file
//! holds a single test, so its process does nothing else and `VmHWM` (the
//! process's peak resident set, from `/proc/self/status`) measures the walk
//! alone. A 512-peer walk is a release-grade workload, so debug builds skip
//! it; CI runs it in release.

use bbc::constructions::CayleyGraph;
use bbc::prelude::*;

/// The peak resident set of this process in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB")
}

#[test]
fn overlay512_walk_peak_rss_stays_within_32_mib() {
    if cfg!(debug_assertions) || !cfg!(target_os = "linux") {
        return;
    }
    // The benchmark's walk: the designed circulant{1,23} on 512 peers,
    // identity round-robin order, no cycle detection, default landmarks.
    let overlay = CayleyGraph::circulant(512, &[1, 23]).expect("512 admits circulant{1,23}");
    let spec = overlay.spec();
    let mut walk = Walk::new(&spec, overlay.configuration()).detect_cycles(false);
    walk.run(64)
        .expect("the default budget fits a 512-peer search");
    assert_eq!(walk.stats().steps, 64);
    let peak = peak_rss_kib();
    assert!(
        peak <= 32 * 1024,
        "peak resident set {peak} KiB after 64 tests exceeds 32 MiB"
    );
}
