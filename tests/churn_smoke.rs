//! Release-mode churn smoke: a fixed-seed [`ChurnSim`] on the 32-peer
//! circulant overlay (the `p2p_overlay --churn` workload), pinned to its
//! exact trajectory digest.
//!
//! The churn determinism contract says the full event/move stream is a pure
//! function of `(spec, start, ChurnConfig)` — independent of machine and
//! cache history. A regression anywhere in the lifecycle layer
//! (`DistanceEngine::{remove_node, add_node}`), the masked cost
//! aggregation, the seeded event drawing, or the scheduler resets shows up
//! here as a digest change; a performance regression shows up as this
//! release-mode test going slow in CI.

use bbc::prelude::*;

fn smoke_config(peers: u64) -> ChurnConfig {
    ChurnConfig {
        seed: 32,
        events: 6,
        min_live: (peers / 2) as usize,
        settle_steps: peers,
        ..ChurnConfig::default()
    }
}

#[test]
fn fixed_seed_churn_trajectory_is_pinned() {
    // The digest pin is a release-grade workload (32 peers × 7 settle
    // phases); debug builds only check the replay below.
    if cfg!(debug_assertions) {
        return;
    }
    let overlay = CayleyGraph::circulant(32, &[1, 5]).expect("valid circulant");
    let spec = overlay.spec();
    let report = ChurnSim::new(&spec, overlay.configuration(), smoke_config(32))
        .run()
        .expect("phases fit budget");
    assert_eq!(report.events.len(), 6);
    assert_eq!(report.trajectory_digest, 0x662f_70e7_7791_0a92);
    assert_eq!(report.final_live, 30);
    assert_eq!(report.final_social_cost, 3_344);
    assert!(report.all_exposure_healed());
}

#[test]
fn churn_trajectory_replays_identically() {
    let overlay = CayleyGraph::circulant(16, &[1, 5]).expect("valid circulant");
    let spec = overlay.spec();
    let run = || {
        ChurnSim::new(&spec, overlay.configuration(), smoke_config(16))
            .run()
            .expect("phases fit budget")
    };
    let base = run();
    assert_eq!(base.events.len(), 6, "every event must be feasible");
    assert_eq!(run(), base, "a replay of the same config diverged");
}
