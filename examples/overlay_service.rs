//! Overlay-as-a-service: the BBC engine as a long-lived daemon.
//!
//! The paper's overlay scenarios (§1.1) all assume someone *operates* the
//! network while peers churn and rewire. This example runs that operator's
//! stack end to end: a `bbc-serve` daemon owns one `DistanceEngine`-backed
//! walk behind a line-delimited JSON protocol on a Unix socket, and every
//! client — membership churn, best-response advice, cost telemetry — is
//! just a socket connection. One engine-owner thread serializes the
//! requests, so whatever order the socket layer accepts is the order the
//! game evolves in, and the final `state_digest` replays single-threaded
//! to the byte ([`bbc_serve::oracle_digest`] — the differential suite's
//! contract).
//!
//! The second half exercises the crash story: snapshot the served state
//! (which compacts the engine to its canonical layout and certifies the
//! digest), shut the daemon down, and boot a fresh process-equivalent
//! service with `restore` — the digest comes back byte for byte.
//!
//! ```text
//! cargo run --release --example overlay_service
//! ```
//!
//! For throughput numbers against a real daemon, use the built-in load
//! generator instead: `bbc-serve --loadgen 1000 --socket <sock>` (the
//! `serve/loadgen_latency` row of `crates/bench/BENCH_results.json`).

use bbc_serve::protocol::{Op, Probe, Reply};
use bbc_serve::socket::{run_listener, temp_socket_path, Client};
use bbc_serve::{ServeConfig, Service};

fn main() {
    let state_dir = std::env::temp_dir().join(format!("overlay-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let cfg = ServeConfig {
        peers: 24,
        budget: 2,
        state_dir: Some(state_dir.clone()),
        ..ServeConfig::default()
    };

    // --- Boot: daemon thread + socket listener. -------------------------
    let service = Service::start(cfg.clone()).expect("service boots");
    let socket = temp_socket_path("overlay-example");
    let listener_handle = service.handle();
    let listen_path = socket.clone();
    std::thread::spawn(move || {
        let _ = run_listener(&listen_path, &listener_handle);
    });
    while !socket.exists() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    println!("daemon up: 24-peer uniform game, budget 2, journal at {state_dir:?}");

    // --- An operator client settles the fresh overlay. ------------------
    let mut ops = Client::connect(&socket, 1).expect("operator connects");
    match ops
        .request(Op::Settle { max_steps: 100_000 })
        .expect("settle")
    {
        Reply::Phase {
            steps,
            moves,
            social_cost,
            ..
        } => {
            println!("settle: {steps} steps, {moves} moves, social cost {social_cost}");
        }
        other => panic!("settle failed: {other:?}"),
    }

    // --- A churn client: peer 7 leaves, later rejoins. ------------------
    let mut churn = Client::connect(&socket, 2).expect("churn client connects");
    assert!(matches!(
        churn.request(Op::Leave { node: 7 }).expect("leave"),
        Reply::Ok { .. }
    ));
    // Best-response *advice* for a survivor: what would node 3 do now, and
    // how many strategies did the engine evaluate to find out?
    match ops.request(Op::Advise { node: 3 }).expect("advise") {
        Reply::Advice {
            current_cost,
            best_cost,
            improves,
            evaluations,
            ..
        } => {
            println!(
                "advice for node 3 after the departure: cost {current_cost} -> {best_cost} \
                 (improves: {improves}; {evaluations} strategies evaluated)"
            );
        }
        other => panic!("advise failed: {other:?}"),
    }
    assert!(matches!(
        churn
            .request(Op::Join {
                node: 7,
                strategy: vec![6, 8]
            })
            .expect("rejoin"),
        Reply::Ok { .. }
    ));
    match ops
        .request(Op::Settle { max_steps: 100_000 })
        .expect("re-settle")
    {
        Reply::Phase {
            moves, social_cost, ..
        } => {
            println!("re-settle after churn: {moves} moves, social cost {social_cost}");
        }
        other => panic!("re-settle failed: {other:?}"),
    }

    // --- Snapshot, shut down, restore, compare digests. -----------------
    match ops.request(Op::Snapshot).expect("snapshot") {
        Reply::Snapshotted { rows, digest, .. } => {
            println!("snapshot: {rows} membership rows, certified digest {digest}");
        }
        other => panic!("snapshot failed: {other:?}"),
    }
    let live_digest = match ops.request(Op::Query(Probe::Digest)).expect("digest") {
        Reply::Digest { digest } => digest,
        other => panic!("digest probe failed: {other:?}"),
    };
    let _ = ops.request(Op::Shutdown);
    service.join().expect("clean shutdown");

    let restored = Service::start(ServeConfig {
        restore: true,
        ..cfg
    })
    .expect("service restores from the journal");
    let reply = match restored.handle().call(bbc_serve::RequestFrame {
        client: 9,
        seq: 0,
        op: Op::Query(Probe::Digest),
    }) {
        bbc_serve::Dispatch::Reply(frame) => frame.reply,
        other => panic!("restored service dropped the probe: {other:?}"),
    };
    let restored_digest = match reply {
        Reply::Digest { digest } => digest,
        other => panic!("digest probe failed: {other:?}"),
    };
    assert_eq!(
        live_digest, restored_digest,
        "restore must reproduce the pre-shutdown digest byte for byte"
    );
    println!("restored from snapshot+journal: digest {restored_digest} (matches live)");

    let _ = restored.handle().call(bbc_serve::RequestFrame {
        client: 9,
        seq: 0,
        op: Op::Shutdown,
    });
    restored.join().expect("clean shutdown");
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir_all(&state_dir);
}
