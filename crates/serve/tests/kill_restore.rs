//! Crash-recovery suite: SIGKILL the daemon mid-load, restart it with
//! `--restore`, resume the client streams from the journaled sequence
//! high-water marks, and require the final `state_digest` to match an
//! uninterrupted daemon that processed the identical request sequence —
//! byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use bbc_serve::protocol::{Op, Probe, Reply};
use bbc_serve::socket::Client;
use bbc_serve::RequestFrame;

const PEERS: usize = 16;
const BUDGET: u64 = 2;

fn unique_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "bbc-serve-kill-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn spawn_daemon(socket: &Path, state_dir: Option<&Path>, restore: bool) -> Child {
    spawn_daemon_metrics(socket, state_dir, restore, None)
}

fn spawn_daemon_metrics(
    socket: &Path,
    state_dir: Option<&Path>,
    restore: bool,
    metrics: Option<(&Path, u64)>,
) -> Child {
    // A SIGKILLed daemon leaves its socket file behind; unlink it so the
    // existence poll below sees the NEW daemon's bind, not the corpse.
    let _ = std::fs::remove_file(socket);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bbc-serve"));
    cmd.arg("--socket")
        .arg(socket)
        .arg("--peers")
        .arg(PEERS.to_string())
        .arg("--budget")
        .arg(BUDGET.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(dir) = state_dir {
        cmd.arg("--state-dir").arg(dir);
    }
    if restore {
        cmd.arg("--restore");
    }
    if let Some((file, every)) = metrics {
        cmd.arg("--metrics-file")
            .arg(file)
            .arg("--metrics-every")
            .arg(every.to_string());
    }
    let mut child = cmd.spawn().expect("daemon spawns");
    // Wait for the socket (the daemon unlinks any stale file first, so
    // existence means the fresh listener is up).
    for _ in 0..5000 {
        if socket.exists() {
            return child;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("daemon never bound {}", socket.display());
}

/// The deterministic workload: a mix of churn, settling, and a mid-run
/// snapshot, as (client, op) pairs. Sequence numbers are assigned per
/// client at send time (mutating ops only), so the same list drives both
/// the interrupted and the uninterrupted runs.
fn workload() -> Vec<(u64, Op)> {
    let mut ops = vec![
        (1, Op::Settle { max_steps: 50_000 }),
        (1, Op::Leave { node: 3 }),
        (2, Op::Leave { node: 7 }),
        (1, Op::Step { steps: 200 }),
        (
            2,
            Op::Join {
                node: 3,
                strategy: vec![0, 5],
            },
        ),
        (
            1,
            Op::Shock {
                node: 0,
                strategy: vec![1],
            },
        ),
        (2, Op::Snapshot),
        (1, Op::Leave { node: 11 }),
        (2, Op::Step { steps: 150 }),
    ];
    // A churny tail so the post-kill suffix is non-trivial.
    for i in 0..12u32 {
        let node = (i * 5 + 2) % PEERS as u32;
        ops.push((
            u64::from(i % 3) + 1,
            if i % 2 == 0 {
                Op::Leave { node }
            } else {
                Op::Join {
                    node,
                    strategy: vec![(node + 1) % PEERS as u32],
                }
            },
        ));
        if i % 4 == 3 {
            ops.push((1, Op::Settle { max_steps: 20_000 }));
        }
    }
    ops
}

/// Per-client sequence assignment, mirroring the service's bookkeeping.
struct SeqTracker(std::collections::BTreeMap<u64, u64>);

impl SeqTracker {
    fn new() -> Self {
        Self(std::collections::BTreeMap::new())
    }

    fn assign(&mut self, client: u64, op: &Op) -> u64 {
        if op.mutates() {
            let next = self.0.get(&client).copied().unwrap_or(0) + 1;
            self.0.insert(client, next);
            next
        } else {
            0
        }
    }
}

/// Connects with a short retry loop: the socket file appears at `bind()`,
/// a moment before `listen()`, so a fast client under load can catch
/// ECONNREFUSED on a daemon that is in fact coming up.
fn connect(socket: &Path) -> Client {
    for _ in 0..5000 {
        match Client::connect(socket, 0) {
            Ok(conn) => return conn,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
        }
    }
    panic!("could not connect to {}", socket.display());
}

fn send(conn: &mut Client, client: u64, seq: u64, op: Op) -> Reply {
    conn.client = client;
    conn.request_seq(seq, op).expect("request round-trips")
}

/// Stops the daemon, which answers `Bye` before it exits.
fn send_shutdown(conn: &mut Client) {
    conn.client = 0;
    let reply = conn
        .request_seq(0, Op::Shutdown)
        .expect("the Bye is written before the daemon exits");
    assert!(matches!(reply, Reply::Bye), "{reply:?}");
}

fn final_digest(conn: &mut Client) -> String {
    match send(conn, 0, 0, Op::Query(Probe::Digest)) {
        Reply::Digest { digest } => digest,
        other => panic!("{other:?}"),
    }
}

#[test]
fn shutdown_answers_bye_then_exits_cleanly() {
    // The daemon must not exit while the connection that carried
    // `Shutdown` is still writing its `Bye`: every boot gets the reply,
    // then a zero exit status.
    let socket = unique_path("bye.sock");
    for boot in 0..20 {
        let mut daemon = spawn_daemon(&socket, None, false);
        let mut conn = connect(&socket);
        send_shutdown(&mut conn);
        let status = daemon.wait().expect("daemon exits");
        assert!(status.success(), "boot {boot}: {status:?}");
    }
}

#[test]
fn sigkill_restore_resumes_to_the_uninterrupted_digest() {
    let ops = workload();
    let kill_at = ops.len() / 2;

    // --- Reference run: one daemon, never interrupted. ---
    let ref_socket = unique_path("ref.sock");
    let ref_dir = unique_path("ref-state");
    let mut ref_daemon = spawn_daemon(&ref_socket, Some(&ref_dir), false);
    let mut conn = connect(&ref_socket);
    let mut seqs = SeqTracker::new();
    for (client, op) in &ops {
        let seq = seqs.assign(*client, op);
        let reply = send(&mut conn, *client, seq, op.clone());
        assert!(
            !matches!(reply, Reply::Busy { .. }),
            "serial run never sees backpressure"
        );
    }
    let want = final_digest(&mut conn);
    send_shutdown(&mut conn);
    let _ = ref_daemon.wait();

    // --- Interrupted run: SIGKILL halfway, restart, resume. ---
    let socket = unique_path("kill.sock");
    let dir = unique_path("kill-state");
    let mut daemon = spawn_daemon(&socket, Some(&dir), false);
    let mut conn = connect(&socket);
    let mut seqs = SeqTracker::new();
    for (client, op) in &ops[..kill_at] {
        let seq = seqs.assign(*client, op);
        send(&mut conn, *client, seq, op.clone());
    }
    // Fire one more mutating request WITHOUT reading the reply, then
    // SIGKILL: whether that op was journaled is genuinely uncertain, which
    // is exactly the case the resume protocol must absorb.
    let (inflight_client, inflight_op) = &ops[kill_at];
    let inflight_seq = seqs.assign(*inflight_client, inflight_op);
    let frame = RequestFrame {
        client: *inflight_client,
        seq: inflight_seq,
        op: inflight_op.clone(),
    };
    let line = bbc_serve::protocol::encode_line(&frame).expect("encodes");
    conn.send_raw(line.as_bytes()).expect("raw send");
    daemon.kill().expect("SIGKILL delivered"); // Child::kill is SIGKILL on unix
    let _ = daemon.wait();

    // Restart from the journal.
    let mut daemon = spawn_daemon(&socket, Some(&dir), true);
    let mut conn = connect(&socket);

    // ClientSeq resume: the journaled high-water mark for the in-flight
    // client is either just-before or just-including the in-flight op.
    let journaled = match send(
        &mut conn,
        0,
        0,
        Op::Query(Probe::ClientSeq {
            client: *inflight_client,
        }),
    ) {
        Reply::Seq { seq, .. } => seq,
        other => panic!("{other:?}"),
    };
    assert!(
        journaled == inflight_seq || journaled + 1 == inflight_seq,
        "journaled {journaled}, in-flight {inflight_seq}"
    );

    // Resend the in-flight op (duplicate-suppressed if it made the
    // journal), then play the untouched suffix.
    let reply = send(
        &mut conn,
        *inflight_client,
        inflight_seq,
        inflight_op.clone(),
    );
    if journaled == inflight_seq {
        assert!(
            matches!(reply, Reply::Skipped { last } if last == inflight_seq),
            "already-journaled resend must be suppressed, got {reply:?}"
        );
    }
    for (client, op) in &ops[kill_at + 1..] {
        let seq = seqs.assign(*client, op);
        send(&mut conn, *client, seq, op.clone());
    }

    let got = final_digest(&mut conn);
    assert_eq!(
        got, want,
        "restored run diverged from the uninterrupted reference"
    );

    send_shutdown(&mut conn);
    let _ = daemon.wait();
    for p in [&ref_socket, &socket] {
        let _ = std::fs::remove_file(p);
    }
    for d in [&ref_dir, &dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn metrics_on_off_and_sampled_runs_share_one_digest_across_sigkill() {
    // The observational-only invariant under crash recovery: the same
    // workload through (a) a bare daemon, (b) a daemon dumping Prometheus
    // text every 3 requests with metrics probes interleaved, both SIGKILLed
    // and restored mid-run, must land on identical digests.
    let ops = workload();
    let kill_at = ops.len() / 2;

    // --- Reference: metrics off, uninterrupted. ---
    let ref_socket = unique_path("mref.sock");
    let ref_dir = unique_path("mref-state");
    let mut ref_daemon = spawn_daemon(&ref_socket, Some(&ref_dir), false);
    let mut conn = connect(&ref_socket);
    let mut seqs = SeqTracker::new();
    for (client, op) in &ops {
        let seq = seqs.assign(*client, op);
        send(&mut conn, *client, seq, op.clone());
    }
    let want = final_digest(&mut conn);
    send_shutdown(&mut conn);
    let _ = ref_daemon.wait();

    // --- Metrics on (sampled dump), metrics probes interleaved, SIGKILL
    // halfway, restore with metrics still on. ---
    let socket = unique_path("mkill.sock");
    let dir = unique_path("mkill-state");
    let prom = unique_path("mkill.prom");
    let mut daemon = spawn_daemon_metrics(&socket, Some(&dir), false, Some((&prom, 3)));
    let mut conn = connect(&socket);
    let mut seqs = SeqTracker::new();
    for (client, op) in &ops[..kill_at] {
        let seq = seqs.assign(*client, op);
        send(&mut conn, *client, seq, op.clone());
        // A metrics read between every op: must be pure.
        assert!(matches!(
            send(&mut conn, 0, 0, Op::Query(Probe::Metrics)),
            Reply::Metrics { .. }
        ));
    }
    daemon.kill().expect("SIGKILL delivered");
    let _ = daemon.wait();

    let mut daemon = spawn_daemon_metrics(&socket, Some(&dir), true, Some((&prom, 3)));
    let mut conn = connect(&socket);
    for (client, op) in &ops[kill_at..] {
        let seq = seqs.assign(*client, op);
        send(&mut conn, *client, seq, op.clone());
    }
    let got = final_digest(&mut conn);
    assert_eq!(got, want, "metrics-on run diverged from the bare reference");

    // The sampled dump fired and rendered Prometheus text.
    let text = std::fs::read_to_string(&prom).expect("metrics file written");
    assert!(text.contains("# TYPE"), "not Prometheus text: {text:?}");
    assert!(text.contains("serve_requests"), "missing counter: {text:?}");

    send_shutdown(&mut conn);
    let _ = daemon.wait();
    for p in [&ref_socket, &socket, &prom] {
        let _ = std::fs::remove_file(p);
    }
    for d in [&ref_dir, &dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn second_restore_after_clean_shutdown_is_stable() {
    // Restore is not a one-shot: kill → restore → shutdown → restore again
    // must keep producing the same digest (journal generations chain).
    let socket = unique_path("stable.sock");
    let dir = unique_path("stable-state");
    let mut daemon = spawn_daemon(&socket, Some(&dir), false);
    let mut conn = connect(&socket);
    let mut seqs = SeqTracker::new();
    for (client, op) in workload() {
        let seq = seqs.assign(client, &op);
        send(&mut conn, client, seq, op);
    }
    let want = final_digest(&mut conn);
    // Hard-kill even though all requests are acked: the journal is flushed
    // per record, so nothing is lost.
    daemon.kill().expect("SIGKILL delivered");
    let _ = daemon.wait();

    for round in 0..2 {
        let mut daemon = spawn_daemon(&socket, Some(&dir), true);
        let mut conn = connect(&socket);
        let got = final_digest(&mut conn);
        assert_eq!(got, want, "restore round {round} diverged");
        if round == 0 {
            daemon.kill().expect("SIGKILL delivered");
            let _ = daemon.wait();
        } else {
            send_shutdown(&mut conn);
            let _ = daemon.wait();
        }
    }
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}
