//! A seeded multi-client load generator for the daemon.
//!
//! Simulates `clients` logical clients, each drawing its op stream from its
//! own [`SmallRng`] (seeded from the run seed and the client id), so the
//! per-client request sequences are identical however the run is executed:
//!
//! - **concurrent mode**: `connections` threads, clients partitioned
//!   round-robin across them, each thread interleaving its clients
//!   round-robin. The accepted order depends on thread scheduling; what
//!   stays invariant is that the digest the daemon reports equals a
//!   single-threaded replay of whatever order it accepted — pass a state
//!   directory ([`LoadGen::verify_state_dir`]) to check that via
//!   [`replay_digest`].
//! - **serial mode** (`--serial`): the same loop on one connection, so
//!   the accepted order is [`serial_frames`] and the final digest is a pure
//!   function of `(game config, seed, clients, requests)` — the CI leg pins
//!   it, and the run self-verifies against [`oracle_digest`].
//!
//! Latency quantiles (p50/p95/max) land in `BENCH_results.json` through
//! the bench shim's [`criterion::record`] registry when
//! [`LoadReport::record_bench`] is called, tagged with the host's
//! `available_parallelism` like every other baseline. All timing goes
//! through [`bbc_obs::WallClock`] — the workspace's one blessed wall-clock
//! boundary; it only ever feeds the latency report, never game state.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bbc_obs::{Clock as _, WallClock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::protocol::{Op, Probe, Reply, RequestFrame};
use crate::service::{oracle_digest, replay_digest, ServeConfig, ServeError};
use crate::socket::Client;

/// Load-generator parameters.
#[derive(Clone, Debug)]
pub struct LoadGen {
    /// Simulated logical clients.
    pub clients: u64,
    /// Total requests across all clients.
    pub requests: u64,
    /// Run seed; fixes every client's op stream.
    pub seed: u64,
    /// Concurrent connections (ignored in serial mode).
    pub connections: usize,
    /// One connection, deterministic round-robin submission order.
    pub serial: bool,
    /// The daemon's state directory, if it has one: enables the
    /// journal-replay verification in concurrent mode.
    pub verify_state_dir: Option<PathBuf>,
}

impl Default for LoadGen {
    fn default() -> Self {
        Self {
            clients: 1000,
            requests: 4000,
            seed: 0xBBC,
            connections: 4,
            serial: false,
            verify_state_dir: None,
        }
    }
}

/// What a load run measured and verified.
#[derive(Clone, Debug, Serialize)]
pub struct LoadReport {
    /// Simulated logical clients.
    pub clients: u64,
    /// Requests actually sent.
    pub requests: u64,
    /// The run seed.
    pub seed: u64,
    /// Connections used.
    pub connections: u64,
    /// Whether the run was serial (digest-pinnable) or concurrent.
    pub serial: bool,
    /// Wall-clock nanoseconds for the whole run.
    pub elapsed_ns: u64,
    /// Requests per second (requests / elapsed).
    pub throughput_rps: u64,
    /// Median request round-trip, nanoseconds.
    pub latency_p50_ns: u64,
    /// 95th-percentile request round-trip, nanoseconds.
    pub latency_p95_ns: u64,
    /// Worst request round-trip, nanoseconds.
    pub latency_max_ns: u64,
    /// Typed error replies received (expected under random churn: ops on
    /// dead nodes, over-budget strategies, …).
    pub errors: u64,
    /// Backpressure ([`Reply::Busy`]) retries absorbed.
    pub busy_retries: u64,
    /// The daemon's final state digest.
    pub digest: String,
    /// The independently-computed reference digest (single-threaded oracle
    /// in serial mode, journal replay in concurrent mode; empty when no
    /// reference was available).
    pub reference_digest: String,
    /// `digest == reference_digest` (vacuously false when no reference).
    pub verified: bool,
}

impl LoadReport {
    /// Records the run's latency quantiles into the bench registry (flush
    /// with [`criterion::write_results`]): the median under the historical
    /// `serve/loadgen_latency` key, plus the p95 and worst-case tails.
    pub fn record_bench(&self) {
        criterion::record("serve/loadgen_latency", u128::from(self.latency_p50_ns));
        criterion::record("serve/loadgen_latency_p95", u128::from(self.latency_p95_ns));
        criterion::record("serve/loadgen_latency_max", u128::from(self.latency_max_ns));
    }
}

/// One client's `count`-op stream: a pure function of `(seed, client)`.
pub fn client_ops(seed: u64, client: u64, count: u64, cfg: &ServeConfig) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(
        seed ^ client
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(client),
    );
    (0..count).map(|_| gen_op(&mut rng, cfg)).collect()
}

fn gen_op(rng: &mut SmallRng, cfg: &ServeConfig) -> Op {
    let peers = cfg.peers as u32;
    let node = rng.gen_range(0u32..peers);
    let strategy = |rng: &mut SmallRng| -> Vec<u32> {
        let len = rng.gen_range(1u64..=cfg.budget.min(3)) as usize;
        (0..len).map(|_| rng.gen_range(0u32..peers)).collect()
    };
    match rng.gen_range(0u32..100) {
        // Read-heavy mix: half the traffic observes, half churns.
        0..=19 => Op::Query(match rng.gen_range(0u32..4) {
            0 => Probe::SocialCost,
            1 => Probe::DisconnectedPairs,
            2 => Probe::Members,
            _ => Probe::NodeCost { node },
        }),
        20..=34 => Op::Advise { node },
        35..=54 => Op::Leave { node },
        55..=74 => Op::Join {
            node,
            strategy: strategy(rng),
        },
        75..=84 => Op::Shock {
            node,
            strategy: strategy(rng),
        },
        _ => Op::Step {
            steps: rng.gen_range(1u64..=32),
        },
    }
}

/// Splits `requests` across `clients` (earlier clients get the remainder).
fn per_client_counts(clients: u64, requests: u64) -> Vec<u64> {
    let base = requests / clients.max(1);
    let extra = requests % clients.max(1);
    (0..clients).map(|c| base + u64::from(c < extra)).collect()
}

/// The serial submission order: clients round-robin, each playing its
/// stream in order, with mutating ops numbered 1.. per client (queries
/// carry seq 0; only mutating ops are sequence-tracked). This is what one
/// connection sends and what the oracle replays.
pub fn serial_frames(load: &LoadGen, cfg: &ServeConfig) -> Vec<RequestFrame> {
    let counts = per_client_counts(load.clients, load.requests);
    let mut streams: Vec<std::vec::IntoIter<Op>> = (0..load.clients)
        .map(|c| client_ops(load.seed, c + 1, counts[c as usize], cfg).into_iter())
        .collect();
    let mut seqs: BTreeMap<u64, u64> = BTreeMap::new();
    let mut frames = Vec::with_capacity(load.requests as usize);
    let mut drained = false;
    while !drained {
        drained = true;
        for (i, stream) in streams.iter_mut().enumerate() {
            let Some(op) = stream.next() else { continue };
            drained = false;
            let client = i as u64 + 1;
            let seq = if op.mutates() {
                let next = seqs.get(&client).copied().unwrap_or(0) + 1;
                seqs.insert(client, next);
                next
            } else {
                0
            };
            frames.push(RequestFrame { client, seq, op });
        }
    }
    frames
}

/// Runs the load against a daemon listening on `socket`. `cfg` must match
/// the daemon's game configuration (it parameterizes op generation and the
/// oracle).
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures, [`ServeError::Config`] on an
/// invalid setup.
pub fn run(load: &LoadGen, cfg: &ServeConfig, socket: &Path) -> Result<LoadReport, ServeError> {
    cfg.validate()?;
    if load.clients == 0 {
        return Err(ServeError::Config(
            "the loadgen needs at least one client".to_string(),
        ));
    }
    if load.clients == crate::service::SERVICE_CLIENT {
        return Err(ServeError::Config(
            "client ids collide with the reserved service client".to_string(),
        ));
    }
    let connections = if load.serial {
        1
    } else {
        load.connections.max(1)
    };
    let clock = WallClock::new();
    let started = clock.now_ns();
    let (latencies, errors, busy_retries, sent) = run_concurrent(load, cfg, socket, connections)?;
    let elapsed_ns = clock.now_ns().saturating_sub(started);

    // Final digest, read over a fresh connection.
    let mut probe = Client::connect(socket, 0)?;
    let digest = match probe.request(Op::Query(Probe::Digest))? {
        Reply::Digest { digest } => digest,
        other => {
            return Err(ServeError::Config(format!(
                "digest probe answered {other:?}"
            )))
        }
    };

    let reference_digest = if load.serial {
        oracle_digest(cfg, &serial_frames(load, cfg))?
    } else if let Some(dir) = &load.verify_state_dir {
        replay_digest(cfg, dir)?.0
    } else {
        String::new()
    };

    let (p50, p95, max) = percentiles(latencies);
    Ok(LoadReport {
        clients: load.clients,
        requests: sent,
        seed: load.seed,
        connections: connections as u64,
        serial: load.serial,
        elapsed_ns,
        throughput_rps: sent
            .saturating_mul(1_000_000_000)
            .checked_div(elapsed_ns)
            .unwrap_or(0),
        latency_p50_ns: p50,
        latency_p95_ns: p95,
        latency_max_ns: max,
        errors,
        busy_retries,
        verified: !reference_digest.is_empty() && digest == reference_digest,
        digest,
        reference_digest,
    })
}

type RunTallies = (Vec<u64>, u64, u64, u64);

/// Drives every client's stream over `connections` connections: clients
/// are partitioned round-robin across them, and each connection
/// interleaves its clients round-robin, exactly like [`serial_frames`].
fn run_concurrent(
    load: &LoadGen,
    cfg: &ServeConfig,
    socket: &Path,
    connections: usize,
) -> Result<RunTallies, ServeError> {
    let counts = per_client_counts(load.clients, load.requests);
    let results = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for worker in 0..connections {
            let counts = &counts;
            handles.push(scope.spawn(move || -> Result<RunTallies, ServeError> {
                let mut streams: Vec<(u64, u64, std::vec::IntoIter<Op>)> = (0..load.clients)
                    .filter(|c| *c as usize % connections == worker)
                    .map(|c| {
                        let client = c + 1;
                        (
                            client,
                            0u64,
                            client_ops(load.seed, client, counts[c as usize], cfg).into_iter(),
                        )
                    })
                    .collect();
                let clock = WallClock::new();
                let mut conn = Client::connect(socket, 0)?;
                let mut latencies = Vec::new();
                let (mut errors, mut busy, mut sent) = (0u64, 0u64, 0u64);
                let mut drained = false;
                while !drained {
                    drained = true;
                    for (client, seq, stream) in &mut streams {
                        let Some(op) = stream.next() else { continue };
                        drained = false;
                        let frame_seq = if op.mutates() {
                            *seq += 1;
                            *seq
                        } else {
                            0
                        };
                        conn.client = *client;
                        let t0 = clock.now_ns();
                        let mut reply = conn.request_seq(frame_seq, op.clone())?;
                        while let Reply::Busy { .. } = reply {
                            busy += 1;
                            std::thread::sleep(std::time::Duration::from_micros(100));
                            reply = conn.request_seq(frame_seq, op.clone())?;
                        }
                        latencies.push(clock.now_ns().saturating_sub(t0));
                        sent += 1;
                        if matches!(reply, Reply::Error { .. }) {
                            errors += 1;
                        }
                    }
                }
                Ok((latencies, errors, busy, sent))
            }));
        }
        let mut merged: RunTallies = (Vec::new(), 0, 0, 0);
        for handle in handles {
            match handle.join() {
                Ok(Ok((lat, e, b, s))) => {
                    merged.0.extend(lat);
                    merged.1 += e;
                    merged.2 += b;
                    merged.3 += s;
                }
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(ServeError::Stopped),
            }
        }
        Ok(merged)
    })?;
    Ok(results)
}

fn percentiles(mut latencies: Vec<u64>) -> (u64, u64, u64) {
    if latencies.is_empty() {
        return (0, 0, 0);
    }
    latencies.sort_unstable();
    let n = latencies.len();
    let p50 = latencies[n / 2];
    let p95 = latencies[(n * 95 / 100).min(n - 1)];
    (p50, p95, latencies[n - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;
    use crate::socket::{run_listener, temp_socket_path};

    fn serve_cfg() -> ServeConfig {
        ServeConfig {
            peers: 12,
            budget: 2,
            ..ServeConfig::default()
        }
    }

    fn start_daemon(tag: &str, cfg: &ServeConfig) -> (std::path::PathBuf, Service) {
        let path = temp_socket_path(tag);
        let service = Service::start(cfg.clone()).unwrap();
        let handle = service.handle();
        let listen = path.clone();
        std::thread::spawn(move || {
            let _ = run_listener(&listen, &handle);
        });
        while !path.exists() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        (path, service)
    }

    #[test]
    fn client_streams_are_pure_in_seed_and_client() {
        let cfg = serve_cfg();
        assert_eq!(client_ops(7, 3, 16, &cfg), client_ops(7, 3, 16, &cfg));
        assert_ne!(client_ops(7, 3, 16, &cfg), client_ops(7, 4, 16, &cfg));
        assert_ne!(client_ops(7, 3, 16, &cfg), client_ops(8, 3, 16, &cfg));
    }

    #[test]
    fn serial_frames_number_mutating_ops_per_client() {
        let load = LoadGen {
            clients: 5,
            requests: 40,
            seed: 11,
            serial: true,
            ..LoadGen::default()
        };
        let cfg = serve_cfg();
        let frames = serial_frames(&load, &cfg);
        assert_eq!(frames.len(), 40);
        let mut last: BTreeMap<u64, u64> = BTreeMap::new();
        for f in &frames {
            if f.op.mutates() {
                let prev = last.insert(f.client, f.seq).unwrap_or(0);
                assert_eq!(f.seq, prev + 1, "client {} seq gap", f.client);
            } else {
                assert_eq!(f.seq, 0);
            }
        }
        // Deterministic: same load, same frames.
        assert_eq!(frames, serial_frames(&load, &cfg));
    }

    #[test]
    fn serial_run_verifies_against_the_oracle() {
        let cfg = serve_cfg();
        let (path, service) = start_daemon("loadgen-serial", &cfg);
        let load = LoadGen {
            clients: 20,
            requests: 120,
            seed: 99,
            serial: true,
            ..LoadGen::default()
        };
        let report = run(&load, &cfg, &path).unwrap();
        assert!(
            report.verified,
            "digest {} != oracle {}",
            report.digest, report.reference_digest
        );
        assert_eq!(report.requests, 120);
        // Shut the daemon down.
        let mut c = Client::connect(&path, 0).unwrap();
        let _ = c.request(Op::Shutdown);
        service.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_run_matches_journal_replay() {
        let dir =
            std::env::temp_dir().join(format!("bbc-serve-loadgen-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            state_dir: Some(dir.clone()),
            ..serve_cfg()
        };
        let (path, service) = start_daemon("loadgen-conc", &cfg);
        let load = LoadGen {
            clients: 16,
            requests: 96,
            seed: 5,
            connections: 3,
            serial: false,
            verify_state_dir: Some(dir.clone()),
        };
        let report = run(&load, &cfg, &path).unwrap();
        assert!(
            report.verified,
            "live digest {} != journal replay {}",
            report.digest, report.reference_digest
        );
        let mut c = Client::connect(&path, 0).unwrap();
        let _ = c.request(Op::Shutdown);
        service.join().unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
