//! The engine-owner loop, journal, and snapshot machinery.
//!
//! One thread owns the [`bbc_core::DistanceEngine`] (through a
//! [`bbc_core::Walk`]) and drains a **bounded** request queue in FIFO order.
//! That single serialization point is the whole determinism story: whatever
//! interleaving happens at the socket layer, the engine observes one total
//! order of accepted requests, and replaying that order single-threaded
//! (see [`oracle_digest`]) reproduces the identical
//! [`bbc_core::DistanceEngine::state_digest`]. The differential proptest in
//! `tests/differential.rs` pins exactly this.
//!
//! # Journal / snapshot format
//!
//! With a state directory configured, every accepted mutating op is
//! journaled (one JSON line, flushed before it is applied) to
//! `journal-<gen>.jsonl`, whose header line carries the service
//! [`Fingerprint`] and the digest of the state the journal starts from.
//! [`crate::protocol::Op::Snapshot`] writes `snapshot.jsonl` atomically
//! (tmp + rename; header, one row per live node, one row per client
//! sequence high-water mark, digest-bearing footer), starts generation
//! `gen+1`, and deletes the compacted journal — the PR-4 stream conventions
//! (fingerprint header, digest-certified completion, dropped truncated
//! trailing line on resume) applied to service state.
//!
//! Journaling *before* applying makes the journal a faithful prefix of the
//! accepted order even across a mid-op crash: an op that errors is
//! journaled and re-errors identically on replay (every transition is a
//! pure function of the state), so recovery converges on the exact
//! pre-crash digest. Duplicate suppression (client sequence numbers,
//! [`crate::protocol::Reply::Skipped`]) gives reconnecting clients
//! exactly-once semantics on top.
//!
//! # Observability
//!
//! The owner thread keeps a [`bbc_obs::Registry`]: per-op dispatch-latency
//! histograms (`serve/op_latency/<op>`), journal append/rotation timings,
//! request/error counters, and — folded in at read time — the engine's own
//! counters via `Walk::publish_metrics` plus the cross-thread
//! [`Reply::Busy`] and queue-depth atomics shared with every [`Handle`].
//! [`Probe::Metrics`] returns the whole document as versioned JSON, and
//! [`ServeConfig::metrics_file`] dumps Prometheus text every
//! [`ServeConfig::metrics_every`] handled requests (a deterministic
//! trigger). Metrics are strictly observational: they are journaled
//! nowhere, hash into no digest, and no control path reads them back — the
//! kill/restore and differential suites pin that replies and
//! `state_digest` are byte-identical with metrics on, off, or sampled.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bbc_core::{Configuration, GameSpec, NodeId, Scheduler, Walk, WalkOutcome};
use bbc_experiments::Fingerprint;
use bbc_graph::BitSet;
use bbc_obs::{Clock, Registry, WallClock};
use serde::{Deserialize, Serialize};

use crate::protocol::{
    digest_hex, encode_line, ErrorCode, Op, PhaseOutcome, Probe, Reply, ReplyFrame, RequestFrame,
};

/// The snapshot file name inside a state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.jsonl";

/// The logical client id the service itself journals synthetic auto-settle
/// rounds under.
pub const SERVICE_CLIENT: u64 = u64::MAX;

/// How long [`Service::join`] waits for socket connections to finish
/// writing their `Shutdown` replies.
const BYE_GRACE: Duration = Duration::from_secs(5);

/// Journal file name for a generation.
pub fn journal_file(gen: u64) -> String {
    format!("journal-{gen}.jsonl")
}

/// Everything that decides the served game and its trajectory. Two services
/// with equal configs accept the same requests to the same digests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Peer universe size `n` of the uniform game.
    pub peers: usize,
    /// Uniform link budget `k`.
    pub budget: u64,
    /// The deterministic best-response scheduler for step/settle rounds.
    /// [`Scheduler::Random`] is refused: its RNG state is not captured by
    /// snapshots, so restored services could diverge.
    pub scheduler: Scheduler,
    /// Bounded request-queue depth; senders get an explicit
    /// [`Reply::Busy`] when it is full.
    pub queue_depth: usize,
    /// Journal/snapshot directory; `None` serves from memory only.
    pub state_dir: Option<PathBuf>,
    /// Boot by restoring from `state_dir` instead of initializing fresh.
    pub restore: bool,
    /// Run a journaled settling round after every this-many successful
    /// membership/shock events (0 disables auto-settle). This is the event
    /// batching between best-response rounds: events queued while a round
    /// runs are drained afterwards, in order.
    pub auto_settle_every: u64,
    /// Step budget of each auto-settle round.
    pub auto_settle_budget: u64,
    /// Dump the metrics registry as Prometheus text to this path (atomic
    /// tmp + rename) every [`metrics_every`](Self::metrics_every) handled
    /// requests. `None` disables the dump; [`Probe::Metrics`] works either
    /// way. Purely observational — never part of the fingerprint.
    pub metrics_file: Option<PathBuf>,
    /// Request-count period of the metrics dump. Counting handled requests
    /// (not wall time) keeps the trigger deterministic for a given accepted
    /// order.
    pub metrics_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            peers: 32,
            budget: 2,
            scheduler: Scheduler::RoundRobin,
            queue_depth: 128,
            state_dir: None,
            restore: false,
            auto_settle_every: 0,
            auto_settle_budget: 100_000,
            metrics_file: None,
            metrics_every: 64,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration (game size, scheduler determinism,
    /// queue depth).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] with the violated constraint.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.peers < 2 {
            return Err(ServeError::Config(
                "the served game needs at least 2 peers".to_string(),
            ));
        }
        if self.peers > u32::MAX as usize {
            return Err(ServeError::Config(
                "peer ids must fit the protocol's u32".to_string(),
            ));
        }
        if self.budget == 0 {
            return Err(ServeError::Config(
                "the uniform budget must be at least 1".to_string(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::Config(
                "the request queue needs depth of at least 1".to_string(),
            ));
        }
        if self.metrics_file.is_some() && self.metrics_every == 0 {
            return Err(ServeError::Config(
                "a metrics file needs a dump period of at least 1 request".to_string(),
            ));
        }
        match &self.scheduler {
            Scheduler::Random { .. } => Err(ServeError::Config(
                "the random scheduler's RNG state is not snapshot-capturable; \
                 use a deterministic scheduler"
                    .to_string(),
            )),
            Scheduler::RoundRobinOrder(order) => {
                let mut seen = vec![false; self.peers];
                if order.len() != self.peers
                    || order.iter().any(|v| {
                        v.index() >= self.peers || std::mem::replace(&mut seen[v.index()], true)
                    })
                {
                    return Err(ServeError::Config(
                        "the explicit round-robin order must be a permutation of all peers"
                            .to_string(),
                    ));
                }
                Ok(())
            }
            Scheduler::RoundRobin | Scheduler::MaxCostFirst => Ok(()),
        }
    }

    /// The canonical fingerprint persisted in every journal and snapshot
    /// header; restore refuses state written under a different one.
    /// Runtime knobs that never change a trajectory (queue depth, state
    /// dir, restore flag, metrics file/period) are deliberately excluded;
    /// auto-settle rounds are *journaled*, so they replay from the records,
    /// not from the knobs.
    pub fn fingerprint(&self) -> String {
        let scheduler = match &self.scheduler {
            Scheduler::RoundRobin => "round-robin".to_string(),
            Scheduler::MaxCostFirst => "max-cost-first".to_string(),
            Scheduler::RoundRobinOrder(order) => {
                let mut h = bbc_graph::digest::Fnv1a::new();
                for v in order {
                    h.write_u64(v.index() as u64);
                }
                format!("order-{:016x}", h.finish())
            }
            Scheduler::Random { seed } => format!("random-{seed}"),
        };
        Fingerprint::new("serve")
            .param("peers", self.peers)
            .param("budget", self.budget)
            .param("scheduler", scheduler)
            .canonical()
    }
}

/// Service-layer failures (distinct from in-protocol error *replies*, which
/// keep the service running).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid [`ServeConfig`] or an unusable state directory.
    Config(String),
    /// An I/O failure, with the path it happened on.
    Io {
        /// The file or directory involved.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// Persisted state failed an integrity check (fingerprint mismatch,
    /// missing footer, digest divergence, mid-file garbage).
    Corrupt {
        /// The offending file.
        path: String,
        /// What failed.
        message: String,
    },
    /// A game-layer error escaped to the service layer (only possible while
    /// rebuilding persisted state; live requests turn these into typed
    /// replies).
    Game(bbc_core::Error),
    /// The owner loop is gone.
    Stopped,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "config: {m}"),
            ServeError::Io { path, message } => write!(f, "{path}: {message}"),
            ServeError::Corrupt { path, message } => write!(f, "{path}: corrupt state: {message}"),
            ServeError::Game(e) => write!(f, "game: {e}"),
            ServeError::Stopped => write!(f, "service stopped"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<bbc_core::Error> for ServeError {
    fn from(e: bbc_core::Error) -> Self {
        ServeError::Game(e)
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> ServeError {
    ServeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn corrupt(path: &Path, message: impl Into<String>) -> ServeError {
    ServeError::Corrupt {
        path: path.display().to_string(),
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Persisted line shapes
// ---------------------------------------------------------------------------

/// One line of `snapshot.jsonl`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum SnapLine {
    /// First line: run-config identity and which journal continues it.
    Head {
        fingerprint: String,
        journal_gen: u64,
    },
    /// One live node and its strategy.
    Node { node: u32, strategy: Vec<u32> },
    /// One client's journaled sequence high-water mark.
    Client { client: u64, seq: u64 },
    /// Last line: row count and the digest this snapshot certifies. A
    /// snapshot without its footer is corrupt (writes are atomic).
    Foot { rows: u64, digest: String },
}

/// One line of `journal-<gen>.jsonl`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum JournalLine {
    /// First line: run-config identity, generation, and the digest of the
    /// state the records apply on top of.
    Head {
        fingerprint: String,
        gen: u64,
        base_digest: String,
    },
    /// One accepted mutating request, in acceptance order.
    Record { client: u64, seq: u64, op: Op },
}

// ---------------------------------------------------------------------------
// Queue plumbing
// ---------------------------------------------------------------------------

struct Job {
    frame: RequestFrame,
    reply: Sender<ReplyFrame>,
}

/// Counters that live on the caller side of the queue, where the owner
/// thread never executes: Busy rejections happen in [`Handle::try_call`]
/// and queue occupancy changes on every send/recv. Plain relaxed atomics —
/// the owner folds point-in-time readings into the registry when a metrics
/// document is built, and nothing orders against them.
#[derive(Clone, Debug, Default)]
struct SharedCounters {
    /// Total [`Dispatch::Busy`] rejections across all handles.
    busy: Arc<AtomicU64>,
    /// Requests currently queued or being processed.
    in_flight: Arc<AtomicU64>,
    /// `Shutdown` requests taken off a socket whose reply is not yet
    /// written back (see [`Service::join`]).
    byes_unwritten: Arc<(Mutex<u64>, Condvar)>,
}

/// How a dispatched request fared at the queue layer.
#[derive(Clone, Debug, PartialEq)]
pub enum Dispatch {
    /// The owner processed the request.
    Reply(ReplyFrame),
    /// The bounded queue was full (explicit backpressure; retry later).
    Busy {
        /// The exhausted queue capacity.
        depth: u64,
    },
    /// The owner loop has exited.
    Gone,
}

/// A cloneable submission handle to a running [`Service`].
#[derive(Clone, Debug)]
pub struct Handle {
    tx: SyncSender<Job>,
    depth: usize,
    shared: SharedCounters,
}

impl Handle {
    /// Submits a request, blocking while the queue is full (in-process
    /// clients); returns [`Dispatch::Gone`] after shutdown.
    pub fn call(&self, frame: RequestFrame) -> Dispatch {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        if self
            .tx
            .send(Job {
                frame,
                reply: reply_tx,
            })
            .is_err()
        {
            return Dispatch::Gone;
        }
        self.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        let dispatch = match reply_rx.recv() {
            Ok(reply) => Dispatch::Reply(reply),
            Err(_) => Dispatch::Gone,
        };
        self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        dispatch
    }

    /// Submits a request without blocking on a full queue: the socket
    /// layer's path, so one slow round never wedges readers — they get
    /// [`Dispatch::Busy`] to relay as an explicit backpressure reply.
    pub fn try_call(&self, frame: RequestFrame) -> Dispatch {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        match self.tx.try_send(Job {
            frame,
            reply: reply_tx,
        }) {
            Ok(()) => {
                self.shared.in_flight.fetch_add(1, Ordering::Relaxed);
                let dispatch = match reply_rx.recv() {
                    Ok(reply) => Dispatch::Reply(reply),
                    Err(_) => Dispatch::Gone,
                };
                self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                dispatch
            }
            Err(TrySendError::Full(_)) => {
                self.shared.busy.fetch_add(1, Ordering::Relaxed);
                Dispatch::Busy {
                    depth: self.depth as u64,
                }
            }
            Err(TrySendError::Disconnected(_)) => Dispatch::Gone,
        }
    }

    /// Notes that a socket connection is submitting `Shutdown`:
    /// [`Service::join`] then waits until [`Handle::bye_written`].
    pub(crate) fn bye_expected(&self) {
        let (count, _) = &*self.shared.byes_unwritten;
        // Every update leaves the count valid, so a poisoned lock is safe
        // to recover.
        *count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }

    /// Notes that the reply to a [`Handle::bye_expected`] `Shutdown` was
    /// written back, or that its write failed.
    pub(crate) fn bye_written(&self) {
        let (count, written) = &*self.shared.byes_unwritten;
        let mut count = count.lock().unwrap_or_else(PoisonError::into_inner);
        *count = count.saturating_sub(1);
        written.notify_all();
    }
}

/// A running service: the owner thread plus its submission handle.
#[derive(Debug)]
pub struct Service {
    handle: Handle,
    thread: JoinHandle<Result<(), ServeError>>,
}

impl Service {
    /// Validates `cfg`, boots the engine (restoring from the state
    /// directory when asked), and starts the owner thread. Boot failures —
    /// bad config, corrupt state — surface here, not on first request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] / [`ServeError::Io`] /
    /// [`ServeError::Corrupt`] from validation or restore.
    pub fn start(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let depth = cfg.queue_depth;
        let shared = SharedCounters::default();
        let owner_shared = shared.clone();
        let (tx, rx) = std::sync::mpsc::sync_channel(depth);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("bbc-serve-owner".to_string())
            .spawn(move || owner_loop(cfg, owner_shared, rx, &ready_tx))
            .map_err(|e| ServeError::Config(format!("cannot spawn the owner thread: {e}")))?;
        match ready_rx.recv() {
            Ok(Ok(())) => Ok(Self {
                handle: Handle { tx, depth, shared },
                thread,
            }),
            Ok(Err(e)) => {
                let _ = thread.join();
                Err(e)
            }
            Err(_) => Err(ServeError::Stopped),
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> Handle {
        self.handle.clone()
    }

    /// Waits for the owner loop to exit (after [`Op::Shutdown`] or when
    /// every handle is dropped), then for any socket connection still
    /// writing a `Shutdown` reply — at most a few seconds — so a daemon
    /// that returns from here never exits before its `Bye` is on the wire.
    ///
    /// # Errors
    ///
    /// The owner loop's terminal error, or [`ServeError::Stopped`] if the
    /// thread panicked.
    pub fn join(self) -> Result<(), ServeError> {
        let byes = Arc::clone(&self.handle.shared.byes_unwritten);
        drop(self.handle);
        let result = match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(ServeError::Stopped),
        };
        let (count, written) = &*byes;
        let count = count.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = written.wait_timeout_while(count, BYE_GRACE, |count| *count > 0);
        result
    }
}

fn owner_loop(
    cfg: ServeConfig,
    shared: SharedCounters,
    rx: Receiver<Job>,
    ready: &Sender<Result<(), ServeError>>,
) -> Result<(), ServeError> {
    let spec = GameSpec::uniform(cfg.peers, cfg.budget);
    let mut state = match OwnerState::boot(&spec, &cfg, shared) {
        Ok(state) => {
            let _ = ready.send(Ok(()));
            state
        }
        Err(e) => {
            let _ = ready.send(Err(e.clone()));
            return Err(e);
        }
    };
    while let Ok(job) = rx.recv() {
        let stop = matches!(job.frame.op, Op::Shutdown);
        let reply = state.handle(job.frame);
        let _ = job.reply.send(reply);
        if stop {
            break;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The owner state machine
// ---------------------------------------------------------------------------

/// Engine + journal state owned by the single service thread.
struct OwnerState<'a> {
    spec: &'a GameSpec,
    cfg: &'a ServeConfig,
    fingerprint: String,
    walk: Walk<'a>,
    /// Per-client journaled sequence high-water marks (duplicate
    /// suppression). A `BTreeMap` keeps snapshot row order deterministic.
    seqs: BTreeMap<u64, u64>,
    journal: Option<File>,
    journal_gen: u64,
    events_since_settle: u64,
    /// The metrics registry. Written on every handled request, read only
    /// when a document is built — never by any state transition.
    metrics: Registry,
    /// The wall clock behind every latency observation. A trait object so
    /// tests can substitute [`bbc_obs::ManualClock`]; production uses the
    /// one blessed [`WallClock`].
    clock: Box<dyn Clock>,
    /// Caller-side atomics (Busy rejections, queue occupancy) folded into
    /// the registry at document-build time.
    shared: SharedCounters,
    /// Requests handled since boot; drives the deterministic
    /// [`ServeConfig::metrics_every`] dump trigger.
    requests_handled: u64,
}

/// What a state-directory load produced.
struct Loaded<'a> {
    walk: Walk<'a>,
    seqs: BTreeMap<u64, u64>,
    journal_gen: u64,
    replayed: u64,
    /// Append-ready journal file (absent on read-only loads).
    journal: Option<File>,
}

fn fresh_walk<'a>(spec: &'a GameSpec, cfg: &ServeConfig) -> Walk<'a> {
    Walk::new(spec, Configuration::empty(cfg.peers)).with_scheduler(cfg.scheduler.clone())
}

impl<'a> OwnerState<'a> {
    fn boot(
        spec: &'a GameSpec,
        cfg: &'a ServeConfig,
        shared: SharedCounters,
    ) -> Result<Self, ServeError> {
        let fingerprint = cfg.fingerprint();
        let metrics = Registry::new();
        let clock: Box<dyn Clock> = Box::new(WallClock::new());
        let Some(dir) = &cfg.state_dir else {
            if cfg.restore {
                return Err(ServeError::Config(
                    "restore requested without a state directory".to_string(),
                ));
            }
            return Ok(Self {
                spec,
                cfg,
                fingerprint,
                walk: fresh_walk(spec, cfg),
                seqs: BTreeMap::new(),
                journal: None,
                journal_gen: 0,
                events_since_settle: 0,
                metrics,
                clock,
                shared,
                requests_handled: 0,
            });
        };
        fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let has_state = dir.join(SNAPSHOT_FILE).is_file() || dir.join(journal_file(1)).is_file();
        if cfg.restore {
            if !has_state {
                return Err(ServeError::Config(format!(
                    "{}: nothing to restore (no snapshot or journal)",
                    dir.display()
                )));
            }
            let loaded = load_state(spec, cfg, dir, false)?;
            return Ok(Self {
                spec,
                cfg,
                fingerprint,
                walk: loaded.walk,
                seqs: loaded.seqs,
                journal: loaded.journal,
                journal_gen: loaded.journal_gen,
                events_since_settle: 0,
                metrics,
                clock,
                shared,
                requests_handled: 0,
            });
        }
        if has_state {
            return Err(ServeError::Config(format!(
                "{}: state directory already holds service state; restore it or point at a \
                 clean directory",
                dir.display()
            )));
        }
        let walk = fresh_walk(spec, cfg);
        let journal = create_journal(dir, 1, &fingerprint, &digest_hex(walk.state_digest()))?;
        Ok(Self {
            spec,
            cfg,
            fingerprint,
            walk,
            seqs: BTreeMap::new(),
            journal: Some(journal),
            journal_gen: 1,
            events_since_settle: 0,
            metrics,
            clock,
            shared,
            requests_handled: 0,
        })
    }

    fn handle(&mut self, frame: RequestFrame) -> ReplyFrame {
        let seq = frame.seq;
        let kind = op_kind(&frame.op);
        let begin = self.clock.now_ns();
        let reply = self.dispatch(frame);
        let elapsed = self.clock.now_ns().saturating_sub(begin);
        self.metrics
            .observe(&format!("serve/op_latency/{kind}"), elapsed);
        self.metrics.add_counter("serve/requests", 1);
        if matches!(reply, Reply::Error { .. }) {
            self.metrics.add_counter("serve/replies_error", 1);
        }
        self.requests_handled += 1;
        self.maybe_dump_metrics();
        ReplyFrame { seq, reply }
    }

    fn dispatch(&mut self, frame: RequestFrame) -> Reply {
        let RequestFrame { client, seq, op } = frame;
        if op.mutates() {
            if let Some(&last) = self.seqs.get(&client) {
                if seq <= last {
                    return Reply::Skipped { last };
                }
            }
            if let Err(e) = self.journal_record(client, seq, &op) {
                return Reply::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                };
            }
            self.seqs.insert(client, seq);
            let reply = match apply_op(&mut self.walk, &op) {
                Ok(reply) => reply,
                Err(e) => return error_reply(&e),
            };
            // Auto-settle batches best-response rounds between accepted
            // membership/shock events; the synthetic round is journaled
            // under SERVICE_CLIENT, so replay repeats it from the record
            // instead of re-deriving the trigger.
            if matches!(op, Op::Join { .. } | Op::Leave { .. } | Op::Shock { .. })
                && self.cfg.auto_settle_every > 0
            {
                self.events_since_settle += 1;
                if self.events_since_settle >= self.cfg.auto_settle_every {
                    self.events_since_settle = 0;
                    let settle = Op::Settle {
                        max_steps: self.cfg.auto_settle_budget,
                    };
                    let next = self.seqs.get(&SERVICE_CLIENT).copied().unwrap_or(0) + 1;
                    if let Err(e) = self.journal_record(SERVICE_CLIENT, next, &settle) {
                        return Reply::Error {
                            code: ErrorCode::Internal,
                            message: e.to_string(),
                        };
                    }
                    self.seqs.insert(SERVICE_CLIENT, next);
                    let _ = apply_op(&mut self.walk, &settle);
                    // The event's ack carries the post-settle digest.
                    return Reply::Ok {
                        digest: digest_hex(self.walk.state_digest()),
                    };
                }
            }
            return reply;
        }
        match op {
            Op::Query(probe) => self.probe(&probe),
            Op::Advise { node } => match self.walk.advise(NodeId::new(node as usize)) {
                Ok(outcome) => Reply::Advice {
                    node,
                    current_cost: outcome.current_cost,
                    best_cost: outcome.best_cost,
                    improves: outcome.improves(),
                    best_strategy: outcome
                        .best_strategy
                        .iter()
                        .map(|v| v.index() as u32)
                        .collect(),
                    evaluations: outcome.evaluations,
                    bounds_hit: outcome.bounds_hit,
                    rows_materialized: outcome.rows_materialized,
                },
                Err(e) => error_reply(&e),
            },
            Op::Snapshot => {
                // state_digest hashes the physical CSR arenas, which
                // strategy patches (moves, shocks) leave history-dependent;
                // only a canonicalized engine has a digest a restore's fresh
                // rebuild can reproduce. The compaction changes the digest,
                // so it is journaled as a synthetic record first — if the
                // snapshot write fails partway, replaying the surviving
                // journal still lands on the live state.
                let next = self.seqs.get(&SERVICE_CLIENT).copied().unwrap_or(0) + 1;
                if let Err(e) = self.journal_record(SERVICE_CLIENT, next, &Op::Snapshot) {
                    return Reply::Error {
                        code: ErrorCode::Internal,
                        message: e.to_string(),
                    };
                }
                self.seqs.insert(SERVICE_CLIENT, next);
                self.walk.canonicalize();
                match self.snapshot() {
                    Ok(reply) => reply,
                    Err(e) => serve_error_reply(&e),
                }
            }
            Op::Restore => match self.restore() {
                Ok(reply) => reply,
                Err(e) => serve_error_reply(&e),
            },
            Op::Shutdown => Reply::Bye,
            // mutates() filtered these above.
            Op::Join { .. }
            | Op::Leave { .. }
            | Op::Shock { .. }
            | Op::Step { .. }
            | Op::Settle { .. } => Reply::Error {
                code: ErrorCode::Internal,
                message: "mutating op fell through".to_string(),
            },
        }
    }

    fn probe(&mut self, probe: &Probe) -> Reply {
        match probe {
            Probe::NodeCost { node } => match self.walk.node_cost(NodeId::new(*node as usize)) {
                Ok(cost) => Reply::Cost { node: *node, cost },
                Err(e) => error_reply(&e),
            },
            Probe::SocialCost => Reply::SocialCost {
                cost: self.walk.social_cost(),
            },
            Probe::DisconnectedPairs => Reply::DisconnectedPairs {
                pairs: self.walk.disconnected_live_pairs(),
            },
            Probe::Digest => Reply::Digest {
                digest: digest_hex(self.walk.state_digest()),
            },
            Probe::Members => Reply::Members {
                nodes: self.walk.live_nodes().map(|v| v.index() as u32).collect(),
            },
            Probe::ClientSeq { client } => Reply::Seq {
                client: *client,
                seq: self.seqs.get(client).copied().unwrap_or(0),
            },
            Probe::Metrics => match serde_json::from_str(&self.metrics_document()) {
                Ok(metrics) => Reply::Metrics { metrics },
                Err(e) => Reply::Error {
                    code: ErrorCode::Internal,
                    message: format!("metrics document failed to re-parse: {e}"),
                },
            },
        }
    }

    /// Folds the engine counters and the caller-side atomics into the
    /// registry, then renders the versioned JSON document. Point-in-time
    /// reads only; nothing here touches engine state.
    fn metrics_document(&mut self) -> String {
        self.refresh_metrics();
        self.metrics.to_json()
    }

    fn refresh_metrics(&mut self) {
        self.walk.publish_metrics(&mut self.metrics);
        self.metrics.set_counter(
            "serve/busy_rejections",
            self.shared.busy.load(Ordering::Relaxed),
        );
        self.metrics.set_gauge(
            "serve/queue_depth",
            self.shared.in_flight.load(Ordering::Relaxed),
        );
        self.metrics
            .set_gauge("serve/queue_capacity", self.cfg.queue_depth as u64);
        self.metrics
            .set_gauge("serve/journal_gen", self.journal_gen);
    }

    /// The deterministic Prometheus dump: every `metrics_every` handled
    /// requests, atomically (tmp + rename). Best-effort by design — a full
    /// disk must not turn an otherwise-valid request into an error reply.
    fn maybe_dump_metrics(&mut self) {
        let Some(path) = self.cfg.metrics_file.clone() else {
            return;
        };
        if self.cfg.metrics_every == 0
            || !self.requests_handled.is_multiple_of(self.cfg.metrics_every)
        {
            return;
        }
        self.refresh_metrics();
        let text = self.metrics.to_prometheus();
        let tmp = path.with_extension("tmp");
        if fs::write(&tmp, text).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
    }

    fn journal_record(&mut self, client: u64, seq: u64, op: &Op) -> Result<(), ServeError> {
        let Some(journal) = &mut self.journal else {
            return Ok(()); // memory-only service
        };
        let line = encode_line(&JournalLine::Record {
            client,
            seq,
            op: op.clone(),
        })
        .map_err(ServeError::Config)?;
        let begin = self.clock.now_ns();
        let result = journal
            .write_all(line.as_bytes())
            .and_then(|()| journal.flush())
            .map_err(|e| ServeError::Io {
                path: journal_file(self.journal_gen),
                message: e.to_string(),
            });
        let elapsed = self.clock.now_ns().saturating_sub(begin);
        self.metrics.observe("serve/journal_append_ns", elapsed);
        result
    }

    /// Writes `snapshot.jsonl` atomically and rotates the journal to the
    /// next generation.
    fn snapshot(&mut self) -> Result<Reply, ServeError> {
        let Some(dir) = &self.cfg.state_dir else {
            return Err(ServeError::Config(
                "snapshot requires a state directory".to_string(),
            ));
        };
        let rotate_begin = self.clock.now_ns();
        let digest = digest_hex(self.walk.state_digest());
        let next_gen = self.journal_gen + 1;
        // New journal first: a crash between here and the rename leaves the
        // old snapshot + old journal pair intact (the orphan next-gen file
        // is truncated on the next rotation).
        let new_journal = create_journal(dir, next_gen, &self.fingerprint, &digest)?;

        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let mut out = String::new();
        let mut rows = 0u64;
        push_line(
            &mut out,
            &SnapLine::Head {
                fingerprint: self.fingerprint.clone(),
                journal_gen: next_gen,
            },
        )?;
        let live: Vec<NodeId> = self.walk.live_nodes().collect();
        for u in live {
            push_line(
                &mut out,
                &SnapLine::Node {
                    node: u.index() as u32,
                    strategy: self
                        .walk
                        .config()
                        .strategy(u)
                        .iter()
                        .map(|v| v.index() as u32)
                        .collect(),
                },
            )?;
            rows += 1;
        }
        for (&client, &seq) in &self.seqs {
            push_line(&mut out, &SnapLine::Client { client, seq })?;
        }
        push_line(
            &mut out,
            &SnapLine::Foot {
                rows,
                digest: digest.clone(),
            },
        )?;
        fs::write(&tmp, out).map_err(|e| io_err(&tmp, &e))?;
        let snap = dir.join(SNAPSHOT_FILE);
        fs::rename(&tmp, &snap).map_err(|e| io_err(&snap, &e))?;

        let old = dir.join(journal_file(self.journal_gen));
        self.journal = Some(new_journal);
        self.journal_gen = next_gen;
        let _ = fs::remove_file(old); // best-effort: superseded by the snapshot
        let elapsed = self.clock.now_ns().saturating_sub(rotate_begin);
        self.metrics.observe("serve/journal_rotate_ns", elapsed);
        Ok(Reply::Snapshotted {
            rows,
            journal_gen: next_gen,
            digest,
        })
    }

    /// Rebuilds the engine from the persisted snapshot + journal. On an
    /// intact directory this is idempotent — the journal holds every
    /// accepted mutating op since the snapshot, so replay lands on the
    /// current digest.
    fn restore(&mut self) -> Result<Reply, ServeError> {
        let Some(dir) = &self.cfg.state_dir else {
            return Err(ServeError::Config(
                "restore requires a state directory".to_string(),
            ));
        };
        self.journal = None; // close before reopening for append
        let loaded = load_state(self.spec, self.cfg, dir, false)?;
        self.walk = loaded.walk;
        self.seqs = loaded.seqs;
        self.journal_gen = loaded.journal_gen;
        self.journal = loaded.journal;
        self.events_since_settle = 0;
        Ok(Reply::Restored {
            digest: digest_hex(self.walk.state_digest()),
            replayed: loaded.replayed,
        })
    }
}

fn push_line<T: Serialize>(out: &mut String, line: &T) -> Result<(), ServeError> {
    out.push_str(&encode_line(line).map_err(ServeError::Config)?);
    Ok(())
}

fn create_journal(
    dir: &Path,
    gen: u64,
    fingerprint: &str,
    base_digest: &str,
) -> Result<File, ServeError> {
    let path = dir.join(journal_file(gen));
    let mut file = File::create(&path).map_err(|e| io_err(&path, &e))?;
    let head = encode_line(&JournalLine::Head {
        fingerprint: fingerprint.to_string(),
        gen,
        base_digest: base_digest.to_string(),
    })
    .map_err(ServeError::Config)?;
    file.write_all(head.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| io_err(&path, &e))?;
    Ok(file)
}

/// The fixed label an op's dispatch latency is recorded under
/// (`serve/op_latency/<kind>`). Static strings keep the metric namespace
/// bounded regardless of payload.
fn op_kind(op: &Op) -> &'static str {
    match op {
        Op::Join { .. } => "join",
        Op::Leave { .. } => "leave",
        Op::Shock { .. } => "shock",
        Op::Query(_) => "query",
        Op::Advise { .. } => "advise",
        Op::Step { .. } => "step",
        Op::Settle { .. } => "settle",
        Op::Snapshot => "snapshot",
        Op::Restore => "restore",
        Op::Shutdown => "shutdown",
    }
}

/// The state transition of one mutating op — shared verbatim by the live
/// path, journal replay, and the single-threaded oracle, so all three agree
/// byte-for-byte.
fn apply_op(walk: &mut Walk<'_>, op: &Op) -> Result<Reply, bbc_core::Error> {
    let nid = |node: &u32| NodeId::new(*node as usize);
    let nids = |targets: &[u32]| targets.iter().map(|t| NodeId::new(*t as usize)).collect();
    match op {
        Op::Join { node, strategy } => {
            walk.add_node(nid(node), nids(strategy))?;
        }
        Op::Leave { node } => walk.remove_node(nid(node))?,
        Op::Shock { node, strategy } => walk.shock_node(nid(node), nids(strategy))?,
        Op::Step { steps } | Op::Settle { max_steps: steps } => {
            // Reset the scheduler phase so the round is a pure function of
            // (configuration, membership, scheduler) — the snapshot
            // compaction contract (see Walk::reset_phase).
            walk.reset_phase();
            let steps_before = walk.stats().steps;
            let moves_before = walk.stats().moves;
            let outcome = walk.run(steps_before.saturating_add(*steps))?;
            return Ok(Reply::Phase {
                outcome: match outcome {
                    WalkOutcome::Equilibrium { .. } => PhaseOutcome::Equilibrium,
                    WalkOutcome::Cycle { .. } => PhaseOutcome::Cycle,
                    WalkOutcome::StepLimit { .. } => PhaseOutcome::StepLimit,
                },
                steps: walk.stats().steps - steps_before,
                moves: walk.stats().moves - moves_before,
                social_cost: walk.social_cost(),
                digest: digest_hex(walk.state_digest()),
            });
        }
        // Journal replay of the synthetic record dispatch writes before a
        // snapshot: repeat the arena compaction (it changes the digest).
        Op::Snapshot => walk.canonicalize(),
        _ => {
            return Ok(Reply::Error {
                code: ErrorCode::Internal,
                message: "apply_op called with a non-mutating op".to_string(),
            })
        }
    }
    Ok(Reply::Ok {
        digest: digest_hex(walk.state_digest()),
    })
}

fn error_reply(e: &bbc_core::Error) -> Reply {
    let code = match e {
        bbc_core::Error::NodeNotLive { .. }
        | bbc_core::Error::NodeAlreadyLive { .. }
        | bbc_core::Error::TargetNotLive { .. } => ErrorCode::NotLive,
        _ => ErrorCode::Game,
    };
    Reply::Error {
        code,
        message: e.to_string(),
    }
}

fn serve_error_reply(e: &ServeError) -> Reply {
    let code = match e {
        ServeError::Config(_) => ErrorCode::Unsupported,
        _ => ErrorCode::Internal,
    };
    Reply::Error {
        code,
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Restore / replay
// ---------------------------------------------------------------------------

fn load_state<'a>(
    spec: &'a GameSpec,
    cfg: &ServeConfig,
    dir: &Path,
    read_only: bool,
) -> Result<Loaded<'a>, ServeError> {
    let fingerprint = cfg.fingerprint();
    let snap_path = dir.join(SNAPSHOT_FILE);
    let (mut walk, mut seqs, journal_gen) = if snap_path.is_file() {
        read_snapshot(spec, cfg, &fingerprint, &snap_path)?
    } else {
        (fresh_walk(spec, cfg), BTreeMap::new(), 1)
    };
    let journal_path = dir.join(journal_file(journal_gen));
    let mut replayed = 0;
    let mut valid_len = 0u64;
    let mut has_header = false;
    if journal_path.is_file() {
        (replayed, valid_len, has_header) = replay_journal(
            &mut walk,
            &mut seqs,
            &fingerprint,
            journal_gen,
            &journal_path,
        )?;
    }
    let journal = if read_only {
        None
    } else if journal_path.is_file() {
        // Reopen for append, truncating any dropped partial trailing line
        // so the next record starts on a clean line boundary.
        let mut file = OpenOptions::new()
            .write(true)
            .open(&journal_path)
            .map_err(|e| io_err(&journal_path, &e))?;
        file.set_len(valid_len)
            .map_err(|e| io_err(&journal_path, &e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err(&journal_path, &e))?;
        if !has_header {
            // The crash landed before the header line survived; re-seed it.
            let head = encode_line(&JournalLine::Head {
                fingerprint: fingerprint.clone(),
                gen: journal_gen,
                base_digest: digest_hex(walk.state_digest()),
            })
            .map_err(ServeError::Config)?;
            file.write_all(head.as_bytes())
                .and_then(|()| file.flush())
                .map_err(|e| io_err(&journal_path, &e))?;
        }
        Some(file)
    } else {
        Some(create_journal(
            dir,
            journal_gen,
            &fingerprint,
            &digest_hex(walk.state_digest()),
        )?)
    };
    Ok(Loaded {
        walk,
        seqs,
        journal_gen,
        replayed,
        journal,
    })
}

fn read_snapshot<'a>(
    spec: &'a GameSpec,
    cfg: &ServeConfig,
    fingerprint: &str,
    path: &Path,
) -> Result<(Walk<'a>, BTreeMap<u64, u64>, u64), ServeError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    let mut journal_gen = None;
    let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.peers];
    let mut live: Vec<usize> = Vec::new();
    let mut seqs = BTreeMap::new();
    let mut foot: Option<(u64, String)> = None;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if foot.is_some() {
            return Err(corrupt(
                path,
                format!("line {}: content after footer", i + 1),
            ));
        }
        let parsed: SnapLine = serde_json::from_str(line)
            .map_err(|e| corrupt(path, format!("line {}: {e}", i + 1)))?;
        match parsed {
            SnapLine::Head {
                fingerprint: found,
                journal_gen: gen,
            } => {
                if i != 0 {
                    return Err(corrupt(path, format!("line {}: misplaced header", i + 1)));
                }
                if found != fingerprint {
                    return Err(corrupt(
                        path,
                        format!("fingerprint mismatch: snapshot has `{found}`, service wants `{fingerprint}`"),
                    ));
                }
                journal_gen = Some(gen);
            }
            SnapLine::Node { node, strategy } => {
                if journal_gen.is_none() {
                    return Err(corrupt(path, "record before header"));
                }
                let idx = node as usize;
                if idx >= cfg.peers {
                    return Err(corrupt(path, format!("node {node} outside the game")));
                }
                live.push(idx);
                lists[idx] = strategy.iter().map(|t| NodeId::new(*t as usize)).collect();
            }
            SnapLine::Client { client, seq } => {
                seqs.insert(client, seq);
            }
            SnapLine::Foot { rows, digest } => foot = Some((rows, digest)),
        }
    }
    let Some(journal_gen) = journal_gen else {
        return Err(corrupt(path, "missing header"));
    };
    let Some((rows, digest)) = foot else {
        return Err(corrupt(path, "missing footer (incomplete snapshot)"));
    };
    if rows != live.len() as u64 {
        return Err(corrupt(
            path,
            format!("footer claims {rows} rows, found {}", live.len()),
        ));
    }
    let membership = BitSet::from_indices(cfg.peers, live.iter().copied());
    let config = Configuration::from_strategies(spec, lists)?;
    let walk =
        Walk::with_membership(spec, config, &membership)?.with_scheduler(cfg.scheduler.clone());
    let rebuilt = digest_hex(walk.state_digest());
    if rebuilt != digest {
        return Err(corrupt(
            path,
            format!("digest mismatch: footer certifies {digest}, rebuild produced {rebuilt}"),
        ));
    }
    Ok((walk, seqs, journal_gen))
}

/// Replays a journal on top of `walk`. Returns the records applied, the
/// byte length of the valid prefix, and whether a header line survived.
/// A non-newline-terminated trailing fragment is dropped (the op it
/// recorded was never acknowledged, so the client will resend it); garbage
/// anywhere else is corruption.
fn replay_journal(
    walk: &mut Walk<'_>,
    seqs: &mut BTreeMap<u64, u64>,
    fingerprint: &str,
    gen: u64,
    path: &Path,
) -> Result<(u64, u64, bool), ServeError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    let mut replayed = 0u64;
    let mut valid_len = 0u64;
    let mut has_header = false;
    let mut offset = 0usize;
    // Each pass consumes exactly one line, so counting passes numbers the
    // lines without rescanning the text before each one.
    let mut line_no = 0usize;
    while offset < text.len() {
        let rest = &text[offset..];
        let (line, complete, advance) = match rest.find('\n') {
            Some(pos) => (&rest[..pos], true, pos + 1),
            None => (rest, false, rest.len()),
        };
        line_no += 1;
        if line.is_empty() {
            offset += advance;
            valid_len = offset as u64;
            continue;
        }
        let parsed = serde_json::from_str::<JournalLine>(line);
        match parsed {
            Err(e) => {
                if complete {
                    return Err(corrupt(path, format!("line {line_no}: {e}")));
                }
                // Dropped truncated trailing line (crash mid-write).
                break;
            }
            Ok(JournalLine::Head {
                fingerprint: found,
                gen: found_gen,
                base_digest,
            }) => {
                if has_header {
                    return Err(corrupt(path, format!("line {line_no}: duplicate header")));
                }
                if !complete {
                    break; // header itself was cut short
                }
                if found != fingerprint {
                    return Err(corrupt(
                        path,
                        format!("fingerprint mismatch: journal has `{found}`, service wants `{fingerprint}`"),
                    ));
                }
                if found_gen != gen {
                    return Err(corrupt(
                        path,
                        format!("generation mismatch: journal says {found_gen}, expected {gen}"),
                    ));
                }
                let base = digest_hex(walk.state_digest());
                if base_digest != base {
                    return Err(corrupt(
                        path,
                        format!(
                            "base digest mismatch: journal applies on {base_digest}, \
                             loaded state is {base}"
                        ),
                    ));
                }
                has_header = true;
            }
            Ok(JournalLine::Record { client, seq, op }) => {
                if !has_header {
                    return Err(corrupt(path, "record before header"));
                }
                if !complete {
                    break;
                }
                let duplicate = seqs.get(&client).is_some_and(|&last| seq <= last);
                if !duplicate {
                    seqs.insert(client, seq);
                    // Errors replay deterministically; ignore them exactly
                    // as the live path turned them into error replies.
                    let _ = apply_op(walk, &op);
                    replayed += 1;
                }
            }
        }
        offset += advance;
        valid_len = offset as u64;
    }
    Ok((replayed, valid_len, has_header))
}

// ---------------------------------------------------------------------------
// Single-threaded oracles
// ---------------------------------------------------------------------------

/// Replays an accepted request sequence single-threaded on a private
/// in-memory service and returns the final digest — the reference every
/// concurrent submission order is differenced against.
///
/// # Errors
///
/// [`ServeError::Config`] when `cfg` is invalid.
pub fn oracle_digest(cfg: &ServeConfig, frames: &[RequestFrame]) -> Result<String, ServeError> {
    let mut memory_cfg = cfg.clone();
    memory_cfg.state_dir = None;
    memory_cfg.restore = false;
    memory_cfg.validate()?;
    let spec = GameSpec::uniform(memory_cfg.peers, memory_cfg.budget);
    let mut state = OwnerState::boot(&spec, &memory_cfg, SharedCounters::default())?;
    for frame in frames {
        let _ = state.handle(frame.clone());
    }
    Ok(digest_hex(state.walk.state_digest()))
}

/// Rebuilds the persisted state of `dir` read-only (no truncation, no file
/// handles kept) and returns `(digest, replayed_records)` — how a restarted
/// daemon would come up. Safe to run against a live daemon's directory once
/// its clients are quiescent (records are flushed per accepted op).
///
/// # Errors
///
/// As [`Service::start`] with `restore`.
pub fn replay_digest(cfg: &ServeConfig, dir: &Path) -> Result<(String, u64), ServeError> {
    cfg.validate()?;
    let spec = GameSpec::uniform(cfg.peers, cfg.budget);
    let loaded = load_state(&spec, cfg, dir, true)?;
    Ok((digest_hex(loaded.walk.state_digest()), loaded.replayed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bbc-serve-test-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn frame(client: u64, seq: u64, op: Op) -> RequestFrame {
        RequestFrame { client, seq, op }
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            peers: 8,
            budget: 1,
            ..ServeConfig::default()
        }
    }

    fn reply(handle: &Handle, f: RequestFrame) -> Reply {
        match handle.call(f) {
            Dispatch::Reply(r) => r.reply,
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    #[test]
    fn service_round_trip_matches_oracle() {
        let cfg = small_cfg();
        let service = Service::start(cfg.clone()).unwrap();
        let handle = service.handle();
        let frames = vec![
            frame(1, 1, Op::Settle { max_steps: 10_000 }),
            frame(1, 2, Op::Leave { node: 3 }),
            frame(2, 1, Op::Settle { max_steps: 10_000 }),
            frame(
                2,
                2,
                Op::Join {
                    node: 3,
                    strategy: vec![0],
                },
            ),
            frame(1, 3, Op::Step { steps: 64 }),
        ];
        for f in &frames {
            let r = reply(&handle, f.clone());
            assert!(!matches!(r, Reply::Error { .. }), "unexpected error: {r:?}");
        }
        let digest = match reply(&handle, frame(9, 1, Op::Query(Probe::Digest))) {
            Reply::Digest { digest } => digest,
            other => panic!("{other:?}"),
        };
        assert_eq!(digest, oracle_digest(&cfg, &frames).unwrap());
        assert!(matches!(
            reply(&handle, frame(9, 2, Op::Shutdown)),
            Reply::Bye
        ));
        service.join().unwrap();
    }

    #[test]
    fn duplicate_mutating_ops_are_skipped() {
        let service = Service::start(small_cfg()).unwrap();
        let handle = service.handle();
        assert!(matches!(
            reply(&handle, frame(7, 5, Op::Leave { node: 1 })),
            Reply::Ok { .. }
        ));
        let digest_before = match reply(&handle, frame(0, 1, Op::Query(Probe::Digest))) {
            Reply::Digest { digest } => digest,
            other => panic!("{other:?}"),
        };
        // Same seq again, and an older one: both suppressed.
        assert_eq!(
            reply(&handle, frame(7, 5, Op::Leave { node: 2 })),
            Reply::Skipped { last: 5 }
        );
        assert_eq!(
            reply(&handle, frame(7, 4, Op::Leave { node: 2 })),
            Reply::Skipped { last: 5 }
        );
        // Queries are not sequence-tracked.
        assert!(matches!(
            reply(&handle, frame(7, 1, Op::Query(Probe::SocialCost))),
            Reply::SocialCost { .. }
        ));
        let digest_after = match reply(&handle, frame(0, 2, Op::Query(Probe::Digest))) {
            Reply::Digest { digest } => digest,
            other => panic!("{other:?}"),
        };
        assert_eq!(digest_before, digest_after, "skipped ops change nothing");
        assert_eq!(
            reply(
                &handle,
                frame(0, 3, Op::Query(Probe::ClientSeq { client: 7 }))
            ),
            Reply::Seq { client: 7, seq: 5 }
        );
        drop(handle);
        service.join().unwrap();
    }

    #[test]
    fn game_errors_are_typed_replies_and_deterministic() {
        let cfg = small_cfg();
        let service = Service::start(cfg.clone()).unwrap();
        let handle = service.handle();
        let frames = vec![
            frame(1, 1, Op::Leave { node: 2 }),
            frame(1, 2, Op::Leave { node: 2 }), // now dead → NotLive
            frame(
                1,
                3,
                Op::Join {
                    node: 2,
                    strategy: vec![2],
                },
            ), // self-link
            frame(
                1,
                4,
                Op::Join {
                    node: 0,
                    strategy: vec![],
                },
            ), // already live
            frame(1, 5, Op::Leave { node: 99 }), // out of bounds
        ];
        let mut codes = Vec::new();
        for f in &frames {
            if let Reply::Error { code, .. } = reply(&handle, f.clone()) {
                codes.push(code);
            }
        }
        assert_eq!(
            codes,
            vec![
                ErrorCode::NotLive,
                ErrorCode::Game,
                ErrorCode::NotLive,
                ErrorCode::Game
            ]
        );
        let digest = match reply(&handle, frame(0, 1, Op::Query(Probe::Digest))) {
            Reply::Digest { digest } => digest,
            other => panic!("{other:?}"),
        };
        // Errored ops are part of the accepted order; the oracle agrees.
        assert_eq!(digest, oracle_digest(&cfg, &frames).unwrap());
        drop(handle);
        service.join().unwrap();
    }

    #[test]
    fn snapshot_restore_round_trips_with_journal_suffix() {
        let dir = temp_dir("snap");
        let cfg = ServeConfig {
            state_dir: Some(dir.clone()),
            ..small_cfg()
        };
        let service = Service::start(cfg.clone()).unwrap();
        let handle = service.handle();
        reply(&handle, frame(1, 1, Op::Settle { max_steps: 10_000 }));
        reply(&handle, frame(1, 2, Op::Leave { node: 5 }));
        let snap = reply(&handle, frame(1, 3, Op::Snapshot));
        let Reply::Snapshotted { journal_gen, .. } = snap else {
            panic!("{snap:?}");
        };
        assert_eq!(journal_gen, 2);
        // Mutations after the snapshot land in the new journal.
        reply(&handle, frame(1, 4, Op::Leave { node: 6 }));
        reply(&handle, frame(1, 5, Op::Step { steps: 200 }));
        let live_digest = match reply(&handle, frame(0, 1, Op::Query(Probe::Digest))) {
            Reply::Digest { digest } => digest,
            other => panic!("{other:?}"),
        };
        // In-service restore is an idempotent self-check…
        let restored = reply(&handle, frame(0, 2, Op::Restore));
        match restored {
            Reply::Restored { digest, replayed } => {
                assert_eq!(digest, live_digest);
                assert_eq!(replayed, 2, "journal gen-2 held the two post-snapshot ops");
            }
            other => panic!("{other:?}"),
        }
        // …and a seq probe survives the snapshot→restore cycle.
        assert_eq!(
            reply(
                &handle,
                frame(0, 3, Op::Query(Probe::ClientSeq { client: 1 }))
            ),
            Reply::Seq { client: 1, seq: 5 }
        );
        reply(&handle, frame(0, 4, Op::Shutdown));
        service.join().unwrap();
        // An offline replay (what a restarted daemon computes) agrees too.
        let (digest, replayed) = replay_digest(&cfg, &dir).unwrap();
        assert_eq!(digest, live_digest);
        assert_eq!(replayed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_foreign_fingerprints() {
        let dir = temp_dir("fp");
        let cfg = ServeConfig {
            state_dir: Some(dir.clone()),
            ..small_cfg()
        };
        let service = Service::start(cfg.clone()).unwrap();
        let handle = service.handle();
        reply(&handle, frame(1, 1, Op::Leave { node: 0 }));
        reply(&handle, frame(1, 2, Op::Shutdown));
        service.join().unwrap();
        // Same dir, different game ⇒ fingerprint mismatch, typed error.
        let other = ServeConfig {
            peers: 9,
            state_dir: Some(dir.clone()),
            restore: true,
            ..small_cfg()
        };
        match Service::start(other) {
            Err(ServeError::Corrupt { message, .. }) => {
                assert!(message.contains("fingerprint mismatch"), "{message}");
            }
            other => panic!("expected corrupt-state error, got {other:?}"),
        }
        // And a fresh boot refuses to clobber existing state.
        match Service::start(cfg) {
            Err(ServeError::Config(message)) => {
                assert!(message.contains("already holds"), "{message}");
            }
            other => panic!("expected config error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_trailing_journal_line_is_dropped() {
        let dir = temp_dir("trunc");
        let cfg = ServeConfig {
            state_dir: Some(dir.clone()),
            ..small_cfg()
        };
        let service = Service::start(cfg.clone()).unwrap();
        let handle = service.handle();
        reply(&handle, frame(1, 1, Op::Leave { node: 4 }));
        reply(&handle, frame(1, 2, Op::Leave { node: 5 }));
        reply(&handle, frame(1, 3, Op::Shutdown));
        service.join().unwrap();
        let (intact_digest, _) = replay_digest(&cfg, &dir).unwrap();

        // Simulate a crash mid-append: a partial record with no newline.
        let path = dir.join(journal_file(1));
        let mut text = fs::read_to_string(&path).unwrap();
        let full_len = text.len();
        text.push_str(r#"{"Record":{"client":1,"seq":3,"op":{"Lea"#);
        fs::write(&path, &text).unwrap();
        let (digest, replayed) = replay_digest(&cfg, &dir).unwrap();
        assert_eq!(digest, intact_digest, "partial trailing record dropped");
        assert_eq!(replayed, 2);

        // A restoring boot truncates the fragment and keeps serving.
        let restored = Service::start(ServeConfig {
            restore: true,
            ..cfg.clone()
        })
        .unwrap();
        let h = restored.handle();
        assert!(matches!(
            reply(&h, frame(1, 3, Op::Leave { node: 6 })),
            Reply::Ok { .. }
        ));
        reply(&h, frame(1, 4, Op::Shutdown));
        restored.join().unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap().len(),
            full_len
                + encode_line(&JournalLine::Record {
                    client: 1,
                    seq: 3,
                    op: Op::Leave { node: 6 },
                })
                .unwrap()
                .len(),
            "the fragment was truncated before appending"
        );

        // Mid-file garbage, by contrast, is a hard corruption error.
        let mut lines: Vec<String> = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines[1] = "{\"Record\": garbage".to_string();
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        match replay_digest(&cfg, &dir) {
            Err(ServeError::Corrupt { message, .. }) => {
                assert!(
                    message.starts_with("line 2:"),
                    "names the bad line: {message}"
                );
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_settle_is_journaled_and_replayable() {
        let dir = temp_dir("auto");
        let cfg = ServeConfig {
            state_dir: Some(dir.clone()),
            auto_settle_every: 2,
            auto_settle_budget: 5_000,
            ..small_cfg()
        };
        let service = Service::start(cfg.clone()).unwrap();
        let handle = service.handle();
        reply(&handle, frame(1, 1, Op::Leave { node: 1 }));
        reply(&handle, frame(1, 2, Op::Leave { node: 2 })); // triggers settle
        reply(&handle, frame(1, 3, Op::Leave { node: 3 }));
        let digest = match reply(&handle, frame(0, 1, Op::Query(Probe::Digest))) {
            Reply::Digest { digest } => digest,
            other => panic!("{other:?}"),
        };
        // The service client's synthetic round is sequence-tracked.
        assert_eq!(
            reply(
                &handle,
                frame(
                    0,
                    2,
                    Op::Query(Probe::ClientSeq {
                        client: SERVICE_CLIENT
                    })
                )
            ),
            Reply::Seq {
                client: SERVICE_CLIENT,
                seq: 1
            }
        );
        reply(&handle, frame(0, 3, Op::Shutdown));
        service.join().unwrap();
        let (replayed_digest, replayed) = replay_digest(&cfg, &dir).unwrap();
        assert_eq!(replayed_digest, digest);
        assert_eq!(replayed, 4, "3 events + 1 synthetic settle");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_validation_rejects_undeterministic_setups() {
        let bad = ServeConfig {
            scheduler: Scheduler::Random { seed: 1 },
            ..ServeConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServeError::Config(_))));
        let bad = ServeConfig {
            peers: 1,
            ..ServeConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServeError::Config(_))));
        let bad = ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServeError::Config(_))));
        let bad = ServeConfig {
            scheduler: Scheduler::RoundRobinOrder(vec![NodeId::new(0)]),
            ..ServeConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServeError::Config(_))));
        let bad = ServeConfig {
            metrics_file: Some(PathBuf::from("/tmp/m.prom")),
            metrics_every: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServeError::Config(_))));
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn fingerprints_separate_games_and_schedulers() {
        let a = ServeConfig::default().fingerprint();
        let b = ServeConfig {
            peers: 33,
            ..ServeConfig::default()
        }
        .fingerprint();
        let c = ServeConfig {
            scheduler: Scheduler::MaxCostFirst,
            ..ServeConfig::default()
        }
        .fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Runtime knobs are not part of the identity — metrics included:
        // turning observation on must not orphan persisted state.
        let d = ServeConfig {
            queue_depth: 1,
            auto_settle_every: 10,
            metrics_file: Some(PathBuf::from("/tmp/m.prom")),
            metrics_every: 7,
            ..ServeConfig::default()
        }
        .fingerprint();
        assert_eq!(a, d);
    }
}
