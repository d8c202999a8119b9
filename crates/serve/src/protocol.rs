//! The wire protocol: line-delimited JSON frames over a byte stream.
//!
//! Every request is one line — a JSON [`RequestFrame`] envelope carrying a
//! logical client id, a client-chosen sequence number, and one [`Op`] — and
//! every reply is one line holding a [`ReplyFrame`] that echoes the request's
//! sequence number. Lines longer than [`MAX_FRAME`] bytes are rejected with a
//! typed [`ErrorCode::Frame`] reply (the rest of the oversized line is
//! drained so the connection stays usable), and *no* input — truncation, bad
//! UTF-8, malformed JSON, unknown ops — ever panics or wedges a connection:
//! the malformed-input corpus in `tests/protocol.rs` pins that contract.
//!
//! Enum encoding follows the workspace serde conventions: unit variants are
//! bare strings (`"Snapshot"`), data variants are externally tagged
//! single-key maps (`{"Leave":{"node":3}}`).

use std::io::{self, BufRead};

use serde::{Deserialize, Serialize};

/// Hard cap on one request/reply line, newline excluded. Generous for every
/// legitimate op (a full-strategy `Join` on a 10⁴-peer game fits with room
/// to spare) while bounding per-connection memory.
pub const MAX_FRAME: usize = 64 * 1024;

/// A read-only probe of the served game ([`Op::Query`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Probe {
    /// Cost of one live node under the current configuration.
    NodeCost {
        /// The probed node id.
        node: u32,
    },
    /// Sum of live node costs.
    SocialCost,
    /// Ordered live pairs with no path (disconnection-penalty exposure).
    DisconnectedPairs,
    /// The engine state digest (membership + strategies + CSR arenas).
    Digest,
    /// Live member ids in ascending order.
    Members,
    /// Highest journaled sequence number seen from a client (0 when none);
    /// reconnecting clients use this to resume exactly-once after a crash.
    ClientSeq {
        /// The logical client id to look up.
        client: u64,
    },
    /// The service metrics document (versioned JSON: counters, gauges,
    /// latency histograms). Observational only — querying it never changes
    /// engine state, and its contents never feed back into a trajectory.
    Metrics,
}

/// One request operation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// (Re)admit a departed node with an opening strategy.
    Join {
        /// The joining node id.
        node: u32,
        /// Its opening out-links (live targets only).
        strategy: Vec<u32>,
    },
    /// Depart a live node; its links and every in-link vanish.
    Leave {
        /// The departing node id.
        node: u32,
    },
    /// Forcibly rewire a live node (operator intervention, not a best
    /// response).
    Shock {
        /// The shocked node id.
        node: u32,
        /// The imposed strategy.
        strategy: Vec<u32>,
    },
    /// Read-only probe; never journaled.
    Query(Probe),
    /// Best-response advice for a node: reports the optimal deviation and
    /// the search-effort counters without applying anything.
    Advise {
        /// The advised node id.
        node: u32,
    },
    /// Run a bounded best-response round: up to `steps` further stability
    /// tests (stops early at equilibrium or a certified cycle).
    Step {
        /// The step budget for this round.
        steps: u64,
    },
    /// Run best response until equilibrium, a certified cycle, or the
    /// budget expires (an alias of [`Op::Step`] with a settling-scale
    /// budget; both reset the scheduler phase first, so the round is a pure
    /// function of the current state).
    Settle {
        /// The step budget for this settling phase.
        max_steps: u64,
    },
    /// Persist the current state atomically and rotate the journal.
    Snapshot,
    /// Rebuild the engine from the persisted snapshot + journal and report
    /// the restored digest (idempotent: on an intact state dir this is a
    /// self-check that replay reproduces the live state).
    Restore,
    /// Stop the service loop after replying.
    Shutdown,
}

impl Op {
    /// `true` for ops that (may) change engine state and are therefore
    /// journaled and covered by duplicate suppression.
    pub fn mutates(&self) -> bool {
        matches!(
            self,
            Op::Join { .. }
                | Op::Leave { .. }
                | Op::Shock { .. }
                | Op::Step { .. }
                | Op::Settle { .. }
        )
    }
}

/// Typed failure categories; every malformed or unserviceable input maps to
/// exactly one of these in an [`Reply::Error`] reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Framing violation: oversized or truncated line.
    Frame,
    /// The line is not valid UTF-8/JSON, or has no addressable envelope.
    Json,
    /// Valid JSON that is not a known request shape (unknown op, wrong
    /// field types).
    Request,
    /// The op addressed a node that is not a live member (or is already
    /// live, for joins).
    NotLive,
    /// The game model rejected the op (budget, self-link, bounds, …).
    Game,
    /// The op is valid but this service instance cannot perform it (e.g.
    /// no state directory configured).
    Unsupported,
    /// The service loop is gone or an internal invariant failed.
    Internal,
}

/// How a best-response round ended (mirrors `bbc_core::WalkOutcome`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseOutcome {
    /// A pure Nash equilibrium was certified.
    Equilibrium,
    /// An exact best-response loop was certified (§4.3: play need not
    /// settle).
    Cycle,
    /// The step budget expired first.
    StepLimit,
}

/// One reply. Every variant echoes enough context to be self-describing;
/// digests are rendered as 16-hex-digit strings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// A mutating op was applied; carries the post-op state digest.
    Ok {
        /// Engine state digest after the op (and any auto-settle it
        /// triggered).
        digest: String,
    },
    /// A duplicate mutating op (seq ≤ the client's journaled high-water
    /// mark) was suppressed — the exactly-once half of crash recovery.
    Skipped {
        /// The client's highest journaled sequence number.
        last: u64,
    },
    /// [`Probe::NodeCost`] result.
    Cost {
        /// The probed node id.
        node: u32,
        /// Its preference-weighted distance cost.
        cost: u64,
    },
    /// [`Probe::SocialCost`] result.
    SocialCost {
        /// Sum of live node costs.
        cost: u64,
    },
    /// [`Probe::DisconnectedPairs`] result.
    DisconnectedPairs {
        /// Ordered live pairs with no path.
        pairs: u64,
    },
    /// [`Probe::Digest`] result.
    Digest {
        /// Engine state digest, 16 hex digits.
        digest: String,
    },
    /// [`Probe::Members`] result.
    Members {
        /// Live member ids, ascending.
        nodes: Vec<u32>,
    },
    /// [`Probe::Metrics`] result: the whole metrics document, inline.
    Metrics {
        /// A versioned JSON object (`bbc_obs::METRICS_SCHEMA_VERSION`) with
        /// `counters`, `gauges`, and `histograms` sections. Timings vary run
        /// to run; everything else is deterministic.
        metrics: serde_json::Value,
    },
    /// [`Probe::ClientSeq`] result.
    Seq {
        /// The queried client id.
        client: u64,
        /// Its highest journaled sequence number (0 when never seen).
        seq: u64,
    },
    /// [`Op::Advise`] result.
    Advice {
        /// The advised node.
        node: u32,
        /// Its cost under the current configuration.
        current_cost: u64,
        /// The best achievable cost over all affordable deviations.
        best_cost: u64,
        /// A cost-optimal strategy (the current one when already stable).
        best_strategy: Vec<u32>,
        /// `best_cost < current_cost`.
        improves: bool,
        /// Candidate strategies the search evaluated.
        evaluations: u64,
    },
    /// [`Op::Step`] / [`Op::Settle`] result.
    Phase {
        /// How the round ended.
        outcome: PhaseOutcome,
        /// Stability tests executed this round.
        steps: u64,
        /// Strategy changes among them.
        moves: u64,
        /// Social cost after the round.
        social_cost: u64,
        /// Engine state digest after the round.
        digest: String,
    },
    /// [`Op::Snapshot`] result.
    Snapshotted {
        /// Live-node strategy rows written.
        rows: u64,
        /// The journal generation now receiving new records.
        journal_gen: u64,
        /// Digest the snapshot certifies.
        digest: String,
    },
    /// [`Op::Restore`] result.
    Restored {
        /// Digest after rebuilding from snapshot + journal.
        digest: String,
        /// Journal records replayed on top of the snapshot.
        replayed: u64,
    },
    /// The bounded request queue was full; retry later. The explicit
    /// backpressure reply — the service never blocks a socket reader on a
    /// full queue.
    Busy {
        /// The queue capacity that was exhausted.
        depth: u64,
    },
    /// Acknowledges [`Op::Shutdown`]; the service loop exits after this.
    Bye,
    /// A typed failure; the connection stays usable.
    Error {
        /// The failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A request envelope: one line on the wire.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestFrame {
    /// Logical client id (many logical clients may share one connection).
    pub client: u64,
    /// Client-chosen sequence number; must increase per client for
    /// mutating ops (the journal keys duplicate suppression on it).
    pub seq: u64,
    /// The operation.
    pub op: Op,
}

/// A reply envelope: one line on the wire, echoing the request's `seq`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplyFrame {
    /// The request sequence number this answers (0 when the request had no
    /// decodable envelope).
    pub seq: u64,
    /// The reply payload.
    pub reply: Reply,
}

/// Renders a state digest the way every reply does: 16 lowercase hex
/// digits, zero-padded.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// One framing read: a complete line, or the typed violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped), at most [`MAX_FRAME`] bytes.
    Line(Vec<u8>),
    /// A line exceeded [`MAX_FRAME`]; its bytes were drained to the
    /// newline, so the next read starts on a fresh frame.
    Oversized,
    /// The stream ended mid-line (no trailing newline).
    Truncated,
    /// Clean end of stream.
    Eof,
}

/// Reads one newline-delimited frame, enforcing [`MAX_FRAME`].
///
/// # Errors
///
/// Propagates transport-level I/O errors; framing violations are data
/// ([`Frame::Oversized`] / [`Frame::Truncated`]), not errors.
pub fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if oversized {
                Frame::Oversized
            } else if line.is_empty() {
                Frame::Eof
            } else {
                Frame::Truncated
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if !oversized && line.len() + pos <= MAX_FRAME {
                line.extend_from_slice(&chunk[..pos]);
            } else {
                oversized = true;
            }
            reader.consume(pos + 1);
            return Ok(if oversized {
                Frame::Oversized
            } else {
                Frame::Line(line)
            });
        }
        if !oversized {
            if line.len() + chunk.len() > MAX_FRAME {
                oversized = true;
            } else {
                line.extend_from_slice(chunk);
            }
        }
        let used = chunk.len();
        reader.consume(used);
    }
}

/// Decodes one request line. On failure, returns the seq to address the
/// error reply to (0 when no envelope was decodable), the [`ErrorCode`],
/// and a message.
///
/// # Errors
///
/// [`ErrorCode::Json`] for UTF-8/JSON/envelope failures,
/// [`ErrorCode::Request`] for a well-formed envelope whose `op` matches no
/// known operation.
pub fn decode_request(bytes: &[u8]) -> Result<RequestFrame, (u64, ErrorCode, String)> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| (0, ErrorCode::Json, format!("invalid utf-8: {e}")))?;
    match serde_json::from_str::<RequestFrame>(text) {
        Ok(frame) => Ok(frame),
        Err(shape_err) => {
            // A second, envelope-only parse decides whether the line was
            // addressable at all: if `seq` decodes, the failure is an
            // unknown/misshapen op and the error reply can echo the seq.
            #[derive(Deserialize)]
            struct Envelope {
                seq: u64,
            }
            match serde_json::from_str::<Envelope>(text) {
                Ok(envelope) => Err((envelope.seq, ErrorCode::Request, shape_err.to_string())),
                Err(_) => Err((0, ErrorCode::Json, shape_err.to_string())),
            }
        }
    }
}

/// Encodes any serializable frame as one wire line (newline included).
///
/// # Errors
///
/// Propagates the encoder's error (unrepresentable floats are the only
/// case; protocol types contain none).
pub fn encode_line<T: Serialize>(frame: &T) -> Result<String, String> {
    serde_json::to_string(frame)
        .map(|mut s| {
            s.push('\n');
            s
        })
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_frames_round_trip() {
        let frames = vec![
            RequestFrame {
                client: 1,
                seq: 1,
                op: Op::Join {
                    node: 3,
                    strategy: vec![0, 5],
                },
            },
            RequestFrame {
                client: 2,
                seq: 9,
                op: Op::Query(Probe::NodeCost { node: 7 }),
            },
            RequestFrame {
                client: 0,
                seq: 2,
                op: Op::Snapshot,
            },
            RequestFrame {
                client: 4,
                seq: 3,
                op: Op::Settle { max_steps: 500 },
            },
        ];
        for frame in frames {
            let line = encode_line(&frame).unwrap();
            assert!(line.ends_with('\n'));
            let back = decode_request(line.trim_end().as_bytes()).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn reply_frames_round_trip() {
        let replies = vec![
            Reply::Ok {
                digest: digest_hex(0xdead_beef),
            },
            Reply::Busy { depth: 64 },
            Reply::Phase {
                outcome: PhaseOutcome::Cycle,
                steps: 12,
                moves: 3,
                social_cost: 99,
                digest: digest_hex(7),
            },
            Reply::Error {
                code: ErrorCode::NotLive,
                message: "node v3 is not a live member".to_string(),
            },
        ];
        for reply in replies {
            let frame = ReplyFrame { seq: 5, reply };
            let line = encode_line(&frame).unwrap();
            let back: ReplyFrame = serde_json::from_str(line.trim_end()).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn unknown_op_keeps_the_envelope_seq() {
        let (seq, code, msg) =
            decode_request(br#"{"client":1,"seq":42,"op":{"Explode":{}}}"#).unwrap_err();
        assert_eq!(seq, 42, "error reply must be addressable");
        assert_eq!(code, ErrorCode::Request);
        assert!(!msg.is_empty());
    }

    #[test]
    fn garbage_lines_are_typed_json_errors() {
        for bad in [
            &b"not json at all"[..],
            br#"{"unterminated": "#,
            b"\xff\xfe\x00",
            br#"{"client":"one","seq":"two"}"#,
            br#"[1,2,3]"#,
        ] {
            let (seq, code, _) = decode_request(bad).unwrap_err();
            assert_eq!(seq, 0);
            assert_eq!(code, ErrorCode::Json, "{bad:?}");
        }
    }

    #[test]
    fn framing_enforces_the_cap_and_recovers() {
        let mut input = Vec::new();
        input.extend_from_slice(b"short line\n");
        input.extend_from_slice(&vec![b'x'; MAX_FRAME + 10]);
        input.push(b'\n');
        input.extend_from_slice(b"after\n");
        input.extend_from_slice(b"trailing");
        let mut reader = BufReader::with_capacity(64, &input[..]);
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Frame::Line(b"short line".to_vec())
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Oversized);
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Frame::Line(b"after".to_vec()),
            "the oversized line is drained, not wedged"
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Truncated);
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Eof);
    }

    #[test]
    fn exact_cap_line_is_accepted() {
        let mut input = vec![b'y'; MAX_FRAME];
        input.push(b'\n');
        let mut reader = BufReader::new(&input[..]);
        match read_frame(&mut reader).unwrap() {
            Frame::Line(line) => assert_eq!(line.len(), MAX_FRAME),
            other => panic!("expected a line, got {other:?}"),
        }
        let mut input = vec![b'y'; MAX_FRAME + 1];
        input.push(b'\n');
        let mut reader = BufReader::new(&input[..]);
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Oversized);
    }

    #[test]
    fn mutates_covers_exactly_the_journaled_ops() {
        assert!(Op::Join {
            node: 0,
            strategy: vec![]
        }
        .mutates());
        assert!(Op::Leave { node: 0 }.mutates());
        assert!(Op::Shock {
            node: 0,
            strategy: vec![]
        }
        .mutates());
        assert!(Op::Step { steps: 1 }.mutates());
        assert!(Op::Settle { max_steps: 1 }.mutates());
        assert!(!Op::Query(Probe::Digest).mutates());
        assert!(!Op::Query(Probe::Metrics).mutates());
        assert!(!Op::Advise { node: 0 }.mutates());
        assert!(!Op::Snapshot.mutates());
        assert!(!Op::Restore.mutates());
        assert!(!Op::Shutdown.mutates());
    }
}
