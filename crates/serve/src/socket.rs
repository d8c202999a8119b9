//! Unix-domain-socket plumbing: a thread-per-connection listener feeding a
//! [`Handle`], and the blocking [`Client`] the tests and load generator
//! speak through.
//!
//! The socket layer is deliberately dumb: it frames lines, decodes
//! requests, and relays replies. All semantics — ordering, duplicate
//! suppression, backpressure — live behind the [`Handle`], so nothing a
//! connection does (malformed frames, oversized lines, abrupt EOF, slow
//! reads) can corrupt or wedge the engine. Reader threads use
//! [`Handle::try_call`], turning a full owner queue into an explicit
//! [`Reply::Busy`] on the wire instead of blocking the connection.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

use crate::protocol::{
    decode_request, encode_line, read_frame, ErrorCode, Frame, Op, Reply, ReplyFrame, RequestFrame,
    MAX_FRAME,
};
use crate::service::{Dispatch, Handle, ServeError};

/// Binds `path` (removing a stale socket file first) and serves
/// connections until the service shuts down, each on its own thread.
/// Returns when an accept fails after shutdown or on listener error.
///
/// # Errors
///
/// [`ServeError::Io`] when the socket cannot be bound.
pub fn run_listener(path: &Path, handle: &Handle) -> Result<(), ServeError> {
    if path.exists() {
        std::fs::remove_file(path).map_err(|e| ServeError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
    }
    let listener = UnixListener::bind(path).map_err(|e| ServeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let conn_handle = handle.clone();
        let spawned = std::thread::Builder::new()
            .name("bbc-serve-conn".to_string())
            .spawn(move || serve_connection(stream, &conn_handle));
        // Spawn failure (thread exhaustion) drops the connection; the
        // listener itself keeps accepting.
        drop(spawned);
    }
    Ok(())
}

/// Serves one connection: read a frame, dispatch, write the reply, repeat.
/// Every failure mode is either a typed error reply or a quiet close —
/// never a panic, never a wedged engine.
fn serve_connection(stream: UnixStream, handle: &Handle) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(_) => return, // connection-level read error
        };
        let error = |seq, code, message: String| ReplyFrame {
            seq,
            reply: Reply::Error { code, message },
        };
        let mut shutdown = false;
        // The reply, and whether to close the connection after writing it.
        let (reply, close) = match frame {
            Frame::Eof => return,
            // A final line without its newline: answer, then close — the
            // peer is gone or the frame was cut mid-write.
            Frame::Truncated => (
                error(
                    0,
                    ErrorCode::Frame,
                    "truncated frame (missing trailing newline)".to_string(),
                ),
                true,
            ),
            Frame::Oversized => (
                error(
                    0,
                    ErrorCode::Frame,
                    format!("frame exceeds {MAX_FRAME} bytes"),
                ),
                false,
            ),
            Frame::Line(bytes) => match decode_request(&bytes) {
                Err((seq, code, message)) => (error(seq, code, message), false),
                Ok(request) => {
                    shutdown = matches!(request.op, Op::Shutdown);
                    if shutdown {
                        handle.bye_expected();
                    }
                    match handle.try_call(request) {
                        Dispatch::Reply(reply) => {
                            let bye = matches!(reply.reply, Reply::Bye);
                            (reply, bye)
                        }
                        Dispatch::Busy { depth } => (
                            ReplyFrame {
                                seq: 0,
                                reply: Reply::Busy { depth },
                            },
                            false,
                        ),
                        Dispatch::Gone => (
                            error(0, ErrorCode::Unsupported, "service stopped".to_string()),
                            true,
                        ),
                    }
                }
            },
        };
        let written = write_reply(&mut writer, &reply);
        if shutdown {
            handle.bye_written();
        }
        if written.is_err() || close {
            return;
        }
    }
}

fn write_reply(writer: &mut UnixStream, reply: &ReplyFrame) -> std::io::Result<()> {
    let line =
        encode_line(reply).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// A blocking protocol client over one connection. Owns a logical client
/// id and auto-increments its mutating-op sequence numbers; reconnecting
/// resumes from the journaled high-water mark via
/// [`Probe::ClientSeq`](crate::protocol::Probe::ClientSeq).
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// The logical client id stamped on every request.
    pub client: u64,
    /// The next sequence number [`Client::request`] will use for a
    /// mutating op.
    pub next_seq: u64,
}

impl Client {
    /// Connects to the daemon's socket as logical client `client`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the socket is absent or refuses.
    pub fn connect(path: &Path, client: u64) -> Result<Self, ServeError> {
        let stream = UnixStream::connect(path).map_err(|e| ServeError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let writer = stream.try_clone().map_err(|e| ServeError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            client,
            next_seq: 1,
        })
    }

    /// Sends `op` under the next auto-assigned sequence number (consumed
    /// only by mutating ops) and reads one reply.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a broken connection.
    pub fn request(&mut self, op: Op) -> Result<Reply, ServeError> {
        let seq = self.next_seq;
        let reply = self.request_seq(seq, op.clone())?;
        if op.mutates() && !matches!(reply, Reply::Busy { .. }) {
            self.next_seq = seq + 1;
        }
        Ok(reply)
    }

    /// Sends `op` under an explicit sequence number — how a reconnecting
    /// client resends a possibly-already-journaled op.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a broken connection.
    pub fn request_seq(&mut self, seq: u64, op: Op) -> Result<Reply, ServeError> {
        let frame = RequestFrame {
            client: self.client,
            seq,
            op,
        };
        let line = encode_line(&frame).map_err(ServeError::Config)?;
        self.send_raw(line.as_bytes())?;
        let ReplyFrame { reply, .. } = self.read_reply()?;
        Ok(reply)
    }

    /// Sends `op`, retrying with exponential backoff while the service
    /// answers [`Reply::Busy`] — the polite reaction to backpressure.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a broken connection.
    pub fn request_retrying(&mut self, op: Op) -> Result<Reply, ServeError> {
        let mut pause = std::time::Duration::from_micros(50);
        loop {
            match self.request(op.clone())? {
                Reply::Busy { .. } => {
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(std::time::Duration::from_millis(20));
                }
                reply => return Ok(reply),
            }
        }
    }

    /// Writes raw bytes as-is (tests use this to send malformed frames).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a broken connection.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.writer
            .write_all(bytes)
            .and_then(|()| self.writer.flush())
            .map_err(|e| ServeError::Io {
                path: "socket".to_string(),
                message: e.to_string(),
            })
    }

    /// Reads one reply frame.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on EOF or an undecodable reply.
    pub fn read_reply(&mut self) -> Result<ReplyFrame, ServeError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| ServeError::Io {
                path: "socket".to_string(),
                message: e.to_string(),
            })?;
        if n == 0 {
            return Err(ServeError::Io {
                path: "socket".to_string(),
                message: "connection closed".to_string(),
            });
        }
        serde_json::from_str(&line).map_err(|e| ServeError::Io {
            path: "socket".to_string(),
            message: format!("undecodable reply: {e}"),
        })
    }
}

/// A socket path in the system temp dir, unique per process + tag: what
/// the tests and the loadgen default to.
pub fn temp_socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bbc-serve-{}-{tag}.sock", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Probe;
    use crate::service::{ServeConfig, Service};

    fn start_daemon(tag: &str) -> (PathBuf, Service, std::thread::JoinHandle<()>) {
        let path = temp_socket_path(tag);
        let service = Service::start(ServeConfig {
            peers: 8,
            budget: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = service.handle();
        let listen_path = path.clone();
        let listener = std::thread::spawn(move || {
            let _ = run_listener(&listen_path, &handle);
        });
        // Wait for the socket to appear.
        while !path.exists() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        (path, service, listener)
    }

    #[test]
    fn socket_round_trip_and_clean_shutdown() {
        let (path, service, _listener) = start_daemon("roundtrip");
        let mut client = Client::connect(&path, 1).unwrap();
        assert!(matches!(
            client.request(Op::Settle { max_steps: 10_000 }).unwrap(),
            Reply::Phase { .. }
        ));
        assert!(matches!(
            client.request(Op::Leave { node: 2 }).unwrap(),
            Reply::Ok { .. }
        ));
        // Auto-seq advanced: an explicit replay of seq 2 is suppressed.
        assert!(matches!(
            client.request_seq(2, Op::Leave { node: 3 }).unwrap(),
            Reply::Skipped { last: 2 }
        ));
        assert!(matches!(
            client.request(Op::Query(Probe::Members)).unwrap(),
            Reply::Members { .. }
        ));
        assert!(matches!(client.request(Op::Shutdown).unwrap(), Reply::Bye));
        service.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_connections_share_the_engine() {
        let (path, service, _listener) = start_daemon("shared");
        let mut a = Client::connect(&path, 1).unwrap();
        let mut b = Client::connect(&path, 2).unwrap();
        assert!(matches!(
            a.request(Op::Leave { node: 4 }).unwrap(),
            Reply::Ok { .. }
        ));
        // Client b observes a's mutation immediately.
        match b.request(Op::Query(Probe::Members)).unwrap() {
            Reply::Members { nodes } => assert!(!nodes.contains(&4)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(b.request(Op::Shutdown).unwrap(), Reply::Bye));
        service.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
