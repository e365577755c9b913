//! Newline-delimited-JSON protocol over TCP.
//!
//! One JSON request per line in, one JSON response per line out (plus a
//! raw [`mlcd::search::TraceEvent`] stream between `Watching` and
//! `WatchEnd` for watch requests). Connections are handled on detached
//! threads; the accept loop stops when a `Shutdown` request arrives.
//!
//! This module is the **only** part of the workspace allowed to read
//! the wall clock: connection log
//! lines are stamped with [`std::time::SystemTime`]. mlcd-lint's
//! nondet-source rule carves out exactly `crates/service/src/net/` —
//! nothing here feeds a `SearchOutcome`, so determinism is untouched.
//! The session path (`session.rs`, `journal.rs`, `cache.rs`) stays under
//! the full rule.

use crate::proto::{Request, Response};
use crate::session::{Phase, SessionManager};
use crate::sync::{lock_or_die, wait_timeout_or_die};
use serde::Serialize;
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// How long shutdown waits for in-flight connection threads to flush
/// their final frames (`WatchEnd`, `ShuttingDown`) before the process
/// is allowed to exit anyway.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(3);

/// Count of live connection threads, so shutdown can wait for their
/// final frames instead of racing process exit against detached threads.
struct ConnGauge {
    count: Mutex<usize>,
    cv: Condvar,
}

impl ConnGauge {
    fn new() -> ConnGauge {
        ConnGauge { count: Mutex::new(0), cv: Condvar::new() }
    }

    fn enter(&self) {
        *lock_or_die(&self.count, "conn gauge") += 1;
    }

    fn exit(&self) {
        *lock_or_die(&self.count, "conn gauge") -= 1;
        self.cv.notify_all();
    }

    /// Wait (bounded) until every connection thread has exited.
    fn drain(&self, timeout: Duration) {
        let deadline = std::time::Instant::now() + timeout;
        let mut count = lock_or_die(&self.count, "conn gauge");
        while *count > 0 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                eprintln!("[{}] shutdown: {} connection(s) still draining", log_stamp(), *count);
                return;
            }
            let (guard, _) = wait_timeout_or_die(&self.cv, count, left, "conn gauge");
            count = guard;
        }
    }
}

/// The NDJSON server: an accept loop over a [`SessionManager`].
pub struct Server {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
    conns: Arc<ConnGauge>,
}

/// Unix-seconds stamp for connection log lines (never enters a session).
fn log_stamp() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

impl Server {
    /// Bind a listener. Use port 0 for an ephemeral port and read it back
    /// with [`Server::local_addr`].
    ///
    /// # Errors
    /// Whatever [`TcpListener::bind`] reports.
    pub fn bind(addr: &str, manager: Arc<SessionManager>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            manager,
            stop: Arc::new(AtomicBool::new(false)),
            conns: Arc::new(ConnGauge::new()),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    /// Whatever [`TcpListener::local_addr`] reports.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `Shutdown` request arrives, then drain the session
    /// manager (running sessions finish; journaled queued sessions stay
    /// resumable) and return.
    ///
    /// # Errors
    /// Accept-loop I/O failure.
    pub fn run(&self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("[{}] accept error: {e}", log_stamp());
                    continue;
                }
            };
            let manager = self.manager.clone();
            let stop = self.stop.clone();
            let addr = self.local_addr()?;
            let conns = self.conns.clone();
            conns.enter();
            // Detached: a watcher blocked on a long search must not delay
            // other connections or the shutdown path.
            std::thread::spawn(move || {
                if let Err(e) = handle_conn(stream, &manager, &stop, addr) {
                    eprintln!("[{}] connection error: {e}", log_stamp());
                }
                conns.exit();
            });
        }
        // Draining the manager detaches every session: watchers blocked
        // in `next_events`/`wait_terminal` wake with the current state
        // and their connection threads send `WatchEnd` before exiting.
        // Wait (bounded) for those final frames to flush.
        self.manager.shutdown_and_wait();
        self.conns.drain(SHUTDOWN_DRAIN);
        Ok(())
    }

    /// Ask the accept loop to stop (used by `Shutdown` handling; also
    /// handy for tests). Wakes the loop with a self-connection.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(addr) = self.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Append each item to `buf` as one NDJSON line, then write the lot with
/// a single `write_all`. A response and a watch batch are each one
/// frame: with Nagle off (see [`handle_conn`]) every write leaves at
/// once, so a batch written line by line would go out a segment per line.
fn write_frame<T: Serialize>(
    out: &mut TcpStream,
    buf: &mut Vec<u8>,
    items: &[T],
) -> io::Result<()> {
    buf.clear();
    for item in items {
        let line = serde_json::to_string(item)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
    }
    out.write_all(buf)
}

fn unknown(id: u64) -> Response {
    Response::Error { message: format!("unknown session {id}") }
}

/// Serve one connection until the client closes it or asks for shutdown.
///
/// Nagle is off: a reply that follows another on the same connection
/// (a `Status` + `Stats` pair, say) would otherwise wait for the client's
/// ACK of the first, and a client with nothing more to send holds every
/// later reply back by one request or by its delayed-ACK timer.
fn handle_conn(
    stream: TcpStream,
    manager: &SessionManager,
    stop: &AtomicBool,
    server_addr: SocketAddr,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut buf = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client closed
        }
        if line.trim().is_empty() {
            continue;
        }
        let request: Request = match serde_json::from_str(line.trim()) {
            Ok(r) => r,
            Err(e) => {
                let message = format!("bad request: {e}");
                write_frame(&mut out, &mut buf, &[Response::Error { message }])?;
                continue;
            }
        };
        let response = match request {
            Request::Submit(spec) => match manager.submit(spec) {
                Ok(id) => Response::Submitted { id },
                Err(r) => Response::Rejected { queue_full: r.queue_full, reason: r.reason },
            },
            Request::Status { id } => match manager.status(id) {
                Some(sessions) => Response::StatusReport { sessions },
                None => unknown(id.unwrap_or(0)),
            },
            Request::Result { id, wait } => match manager.session(id) {
                None => unknown(id),
                Some(session) => {
                    let phase = if wait { session.wait_terminal() } else { session.phase() };
                    match phase {
                        Phase::Done(result) => Response::ResultReady { id, result: *result },
                        Phase::Failed(message) => {
                            Response::Error { message: format!("session {id} failed: {message}") }
                        }
                        other => Response::NotReady { id, state: other.name().to_string() },
                    }
                }
            },
            Request::Watch { id } => match manager.session(id) {
                None => unknown(id),
                Some(session) => {
                    write_frame(&mut out, &mut buf, &[Response::Watching { id }])?;
                    // Live batches while the session runs; once it has
                    // ended, the rest is a replay of its search on this
                    // thread (a finished session holds only its spine).
                    let state = manager
                        .watch(&session, &mut |events| write_frame(&mut out, &mut buf, events))?;
                    Response::WatchEnd { id, state }
                }
            },
            Request::Cancel { id } if manager.cancel(id) => Response::Cancelling { id },
            Request::Cancel { id } => unknown(id),
            Request::Stats => Response::Stats { stats: manager.stats() },
            Request::Shutdown => {
                write_frame(&mut out, &mut buf, &[Response::ShuttingDown])?;
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so `run` can drain and return.
                let _ = TcpStream::connect(server_addr);
                return Ok(());
            }
        };
        write_frame(&mut out, &mut buf, &[response])?;
    }
}
