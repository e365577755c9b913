//! Write-ahead session journals, with group commit.
//!
//! Each session appends one JSON record per line to its own
//! `session-{id:08}.journal` file. Every record the service *acts on*
//! is durable before the action happens, so after a crash the journal
//! is a faithful prefix of the session's deterministic event stream —
//! possibly plus one torn trailing line, which the reader detects and
//! the writer truncates away before resuming.
//!
//! # Durability paths
//!
//! Two write paths provide that guarantee:
//!
//! * **Direct** ([`SessionJournal`] without a committer): one
//!   `write_all` + `fsync` per record on the session's own file. Simple,
//!   and the path `--no-group-commit` selects; no benchmark runs it.
//! * **Group commit** ([`GroupCommitter`]): sessions enqueue pending
//!   appends; a single commit thread drains whatever is pending into one
//!   `write_all` + one `fsync` of a shared `commit.log`, then
//!   materialises the records into the per-session files *without*
//!   fsync (the page cache survives a process kill; the fsync'd log is
//!   the durability authority), and only then acks the waiting sessions.
//!   The batch window is natural: while one fsync is in flight, every
//!   arriving append queues behind it and ships in the next group. No
//!   wall clock is involved anywhere on this path.
//!
//!   Only acted-on records wait for their group: the header (its ack
//!   backs the `Submitted` reply) and the terminal record (its ack backs
//!   the reported result). Interior trace events are *pipelined* — the
//!   session handle buffers them and ships the batch with its next
//!   blocking append, so they ride the same ordered queue and group
//!   fsyncs without the searcher blocking on them (or paying the queue
//!   per event). Losing a suffix of them in a crash is indistinguishable
//!   from crashing moments earlier: replay regenerates the identical
//!   events from the header. See [`SessionJournal::append`] for the
//!   failure contract.
//!
//! On startup [`reconcile_commit_log`] replays any commit-log suffix the
//! per-session files never received (a kill can land between the log
//! fsync and the file writes), fsyncs the touched files and truncates
//! the log — after which the per-session files are exactly the durable
//! prefix and the existing per-file recovery logic applies unchanged.
//! The log is also truncated online whenever it grows past a byte
//! threshold, after fsyncing every file dirtied since the last
//! checkpoint.
//!
//! Grammar (one record per line, externally tagged):
//!
//! ```text
//! journal   := header record*
//! header    := {"Header": {format, session, spec, scenario}}
//! record    := {"Event": {seq, event}}         # journaled TraceEvent
//!            | {"CachedEvent": {seq, event}}    # probe served by the shared cache
//!            | {"Completed": {result}}          # terminal: SessionResult
//!            | "Cancelled"                      # terminal
//!            | {"Failed": {error}}              # terminal
//! ```
//!
//! Only the deterministic spine of the trace is journaled (`InitProbe`,
//! `Probe`, `IncumbentChanged`, `Stopped`); advisory events such as
//! candidate scoring are derived state and would only bloat the log.
//!
//! `CachedEvent` records probe provenance: its observation came from the
//! shared [`crate::cache::ProbeCache`], was charged nothing, and advanced
//! none of the session profiler's internal state. Replay cannot re-derive
//! such an observation (the cache dies with the process and the profiler's
//! RNG stream never saw the probe), so resume serves it straight from the
//! journal — the journal, not the cache, is the authority on what
//! happened. Format 2 added this variant; it is a strict superset of
//! format 1, so readers accept both.

use crate::proto::{SessionResult, SubmitSpec};
use crate::sync::{lock_or_die, wait_or_die};
use mlcd::prelude::Scenario;
use mlcd::search::TraceEvent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Version tag of the journal grammar above.
pub const JOURNAL_FORMAT: u32 = 2;

/// One line of a session journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// First line: identifies the session and everything needed to replay
    /// it deterministically.
    Header {
        /// Grammar version ([`JOURNAL_FORMAT`]).
        format: u32,
        /// Session id (also in the file name).
        session: u64,
        /// The submitted spec — job, searcher, seed, scenario parameters.
        spec: SubmitSpec,
        /// The resolved scenario (redundant with `spec`, kept so a journal
        /// is self-describing without re-deriving).
        scenario: Scenario,
    },
    /// One journaled trace event.
    Event {
        /// 0-based position in the journaled event stream.
        seq: u64,
        /// The event.
        event: TraceEvent,
    },
    /// One journaled probe event whose observation was served by the
    /// shared probe cache: free, and invisible to the session profiler's
    /// internal state. Resume must serve it from this record rather than
    /// re-probe.
    CachedEvent {
        /// 0-based position in the journaled event stream (shared
        /// numbering with [`JournalRecord::Event`]).
        seq: u64,
        /// The event.
        event: TraceEvent,
    },
    /// Terminal record of a session that finished normally.
    Completed {
        /// The full result, as served by the `result` request.
        result: SessionResult,
    },
    /// Terminal record of a cancelled session.
    Cancelled,
    /// Terminal record of a session that failed.
    Failed {
        /// Why.
        error: String,
    },
}

impl JournalRecord {
    /// Whether this record ends a session.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JournalRecord::Completed { .. }
                | JournalRecord::Cancelled
                | JournalRecord::Failed { .. }
        )
    }
}

/// Is this `TraceEvent` part of the journaled deterministic spine?
pub fn is_journaled(event: &TraceEvent) -> bool {
    matches!(
        event,
        TraceEvent::InitProbe { .. }
            | TraceEvent::Probe { .. }
            | TraceEvent::IncumbentChanged { .. }
            | TraceEvent::Stopped { .. }
    )
}

/// Journal file name for a session id.
pub fn journal_file(dir: &Path, session: u64) -> PathBuf {
    dir.join(format!("session-{session:08}.journal"))
}

/// Parse a session id back out of a journal file name.
pub fn session_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("session-")?.strip_suffix(".journal")?;
    rest.parse().ok()
}

/// Append-only, fsync-per-record journal writer.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Create a fresh journal (truncating any stale file of the same id).
    pub fn create(path: &Path) -> std::io::Result<JournalWriter> {
        Ok(JournalWriter { file: File::create(path)? })
    }

    /// Reopen an existing journal for appending, first truncating it to
    /// `valid_len` to drop a torn trailing line left by a crash.
    pub fn open_append(path: &Path, valid_len: u64) -> std::io::Result<JournalWriter> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut w = JournalWriter { file };
        w.file.seek(SeekFrom::End(0))?;
        Ok(w)
    }

    /// Append one record as a line and fsync it to disk. On return the
    /// record is durable — this is the write-ahead guarantee the resume
    /// path leans on.
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

// ---- group commit ----------------------------------------------------

/// File name of the shared group-commit log inside a journal directory.
pub const COMMIT_LOG_FILE: &str = "commit.log";

/// Path of the shared group-commit log for a journal directory.
pub fn commit_log_file(dir: &Path) -> PathBuf {
    dir.join(COMMIT_LOG_FILE)
}

/// One line of the shared commit log. `Append` carries the session
/// journal record it stands for plus the record's 0-based position in
/// that session's file, so recovery can detect (and refuse) gaps.
/// `Drop` is a tombstone: the session's journal file was deliberately
/// deleted after its header became durable (a late-rejected submit) and
/// must not be resurrected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommitLogEntry {
    /// A record appended to one session's journal.
    Append {
        /// Session id.
        session: u64,
        /// 0-based record index in the session file (the header is 0).
        index: u64,
        /// The record itself.
        record: JournalRecord,
    },
    /// The session's journal file was intentionally deleted.
    Drop {
        /// Session id.
        session: u64,
    },
}

/// Where the commit thread simulates a kill, for crash-injection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitCrashPoint {
    /// After writing the group to the commit log but before its fsync:
    /// power loss would leave nothing of the group durable, so the log
    /// is rolled back to its pre-group length and every waiter fails.
    BeforeFsync,
    /// After the log fsync but before the per-session file writes and
    /// acks: the group is durable but no session acted on it — exactly
    /// the state [`reconcile_commit_log`] exists to repair.
    AfterFsync,
}

/// Why an append through the group committer did not become durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// I/O failure; the session should fail loudly.
    Io(String),
    /// The committer simulated a kill (crash-injection); the session
    /// must end as crashed, with no terminal record.
    Crashed,
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::Io(e) => write!(f, "{e}"),
            AppendError::Crashed => write!(f, "journal committer crashed"),
        }
    }
}

/// An open per-session journal file, shared between the session (which
/// owns the [`SessionJournal`] handle) and the commit thread (which
/// materialises durable records into it).
#[derive(Debug)]
pub struct SessionFile {
    inner: Mutex<FileInner>,
}

/// Handle plus sticky failure behind *one* mutex, so checking `broken`
/// and writing are a single critical section — no second lock can be
/// caught live across the file write (lint rule R6 flags exactly that
/// shape; the mutex-guarded `File` serializing its own I/O is the
/// sanctioned one).
#[derive(Debug)]
struct FileInner {
    file: File,
    /// First write failure, sticky: once a record could not be
    /// materialised the file has a gap, so every later write (and the
    /// session's next blocking append) must fail rather than leave a
    /// hole in the record stream.
    broken: Option<String>,
}

impl SessionFile {
    fn new(file: File) -> SessionFile {
        SessionFile { inner: Mutex::new(FileInner { file, broken: None }) }
    }

    /// The sticky failure, if any write to this file ever failed.
    fn broken(&self) -> Option<String> {
        lock_or_die(&self.inner, "session file").broken.clone()
    }

    fn write_line(&self, line: &str) -> Result<(), String> {
        let mut st = lock_or_die(&self.inner, "session file");
        if let Some(e) = &st.broken {
            return Err(e.clone());
        }
        match st.file.write_all(line.as_bytes()) {
            Ok(()) => Ok(()),
            Err(e) => {
                st.broken = Some(e.to_string());
                Err(e.to_string())
            }
        }
    }

    fn write_line_synced(&self, line: &str) -> std::io::Result<()> {
        let mut st = lock_or_die(&self.inner, "session file");
        st.file.write_all(line.as_bytes())?;
        st.file.sync_data()
    }

    fn sync(&self) -> std::io::Result<()> {
        lock_or_die(&self.inner, "session file").file.sync_data()
    }
}

/// One append handed to the commit thread. `ticket` is `None` for
/// pipelined appends nobody blocks on (interior trace events). A single
/// `PendingAppend` may carry several records of one session: the session
/// handle buffers its pipelined records and ships them with the next
/// blocking append, so the queue is paid per *batch*, not per record —
/// `entry_line`/`record_line` are then concatenations of whole lines, in
/// order, and `nrecords` counts them.
struct PendingAppend {
    /// Target session file; `None` for tombstone-only entries.
    file: Option<Arc<SessionFile>>,
    /// Serialized [`CommitLogEntry`] line(s) (newline-terminated).
    entry_line: String,
    /// Serialized [`JournalRecord`] line(s) for the session file.
    record_line: String,
    /// How many records `entry_line` holds.
    nrecords: u64,
    waiter: Option<Waiter>,
}

/// Who learns that a pending append became durable (or failed): a
/// [`Ticket`] a blocked thread is waiting on, or a completion callback
/// the commit thread runs itself — the mechanism behind fully
/// asynchronous terminal records, where the *action* taken on
/// durability (publishing the session's terminal phase) rides the ack
/// path instead of parking a worker thread for the fsync.
enum Waiter {
    Ticket(Arc<Ticket>),
    Callback(Box<dyn FnOnce(Result<(), AppendError>) + Send>),
}

impl Waiter {
    fn complete(self, outcome: Result<(), AppendError>) {
        match self {
            Waiter::Ticket(t) => t.complete(outcome),
            Waiter::Callback(f) => f(outcome),
        }
    }
}

/// Completion slot a submitting session blocks on.
struct Ticket {
    done: Mutex<Option<Result<(), AppendError>>>,
    cv: Condvar,
}

impl Ticket {
    fn new() -> Ticket {
        Ticket { done: Mutex::new(None), cv: Condvar::new() }
    }

    fn complete(&self, outcome: Result<(), AppendError>) {
        *lock_or_die(&self.done, "ticket") = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<(), AppendError> {
        let mut slot = lock_or_die(&self.done, "ticket");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = wait_or_die(&self.cv, slot, "ticket");
        }
    }
}

/// Why the commit thread is gone for good.
enum DeadReason {
    /// Simulated kill (crash-injection hook).
    Crashed,
    /// Real I/O failure on the shared log.
    Broken(String),
}

struct CommitQueue {
    pending: Vec<PendingAppend>,
    shutdown: bool,
    dead: Option<DeadReason>,
}

struct CommitShared {
    queue: Mutex<CommitQueue>,
    work_cv: Condvar,
    groups: AtomicU64,
    records: AtomicU64,
    checkpoints: AtomicU64,
}

impl std::fmt::Debug for CommitShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitShared")
            .field("groups", &self.groups.load(Ordering::Relaxed))
            .field("records", &self.records.load(Ordering::Relaxed))
            .field("checkpoints", &self.checkpoints.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CommitShared {
    /// Queue one pre-serialized append with an optional [`Waiter`] to
    /// notify at its covering fsync, returning as soon as it is queued.
    /// Unwaited appends still keep their order, and a later waited
    /// append of the same session cannot succeed past a failure of an
    /// earlier one (the session file's sticky error sees to that). On
    /// the fail-fast path (committer dead or shut down) the waiter is
    /// completed with the same error this returns — whoever holds a
    /// waiter hears its outcome exactly once, queued or not.
    fn enqueue(
        &self,
        file: Option<Arc<SessionFile>>,
        entry_line: String,
        record_line: String,
        nrecords: u64,
        mut waiter: Option<Waiter>,
    ) -> Result<(), AppendError> {
        let (refused, was_idle) = {
            let mut q = lock_or_die(&self.queue, "commit queue");
            let refused = match &q.dead {
                Some(DeadReason::Crashed) => Some(AppendError::Crashed),
                Some(DeadReason::Broken(e)) => {
                    Some(AppendError::Io(format!("commit log broken: {e}")))
                }
                None if q.shutdown => {
                    Some(AppendError::Io("journal committer is shut down".into()))
                }
                None => {
                    q.pending.push(PendingAppend {
                        file,
                        entry_line,
                        record_line,
                        nrecords,
                        waiter: waiter.take(),
                    });
                    None
                }
            };
            (refused, q.pending.len() == 1)
        };
        match refused {
            None => {
                // The committer rechecks the queue before sleeping, so
                // only the append that makes it non-empty can find it
                // asleep.
                if was_idle {
                    self.work_cv.notify_one();
                }
                Ok(())
            }
            Some(e) => {
                if let Some(w) = waiter {
                    w.complete(Err(e.clone()));
                }
                Err(e)
            }
        }
    }

    /// [`CommitShared::enqueue`], then block until the commit thread has
    /// made the append durable (and written it to the session file).
    fn enqueue_wait(
        &self,
        file: Option<Arc<SessionFile>>,
        entry_line: String,
        record_line: String,
        nrecords: u64,
    ) -> Result<(), AppendError> {
        let ticket = Arc::new(Ticket::new());
        self.enqueue(
            file,
            entry_line,
            record_line,
            nrecords,
            Some(Waiter::Ticket(ticket.clone())),
        )?;
        ticket.wait()
    }
}

/// Cloneable handle sessions append through; see [`GroupCommitter`].
#[derive(Clone)]
pub struct CommitHandle(Arc<CommitShared>);

impl std::fmt::Debug for CommitHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitHandle").finish_non_exhaustive()
    }
}

impl CommitHandle {
    /// Durably record that `session`'s journal file was deliberately
    /// deleted, so recovery never resurrects it from the commit log.
    ///
    /// # Errors
    /// [`AppendError`] if the committer is dead or shut down.
    pub fn append_drop(&self, session: u64) -> Result<(), AppendError> {
        let mut entry_line = serde_json::to_string(&CommitLogEntry::Drop { session })
            .map_err(|e| AppendError::Io(format!("unserializable commit entry: {e}")))?;
        entry_line.push('\n');
        self.0.enqueue_wait(None, entry_line, String::new(), 1)
    }
}

/// Counters describing the committer's work so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Groups committed (fsyncs of the shared log).
    pub groups: u64,
    /// Records made durable across all groups.
    pub records: u64,
    /// Times the shared log was checkpoint-truncated.
    pub checkpoints: u64,
}

/// The group-commit thread: batches pending appends from many sessions
/// into one write + one fsync of the shared `commit.log` per group.
///
/// Durability ordering: (1) one `write_all` of every entry line per
/// group to the log, (2) at the next flush boundary one `fsync` — every
/// group staged since the last flush becomes durable at once, and a
/// kill can only tear the *final line* of the log (each group is a
/// single `write_all`, which tears to a prefix), (3) unfsync'd writes
/// to the per-session files, (4) ack every waiter. A flush happens as
/// soon as a group carries a waiter, when the log crosses the
/// checkpoint threshold, when the queue goes idle, and at shutdown — so
/// a waiter never sits behind more than one fsync, while saturated
/// pipelined traffic amortises each fsync over many groups. A record is
/// therefore acted on only once durable, exactly as in the
/// per-append-fsync path — and pipelined (unwaited) records ride the
/// same ordered groups without stalling their session.
#[derive(Debug)]
pub struct GroupCommitter {
    shared: Arc<CommitShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl GroupCommitter {
    /// Open (or create) `dir/commit.log` and spawn the commit thread.
    /// `checkpoint_bytes` bounds the log: past it, every dirtied session
    /// file is fsync'd and the log truncated. `crash_at` is the
    /// crash-injection hook: simulate a kill at the given point while
    /// committing the given (0-based) group.
    ///
    /// # Errors
    /// I/O failure opening the log.
    pub fn start(
        dir: &Path,
        checkpoint_bytes: u64,
        crash_at: Option<(u64, CommitCrashPoint)>,
    ) -> std::io::Result<GroupCommitter> {
        let path = commit_log_file(dir);
        let log = OpenOptions::new().create(true).append(true).open(&path)?;
        let log_len = log.metadata()?.len();
        let shared = Arc::new(CommitShared {
            queue: Mutex::new(CommitQueue { pending: Vec::new(), shutdown: false, dead: None }),
            work_cv: Condvar::new(),
            groups: AtomicU64::new(0),
            records: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        });
        let thread = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                commit_loop(&shared, log, log_len, checkpoint_bytes, crash_at)
            })
        };
        Ok(GroupCommitter { shared, thread: Mutex::new(Some(thread)) })
    }

    /// A cloneable append handle for session journals.
    pub fn handle(&self) -> CommitHandle {
        CommitHandle(self.shared.clone())
    }

    /// Commit-thread counters.
    pub fn stats(&self) -> CommitStats {
        CommitStats {
            groups: self.shared.groups.load(Ordering::SeqCst),
            records: self.shared.records.load(Ordering::SeqCst),
            checkpoints: self.shared.checkpoints.load(Ordering::SeqCst),
        }
    }

    /// Flush whatever is pending, stop the commit thread and join it.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = lock_or_die(&self.shared.queue, "commit queue");
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let handle = lock_or_die(&self.thread, "commit thread").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Fail `batch` and everything still queued, and mark the committer
/// dead so later appends fail fast instead of blocking forever.
fn commit_die(shared: &CommitShared, batch: Vec<PendingAppend>, reason: DeadReason) {
    let err = match &reason {
        DeadReason::Crashed => AppendError::Crashed,
        DeadReason::Broken(e) => AppendError::Io(format!("commit log broken: {e}")),
    };
    let drained = {
        let mut q = lock_or_die(&shared.queue, "commit queue");
        q.dead = Some(reason);
        std::mem::take(&mut q.pending)
    };
    for p in batch.into_iter().chain(drained) {
        if let Some(w) = p.waiter {
            w.complete(Err(err.clone()));
        }
    }
}

fn commit_loop(
    shared: &Arc<CommitShared>,
    mut log: File,
    mut log_len: u64,
    checkpoint_bytes: u64,
    crash_at: Option<(u64, CommitCrashPoint)>,
) {
    // Session files written since the last checkpoint; they must be
    // fsync'd before the log (their durability authority) is truncated.
    let mut dirty: Vec<Arc<SessionFile>> = Vec::new();
    let mut group_no = 0u64;
    // Groups written to the log but not yet covered by an fsync. Their
    // session-file writes, counters and acks are deferred to the flush,
    // keeping the invariant that a file never holds a record the durable
    // log lacks. A flush happens as soon as a group carries a waiter,
    // when the log crosses the checkpoint threshold, when the queue goes
    // idle, and at shutdown — so under load one fsync covers many
    // groups, and a waiter never waits behind more than one fsync.
    let mut staged: Vec<PendingAppend> = Vec::new();
    let mut staged_groups = 0u64;
    let mut synced_len = log_len;
    let mut crash_after_fsync = false;
    loop {
        let (batch, shutdown): (Vec<PendingAppend>, bool) = {
            let mut q = lock_or_die(&shared.queue, "commit queue");
            loop {
                if !q.pending.is_empty() {
                    break (std::mem::take(&mut q.pending), false);
                }
                if q.shutdown || !staged.is_empty() {
                    // Nothing queued: flush the staged tail rather than
                    // sleep on it (and drain before a shutdown).
                    break (Vec::new(), q.shutdown);
                }
                q = wait_or_die(&shared.work_cv, q, "commit queue");
            }
        };
        if batch.is_empty() && staged.is_empty() {
            return; // shutdown with nothing left to flush
        }

        let mut flush = batch.is_empty() || shutdown;
        if !batch.is_empty() {
            let crash_here = crash_at.filter(|(g, _)| *g == group_no).map(|(_, point)| point);

            // (1) one write of the whole group to the shared log.
            let mut buf = String::new();
            for p in &batch {
                buf.push_str(&p.entry_line);
            }
            let wrote = log.write_all(buf.as_bytes());
            if crash_here == Some(CommitCrashPoint::BeforeFsync) {
                // Simulated power loss before the covering fsync:
                // nothing written since the last fsync survives. Roll
                // the log back so disk state matches.
                let _ = log.set_len(synced_len);
                commit_die(shared, staged.into_iter().chain(batch).collect(), DeadReason::Crashed);
                return;
            }
            if let Err(e) = wrote {
                commit_die(
                    shared,
                    staged.into_iter().chain(batch).collect(),
                    DeadReason::Broken(e.to_string()),
                );
                return;
            }
            log_len += buf.len() as u64;
            group_no += 1;
            staged_groups += 1;
            if crash_here == Some(CommitCrashPoint::AfterFsync) {
                crash_after_fsync = true;
            }
            flush = flush
                || batch.iter().any(|p| p.waiter.is_some())
                || log_len >= checkpoint_bytes
                || crash_after_fsync;
            staged.extend(batch);
        }
        if !flush {
            continue;
        }

        // (2) one fsync — every group staged since the last flush
        // becomes durable at once.
        if let Err(e) = log.sync_data() {
            commit_die(shared, staged, DeadReason::Broken(e.to_string()));
            return;
        }
        synced_len = log_len;
        if crash_after_fsync {
            // Durable but unacked, session files unwritten: the state
            // `reconcile_commit_log` repairs on the next start.
            commit_die(shared, staged, DeadReason::Crashed);
            return;
        }

        // (3) materialise into the per-session files — no fsync; the
        // page cache survives a process kill and the fsync'd log covers
        // a machine one. Records are coalesced per file first, so each
        // file gets one write per flush however many of its records the
        // flush covers; a failed write is sticky on the file, failing
        // every covered record of that file below.
        let mut buffers: Vec<(Arc<SessionFile>, String)> = Vec::new();
        for p in &staged {
            if let Some(f) = &p.file {
                match buffers.iter_mut().find(|(bf, _)| Arc::ptr_eq(bf, f)) {
                    Some((_, buf)) => buf.push_str(&p.record_line),
                    None => buffers.push((f.clone(), p.record_line.clone())),
                }
            }
        }
        for (f, buf) in &buffers {
            if f.write_line(buf).is_ok() && !dirty.iter().any(|d| Arc::ptr_eq(d, f)) {
                dirty.push(f.clone());
            }
        }

        // (4) ack — every waiter's record is durable (and readable from
        // its session file) before the session acts on it. Counters are
        // bumped first so an observer who waited for the acks never sees
        // a stale count. Pipelined appends have no waiter; a write
        // failure on one is sticky on its session file and surfaces at
        // the session's next waited append.
        shared.groups.fetch_add(staged_groups, Ordering::SeqCst);
        shared.records.fetch_add(staged.iter().map(|p| p.nrecords).sum(), Ordering::SeqCst);
        staged_groups = 0;
        for p in staged.drain(..) {
            if let Some(w) = p.waiter {
                let res = match p.file.as_ref().and_then(|f| f.broken()) {
                    None => Ok(()),
                    Some(e) => Err(AppendError::Io(e)),
                };
                w.complete(res);
            }
        }
        if shutdown {
            return;
        }

        // Checkpoint: once every dirtied file is fsync'd the log holds
        // no information the files lack, so it can be truncated. Any
        // failure just leaves the (still correct) log in place.
        if log_len >= checkpoint_bytes {
            let all_synced = dirty.iter().all(|f| f.sync().is_ok());
            if all_synced && log.set_len(0).and_then(|()| log.sync_data()).is_ok() {
                log_len = 0;
                synced_len = 0;
                dirty.clear();
                shared.checkpoints.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

// ---- session journal handles -----------------------------------------

enum JournalMode {
    /// fsync per append on the session's own file.
    Direct,
    /// Appends go through the shared group committer.
    Group(CommitHandle),
}

impl std::fmt::Debug for JournalMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalMode::Direct => write!(f, "Direct"),
            JournalMode::Group(_) => write!(f, "Group"),
        }
    }
}

/// A session's write handle on its own journal, in either durability
/// mode. Replaces the bare [`JournalWriter`] on the service's write
/// path; the contract is identical — when [`SessionJournal::append`]
/// returns `Ok`, the record is durable.
#[derive(Debug)]
pub struct SessionJournal {
    session: u64,
    /// 0-based index of the next record (== records already in the file).
    index: u64,
    file: Arc<SessionFile>,
    mode: JournalMode,
    /// Pipelined records serialized but not yet handed to the committer
    /// (group mode only): concatenated commit-log entry lines, session
    /// file record lines, and their count. They ship as one queue push
    /// with the next blocking append — or sooner past [`BUFFER_BYTES`] —
    /// so the commit queue is paid per batch, not per trace event.
    buf_entries: String,
    buf_records: String,
    buf_count: u64,
}

/// Size bound on a session's buffered pipelined records; past it the
/// buffer ships ticketless rather than waiting for a blocking append.
const BUFFER_BYTES: usize = 32 * 1024;

impl SessionJournal {
    /// Create a fresh journal file (truncating any stale one) writing
    /// through `committer` when given, per-append fsync otherwise.
    ///
    /// # Errors
    /// I/O failure creating the file.
    pub fn create(
        path: &Path,
        session: u64,
        committer: Option<CommitHandle>,
    ) -> std::io::Result<SessionJournal> {
        let file = File::create(path)?;
        Ok(SessionJournal {
            session,
            index: 0,
            file: Arc::new(SessionFile::new(file)),
            mode: match committer {
                Some(h) => JournalMode::Group(h),
                None => JournalMode::Direct,
            },
            buf_entries: String::new(),
            buf_records: String::new(),
            buf_count: 0,
        })
    }

    /// Reopen an existing journal for appending: truncate the torn tail
    /// past `valid_len`, position at the end, and continue the record
    /// numbering at `records`.
    ///
    /// # Errors
    /// I/O failure opening or truncating the file.
    pub fn open_append(
        path: &Path,
        valid_len: u64,
        records: u64,
        session: u64,
        committer: Option<CommitHandle>,
    ) -> std::io::Result<SessionJournal> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(SessionJournal {
            session,
            index: records,
            file: Arc::new(SessionFile::new(file)),
            mode: match committer {
                Some(h) => JournalMode::Group(h),
                None => JournalMode::Direct,
            },
            buf_entries: String::new(),
            buf_records: String::new(),
            buf_count: 0,
        })
    }

    /// Append one record.
    ///
    /// In direct mode every append fsyncs and `Ok` means durable. In
    /// group mode the call blocks on the group fsync only for records
    /// the service *acts on* — the header (a `Submitted` reply promises
    /// the session survives a crash) and the terminal record (a reported
    /// result must be servable after restart). Interior trace events are
    /// pipelined: buffered in this handle and handed to the commit
    /// thread in order (with the next blocking append, or sooner past a
    /// size bound), but never awaited — they are never externally acted
    /// on before becoming durable, and a crash that loses a suffix of
    /// them (buffered or queue-truncated) loses nothing, because
    /// deterministic replay regenerates the identical events. A
    /// pipelined write failure is sticky on the session file and fails
    /// the session's next blocking append, so a terminal record can
    /// never commit past a gap.
    ///
    /// # Errors
    /// [`AppendError::Io`] on write failure, [`AppendError::Crashed`]
    /// when the committer simulated a kill.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), AppendError> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| AppendError::Io(format!("unserializable record: {e}")))?;
        line.push('\n');
        match &self.mode {
            JournalMode::Direct => {
                self.file.write_line_synced(&line).map_err(|e| AppendError::Io(e.to_string()))?;
            }
            JournalMode::Group(h) => {
                let h = h.clone();
                let wait = matches!(record, JournalRecord::Header { .. }) || record.is_terminal();
                self.buffer_record(&line);
                if !wait && self.buf_records.len() < BUFFER_BYTES {
                    self.index += 1;
                    return Ok(());
                }
                if let Some(e) = self.file.broken() {
                    return Err(AppendError::Io(format!("session journal broken: {e}")));
                }
                let (entries, records, count) = self.take_buffer();
                if wait {
                    h.0.enqueue_wait(Some(self.file.clone()), entries, records, count)?;
                } else {
                    h.0.enqueue(Some(self.file.clone()), entries, records, count, None)?;
                }
            }
        }
        self.index += 1;
        Ok(())
    }

    /// Append a terminal record without blocking: `finish` runs with the
    /// append's outcome once the record's covering group fsync lands (or
    /// immediately, in direct mode / on a fail-fast error). Group mode
    /// runs `finish` on the commit thread's ack path — the whole point:
    /// the action taken on durability no longer parks the calling worker
    /// for an fsync, so a fixed pool completes sessions as fast as the
    /// committer can batch them. The ordering contract is unchanged:
    /// `finish(Ok)` fires only after the record (and every buffered
    /// record before it) is durable in the commit log and written to the
    /// session file.
    pub fn append_async(
        mut self,
        record: &JournalRecord,
        finish: impl FnOnce(Result<(), AppendError>) + Send + 'static,
    ) {
        let mut line = match serde_json::to_string(record) {
            Ok(l) => l,
            Err(e) => return finish(Err(AppendError::Io(format!("unserializable record: {e}")))),
        };
        line.push('\n');
        match &self.mode {
            JournalMode::Direct => {
                finish(
                    self.file.write_line_synced(&line).map_err(|e| AppendError::Io(e.to_string())),
                );
            }
            JournalMode::Group(h) => {
                let h = h.clone();
                if let Some(e) = self.file.broken() {
                    return finish(Err(AppendError::Io(format!("session journal broken: {e}"))));
                }
                self.buffer_record(&line);
                let (entries, records, count) = self.take_buffer();
                // On the fail-fast path (committer dead or shut down)
                // `enqueue` completes the callback itself with the
                // error; once queued, the commit thread owns it. Either
                // way `finish` runs exactly once.
                let _ = h.0.enqueue(
                    Some(self.file.clone()),
                    entries,
                    records,
                    count,
                    Some(Waiter::Callback(Box::new(finish))),
                );
            }
        }
    }

    /// Serialize-splice `line` into the commit-log envelope and stash
    /// both forms in the pipelining buffer.
    fn buffer_record(&mut self, line: &str) {
        // Splice the already-serialized record into the
        // [`CommitLogEntry::Append`] envelope rather than cloning the
        // record and serializing it a second time — terminal records
        // carry the whole search result, and this runs once per
        // journaled probe.
        use std::fmt::Write as _;
        let _ = writeln!(
            self.buf_entries,
            "{{\"Append\":{{\"session\":{},\"index\":{},\"record\":{}}}}}",
            self.session,
            self.index,
            &line[..line.len() - 1],
        );
        self.buf_records.push_str(line);
        self.buf_count += 1;
    }

    fn take_buffer(&mut self) -> (String, String, u64) {
        let entries = std::mem::take(&mut self.buf_entries);
        let records = std::mem::take(&mut self.buf_records);
        let count = self.buf_count;
        self.buf_count = 0;
        (entries, records, count)
    }
}

impl Drop for SessionJournal {
    /// Best-effort: ship any still-buffered pipelined records so a
    /// cleanly shut down session leaves the longest possible durable
    /// prefix. Losing them would still be correct — they are exactly the
    /// records a crash is allowed to truncate — so errors are ignored.
    fn drop(&mut self) {
        if self.buf_count > 0 {
            if let JournalMode::Group(h) = &self.mode {
                let entries = std::mem::take(&mut self.buf_entries);
                let records = std::mem::take(&mut self.buf_records);
                let _ =
                    h.0.enqueue(Some(self.file.clone()), entries, records, self.buf_count, None);
            }
        }
    }
}

// ---- commit-log recovery ---------------------------------------------

/// Replay the durable commit log into the per-session journal files,
/// then truncate it.
///
/// A kill between the log fsync and the session-file writes (or the
/// page cache never reaching disk on power loss) leaves records that
/// are durable in the log but missing from the files. This walks the
/// log in order, applies every `Append` a session file does not already
/// hold (verifying record indices are contiguous — a gap means data
/// loss and errors out loudly), honours `Drop` tombstones by deleting
/// the named session's file, fsyncs every touched file and finally
/// truncates the log. The log's own torn tail follows the same rule as
/// session journals: a final line without its newline is dropped; a
/// newline-terminated unparsable line is corruption.
///
/// # Errors
/// I/O failure, commit-log corruption, or a non-contiguous record gap.
pub fn reconcile_commit_log(dir: &Path) -> std::io::Result<()> {
    let log_path = commit_log_file(dir);
    if !log_path.exists() {
        return Ok(());
    }
    let mut bytes = Vec::new();
    File::open(&log_path)?.read_to_end(&mut bytes)?;

    // Per-session records accumulated from the log, in log order, plus
    // tombstones. A later `Append` for a dropped id revives it (id
    // reuse across a restart).
    let mut pending: BTreeMap<u64, Vec<(u64, JournalRecord)>> = BTreeMap::new();
    let mut dropped: Vec<u64> = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // torn tail: the final group's write was cut short
        };
        let line = &bytes[offset..offset + nl];
        let parsed = std::str::from_utf8(line)
            .ok()
            .and_then(|s| serde_json::from_str::<CommitLogEntry>(s).ok());
        match parsed {
            Some(CommitLogEntry::Append { session, index, record }) => {
                dropped.retain(|&s| s != session);
                pending.entry(session).or_default().push((index, record));
            }
            Some(CommitLogEntry::Drop { session }) => {
                pending.remove(&session);
                if !dropped.contains(&session) {
                    dropped.push(session);
                }
            }
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "corrupt commit-log entry at byte {offset} of {} \
                         (newline-terminated, so not a torn tail)",
                        log_path.display()
                    ),
                ));
            }
        }
        offset += nl + 1;
    }

    for (session, entries) in &pending {
        let path = journal_file(dir, *session);
        let (have, valid_len) = if path.exists() {
            let contents = read_journal(&path)?;
            (contents.records.len() as u64, contents.valid_len)
        } else {
            (0, 0)
        };
        let missing: Vec<&(u64, JournalRecord)> =
            entries.iter().filter(|(index, _)| *index >= have).collect();
        if missing.is_empty() {
            continue;
        }
        // The log is ordered, so missing indices must run have, have+1…
        // — anything else means a durable record vanished.
        for (offset_in_missing, (index, _)) in missing.iter().enumerate() {
            let expect = have + offset_in_missing as u64;
            if *index != expect {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "commit log holds record {index} of session {session} but its \
                         journal file has only {have} records (expected {expect}): \
                         a durable record is missing"
                    ),
                ));
            }
        }
        let mut file =
            OpenOptions::new().create(true).truncate(false).read(true).write(true).open(&path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        for (_, record) in missing {
            let mut line = serde_json::to_string(record)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            line.push('\n');
            file.write_all(line.as_bytes())?;
        }
        file.sync_data()?;
    }
    for session in dropped {
        let _ = std::fs::remove_file(journal_file(dir, session));
    }

    // Everything the log held is now in fsync'd files; truncate it.
    let log = OpenOptions::new().write(true).open(&log_path)?;
    log.set_len(0)?;
    log.sync_data()?;
    Ok(())
}

/// A journal read back from disk.
#[derive(Debug)]
pub struct JournalContents {
    /// Every complete, well-formed record, in order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the well-formed prefix; anything past it is a torn
    /// tail to truncate before appending.
    pub valid_len: u64,
}

impl JournalContents {
    /// The header, if the journal has one.
    pub fn header(&self) -> Option<&JournalRecord> {
        match self.records.first() {
            Some(h @ JournalRecord::Header { .. }) => Some(h),
            _ => None,
        }
    }

    /// The journaled events (in order), without their envelopes.
    pub fn events(&self) -> Vec<&TraceEvent> {
        self.event_entries().into_iter().map(|(e, _)| e).collect()
    }

    /// The journaled events (in order) with their provenance: `true` when
    /// the record is a [`JournalRecord::CachedEvent`] — an observation the
    /// shared cache served for free, which replay must serve from the
    /// journal rather than re-probe.
    pub fn event_entries(&self) -> Vec<(&TraceEvent, bool)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Event { event, .. } => Some((event, false)),
                JournalRecord::CachedEvent { event, .. } => Some((event, true)),
                _ => None,
            })
            .collect()
    }

    /// The terminal record, if the session reached one.
    pub fn terminal(&self) -> Option<&JournalRecord> {
        self.records.last().filter(|r| r.is_terminal())
    }
}

/// Read a journal, tolerating a torn trailing line.
///
/// A record that fails to parse is corruption and errors out — unless it
/// is the final line *and* lacks its terminating newline. Each append is
/// one `write_all` of `line + '\n'`, so a crash can only tear the tail to
/// a proper prefix that never includes the newline; a newline-terminated
/// line that still fails to parse was written whole and indicates real
/// corruption (bit rot, manual edit), which is surfaced exactly like
/// mid-file corruption instead of being silently discarded.
///
/// # Errors
/// I/O failure, or a malformed newline-terminated record anywhere in the
/// file.
pub fn read_journal(path: &Path) -> std::io::Result<JournalContents> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;

    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // torn tail: no terminating newline
        };
        let line = &bytes[offset..offset + nl];
        let parsed = std::str::from_utf8(line)
            .ok()
            .and_then(|s| serde_json::from_str::<JournalRecord>(s).ok());
        match parsed {
            Some(rec) => {
                records.push(rec);
                offset += nl + 1;
                valid_len = offset as u64;
            }
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "corrupt journal record at byte {offset} of {} \
                         (newline-terminated, so not a torn tail)",
                        path.display()
                    ),
                ));
            }
        }
    }
    Ok(JournalContents { records, valid_len })
}

/// All journal files in a directory, sorted by session id.
///
/// # Errors
/// I/O failure listing the directory.
pub fn list_journals(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(id) = session_of(&path) {
            found.push((id, path));
        }
    }
    found.sort();
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcd::prelude::{Deployment, InstanceType, Money, Observation, SimDuration};

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mlcd-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn probe(seq: u64) -> JournalRecord {
        JournalRecord::Event {
            seq,
            event: TraceEvent::Probe {
                observation: Observation {
                    deployment: Deployment::new(InstanceType::C5Xlarge, 2),
                    speed: 123.5,
                    profile_time: SimDuration::from_secs(60.0),
                    profile_cost: Money::from_dollars(0.25),
                },
                cum_profile_time: SimDuration::from_secs(60.0),
                cum_profile_cost: Money::from_dollars(0.25),
            },
        }
    }

    fn header() -> JournalRecord {
        JournalRecord::Header {
            format: JOURNAL_FORMAT,
            session: 3,
            spec: SubmitSpec::new("resnet-cifar10", "heterbo", 1),
            scenario: Scenario::FastestUnlimited,
        }
    }

    #[test]
    fn round_trips_records_and_reads_them_back() {
        let d = dir("roundtrip");
        let path = journal_file(&d, 3);
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&header()).unwrap();
        w.append(&probe(0)).unwrap();
        w.append(&JournalRecord::Cancelled).unwrap();
        drop(w);

        let back = read_journal(&path).unwrap();
        assert_eq!(back.records.len(), 3);
        assert!(back.header().is_some());
        assert_eq!(back.events().len(), 1);
        assert!(matches!(back.terminal(), Some(JournalRecord::Cancelled)));
        assert_eq!(back.valid_len, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_reopen() {
        let d = dir("torn");
        let path = journal_file(&d, 9);
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&header()).unwrap();
        w.append(&probe(0)).unwrap();
        drop(w);
        let full = std::fs::metadata(&path).unwrap().len();

        // Simulate a crash mid-append: write half of a record, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"Event\":{\"seq\":1,\"ev").unwrap();
        }
        let back = read_journal(&path).unwrap();
        assert_eq!(back.records.len(), 2, "torn tail must not parse");
        assert_eq!(back.valid_len, full);

        // Reopening truncates the tail; the next append lands cleanly.
        let mut w = JournalWriter::open_append(&path, back.valid_len).unwrap();
        w.append(&probe(1)).unwrap();
        drop(w);
        let back = read_journal(&path).unwrap();
        assert_eq!(back.records.len(), 3);
        assert_eq!(back.valid_len, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_complete_line_midfile_is_corruption() {
        let d = dir("corrupt");
        let path = journal_file(&d, 1);
        std::fs::write(&path, "not json\n\"Cancelled\"\n").unwrap();
        assert!(read_journal(&path).is_err());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn newline_terminated_corrupt_final_line_is_corruption_not_torn() {
        // A crash tears an append to a prefix WITHOUT the newline; a
        // complete-but-unparsable last line was written whole and must be
        // surfaced, not silently truncated away.
        let d = dir("corrupt-tail");
        let path = journal_file(&d, 2);
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&header()).unwrap();
        drop(w);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"Event\":{\"seq\":0,\"ev\n").unwrap();
        }
        let err = read_journal(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn cached_events_round_trip_with_provenance() {
        let d = dir("cached");
        let path = journal_file(&d, 4);
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&header()).unwrap();
        w.append(&probe(0)).unwrap();
        let JournalRecord::Event { event, .. } = probe(1) else { unreachable!() };
        w.append(&JournalRecord::CachedEvent { seq: 1, event }).unwrap();
        w.append(&probe(2)).unwrap();
        drop(w);

        let back = read_journal(&path).unwrap();
        assert_eq!(back.events().len(), 3, "cached events are part of the spine");
        let flags: Vec<bool> = back.event_entries().iter().map(|(_, c)| *c).collect();
        assert_eq!(flags, vec![false, true, false]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn file_names_round_trip_session_ids() {
        let d = PathBuf::from("/tmp/j");
        let p = journal_file(&d, 42);
        assert_eq!(p.file_name().unwrap().to_str().unwrap(), "session-00000042.journal");
        assert_eq!(session_of(&p), Some(42));
        assert_eq!(session_of(Path::new("/tmp/j/other.txt")), None);
    }

    #[test]
    fn group_commit_appends_from_many_sessions_and_checkpoints() {
        let d = dir("group");
        // A 1-byte checkpoint threshold forces a checkpoint after every
        // group, exercising the truncate path continuously.
        let committer = GroupCommitter::start(&d, 1, None).unwrap();
        let handles: Vec<std::thread::JoinHandle<()>> = (1u64..=4)
            .map(|id| {
                let mut j =
                    SessionJournal::create(&journal_file(&d, id), id, Some(committer.handle()))
                        .unwrap();
                std::thread::spawn(move || {
                    j.append(&header()).unwrap();
                    for seq in 0..5 {
                        j.append(&probe(seq)).unwrap();
                    }
                    j.append(&JournalRecord::Cancelled).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = committer.stats();
        assert_eq!(stats.records, 4 * 7, "every append must be committed exactly once");
        assert!(stats.groups >= 1 && stats.groups <= stats.records);
        assert!(stats.checkpoints >= 1, "1-byte threshold must checkpoint");
        committer.shutdown();
        for id in 1u64..=4 {
            let back = read_journal(&journal_file(&d, id)).unwrap();
            assert_eq!(back.records.len(), 7, "session {id}");
            assert!(matches!(back.terminal(), Some(JournalRecord::Cancelled)));
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_before_fsync_leaves_nothing_of_the_group() {
        let d = dir("crash-before");
        let committer =
            GroupCommitter::start(&d, u64::MAX, Some((0, CommitCrashPoint::BeforeFsync))).unwrap();
        let mut j =
            SessionJournal::create(&journal_file(&d, 1), 1, Some(committer.handle())).unwrap();
        assert_eq!(j.append(&header()), Err(AppendError::Crashed));
        // A pipelined append only buffers locally (no dead thread to
        // block on); the next blocking append fails fast.
        assert_eq!(j.append(&probe(0)), Ok(()));
        assert_eq!(j.append(&JournalRecord::Cancelled), Err(AppendError::Crashed));
        committer.shutdown();
        assert_eq!(std::fs::metadata(commit_log_file(&d)).unwrap().len(), 0);
        assert_eq!(std::fs::metadata(journal_file(&d, 1)).unwrap().len(), 0);
        reconcile_commit_log(&d).unwrap();
        let back = read_journal(&journal_file(&d, 1)).unwrap();
        assert!(back.records.is_empty(), "nothing was durable, nothing to repair");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_after_fsync_is_repaired_by_reconcile() {
        let d = dir("crash-after");
        let committer =
            GroupCommitter::start(&d, u64::MAX, Some((0, CommitCrashPoint::AfterFsync))).unwrap();
        let mut j =
            SessionJournal::create(&journal_file(&d, 1), 1, Some(committer.handle())).unwrap();
        assert_eq!(j.append(&header()), Err(AppendError::Crashed));
        committer.shutdown();
        // Durable in the log, missing from the file…
        assert!(std::fs::metadata(commit_log_file(&d)).unwrap().len() > 0);
        assert_eq!(std::fs::metadata(journal_file(&d, 1)).unwrap().len(), 0);
        // …until recovery replays the log into the file and truncates it.
        reconcile_commit_log(&d).unwrap();
        let back = read_journal(&journal_file(&d, 1)).unwrap();
        assert_eq!(back.records.len(), 1);
        assert!(back.header().is_some());
        assert_eq!(std::fs::metadata(commit_log_file(&d)).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn reconcile_honours_drop_tombstones_and_detects_gaps() {
        let d = dir("reconcile");
        // Hand-build a log: session 1 header + drop (late-rejected
        // submit whose file deletion already happened), session 2 header.
        let mut log = File::create(commit_log_file(&d)).unwrap();
        for entry in [
            CommitLogEntry::Append { session: 1, index: 0, record: header() },
            CommitLogEntry::Drop { session: 1 },
            CommitLogEntry::Append { session: 2, index: 0, record: header() },
        ] {
            let mut line = serde_json::to_string(&entry).unwrap();
            line.push('\n');
            log.write_all(line.as_bytes()).unwrap();
        }
        drop(log);
        std::fs::write(journal_file(&d, 1), "").unwrap();
        reconcile_commit_log(&d).unwrap();
        assert!(!journal_file(&d, 1).exists(), "tombstoned journal must not be resurrected");
        assert_eq!(read_journal(&journal_file(&d, 2)).unwrap().records.len(), 1);

        // A gap — record 5 of a session whose file has 0 records — is
        // data loss and must fail loudly, not silently skip.
        let mut log = File::create(commit_log_file(&d)).unwrap();
        let entry = CommitLogEntry::Append { session: 3, index: 5, record: probe(5) };
        let mut line = serde_json::to_string(&entry).unwrap();
        line.push('\n');
        log.write_all(line.as_bytes()).unwrap();
        drop(log);
        let err = reconcile_commit_log(&d).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn direct_mode_session_journal_matches_journal_writer() {
        let d = dir("direct");
        let path = journal_file(&d, 8);
        let mut j = SessionJournal::create(&path, 8, None).unwrap();
        j.append(&header()).unwrap();
        j.append(&probe(0)).unwrap();
        drop(j);
        let back = read_journal(&path).unwrap();
        assert_eq!(back.records.len(), 2);
        // Reopen-with-truncate continues the numbering.
        let mut j = SessionJournal::open_append(&path, back.valid_len, 2, 8, None).unwrap();
        j.append(&probe(1)).unwrap();
        drop(j);
        assert_eq!(read_journal(&path).unwrap().records.len(), 3);
        let _ = std::fs::remove_dir_all(&d);
    }
}
