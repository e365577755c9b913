//! Concurrent search sessions on a bounded worker pool.
//!
//! A [`SessionManager`] owns a fixed-size pool of worker threads, a
//! bounded priority queue of submitted sessions (higher priority first,
//! FIFO within a priority), the shared [`ProbeCache`] and, when a journal
//! directory is configured, one write-ahead journal per session.
//!
//! # Lifecycle
//!
//! ```text
//!            submit                    worker picks up
//!  client ───────────▶ Queued ──────────────────────────▶ Running
//!                        │ cancel                            │
//!                        ▼                                   ├──▶ Done(result)
//!                     Cancelled ◀── cancel (cooperative) ────┤
//!                                                            ├──▶ Failed(error)
//!                                         simulated kill ────┴──▶ Crashed
//! ```
//!
//! `Done`, `Failed` and `Cancelled` are journaled terminal records;
//! `Crashed` is *not* (that is the point — the journal holds only the
//! durable prefix), so a restarted manager finds the unterminated journal
//! and resumes the session.
//!
//! # Crash-resume = deterministic replay
//!
//! Every search outcome is a pure function of `(job, scenario, searcher,
//! seed, types, max_nodes)` — nothing downstream of the seed reads a
//! clock or an entropy source (mlcd-lint's nondet-source rule enforces
//! this). Resuming therefore re-runs the search from scratch while a
//! verifying sink compares each re-emitted journaled event against the
//! journal prefix *string-for-string* (the serde shim's float rendering
//! round-trips finite f64s bit-exactly, so string equality is bit
//! equality). Any divergence fails the session loudly instead of
//! appending a corrupt suffix.
//!
//! The shared probe cache needs one extra move: a cache hit is free and
//! leaves the session profiler's RNG/clock/billing state untouched, so a
//! resume that re-probed it would both pay for it and shift the platform
//! RNG stream — unreproducible, since the cache died with the process.
//! The journal therefore records each probe's provenance (`Event` vs
//! `CachedEvent`), and the replay environment serves journaled hits
//! straight from the prefix while re-running journaled misses against
//! the profiler, reproducing the exact pre-crash environment state. Past
//! the prefix a resumed session probes cache-free: the live cache's
//! contents after a restart are unrelated to what the dead process held,
//! and the journal — not the cache — is the authority on this session.
//!
//! # Scaling shape
//!
//! The manager is built to hold thousands of sessions per node:
//!
//! * **Sharded state.** The session map and the work queue are split
//!   into [`ServiceConfig::shards`] shards keyed by session id, and the
//!   probe cache is sharded by key hash — lookups, event pushes and
//!   watch polls on different sessions never contend on one mutex. A
//!   single small `control` mutex carries only the shutdown/pause flags
//!   and the worker wakeup condvar; global FIFO-within-priority order is
//!   preserved because a worker's pop scans every queue shard for the
//!   globally best `(priority, seq)` entry.
//! * **Group-commit journaling.** With a journal directory configured
//!   (and [`ServiceConfig::group_commit`] on), appends from all sessions
//!   funnel through one [`GroupCommitter`] thread: one write + one fsync
//!   per batch instead of one fsync per record. The durable contract is
//!   unchanged — `append` returns only once the record is durable.
//! * **Bounded retention.** Terminal sessions are evicted from memory
//!   past [`ServiceConfig::retain_terminal`], oldest-completed first;
//!   the journal stays the durable record, and `Status`/`Result`/
//!   `Watch` for an evicted id are answered by reading it back
//!   ([`SessionManager::session`] falls back to the journal). Without a
//!   journal an evicted result is gone. The cap bounds sessions, not
//!   bytes, so a finished session keeps only what the journal holds:
//!   when it ends, its trace is cut to the journaled spine (`InitProbe`/
//!   `Probe`/`IncumbentChanged`/`Stopped`) plus each probe's cache
//!   provenance. A `Watch` on a finished session, retained or evicted,
//!   re-runs its search the way crash-resume does — a `ReplayEnv` over
//!   the spine, checked by the verifying sink — and streams the
//!   reproduced trace, `CandidateScored`/`CandidatePruned` lines included
//!   ([`SessionManager::watch`]). Fleet-mode sessions keep their whole
//!   trace inline: their probes ran on the shared pool, which a private
//!   profiler cannot re-derive.

use crate::cache::{CachedEnv, GridCache, GridKey, ProbeCache, ProvenanceLog};
use crate::journal::{
    is_journaled, journal_file, list_journals, read_journal, reconcile_commit_log, AppendError,
    CommitCrashPoint, CommitStats, GroupCommitter, JournalContents, JournalRecord, SessionJournal,
    JOURNAL_FORMAT,
};
use crate::proto::{ServiceStats, SessionResult, StatusLine, SubmitSpec};
use crate::sync::{lock_or_die, wait_or_die};
use mlcd::prelude::{
    Deployment, ExperimentRunner, Money, Observation, ProfileError, ProfilingEnv, Scenario,
    SearchSpace, Searcher, SimDuration, TraceEvent, TraceSink, TrainingJob,
};
use mlcd::search::searcher_by_name;
use mlcd_fleet::SerialEnv;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread::JoinHandle;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads — the concurrency of the session pool.
    pub workers: usize,
    /// Bound on the number of *queued* (not yet running) sessions; a
    /// submit past it is rejected with `queue_full` (the backpressure
    /// signal — there are no unbounded channels anywhere in the service).
    pub queue_cap: usize,
    /// Where to keep per-session write-ahead journals. `None` disables
    /// journaling (and with it crash-resume).
    pub journal_dir: Option<PathBuf>,
    /// Consult the shared probe cache for fresh (non-resumed) sessions.
    pub probe_cache: bool,
    /// Share one candidate-grid enumeration across sessions of the same
    /// `(job, instance types, max_nodes)` via the grid cache. Off, every
    /// session re-enumerates its own grid (bit-identical results either
    /// way — the grid is a pure function of the key).
    pub grid_cache: bool,
    /// Test hook: simulate a `kill -9` after this many journaled records
    /// (replayed ones included) by panicking the worker *without* writing
    /// a terminal record.
    pub crash_after_records: Option<u64>,
    /// Start with the worker pool paused: sessions queue (and journal)
    /// but nothing runs until [`SessionManager::resume_workers`]. Lets an
    /// operator inspect a resumed queue before it drains, and makes queue
    /// -ordering tests deterministic. Also enables the
    /// [`SessionManager::started_order`] audit log (unbounded, so it is
    /// never kept on the production path).
    pub start_paused: bool,
    /// Batch journal appends through the shared group committer (one
    /// write + one fsync per group across all sessions) instead of one
    /// fsync per record. Only meaningful with a journal directory.
    pub group_commit: bool,
    /// Shard count for the session map and the work queue (the probe
    /// cache uses the same count). More shards, less lock contention.
    pub shards: usize,
    /// How many *terminal* sessions to keep in memory. Past the cap the
    /// oldest-completed are evicted; with a journal their status/result
    /// are served back from disk, without one they are gone.
    pub retain_terminal: usize,
    /// Byte threshold past which the group committer fsyncs dirty
    /// session files and truncates the shared commit log.
    pub commit_checkpoint_bytes: u64,
    /// Test hook: simulate a kill of the whole process while the commit
    /// thread is mid-group — at the given crash point of the given
    /// (0-based) group.
    pub crash_commit_at: Option<(u64, CommitCrashPoint)>,
    /// Fleet mode: run every session as a tenant of one
    /// [`mlcd_fleet::OpenFleet`] driver over a shared finite-capacity
    /// pool, with the named [`mlcd_fleet::FleetScheduler`] policy
    /// arbitrating launch admission (see [`crate::fleet`]). Sessions
    /// arrive at the driver's clock when a worker picks them up, so
    /// outcomes are deterministic only with one worker. Incompatible with
    /// `journal_dir`: crash-resume's verified replay would need each
    /// arrival's instant and its place in the driver's order journaled.
    pub fleet: Option<crate::fleet::FleetConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_cap: 16,
            journal_dir: None,
            probe_cache: true,
            grid_cache: true,
            crash_after_records: None,
            start_paused: false,
            group_commit: true,
            shards: 8,
            retain_terminal: 1024,
            commit_checkpoint_bytes: 4 << 20,
            crash_commit_at: None,
            fleet: None,
        }
    }
}

/// Lifecycle state of one session.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Waiting in the priority queue.
    Queued,
    /// A worker is searching.
    Running,
    /// Finished; result available.
    Done(Box<SessionResult>),
    /// Errored (bad spec discovered late, journal I/O failure, replay
    /// divergence, or a searcher panic).
    Failed(String),
    /// Cancelled cooperatively.
    Cancelled,
    /// The simulated-kill test hook fired; the journal is unterminated
    /// and the session will resume on the next manager start.
    Crashed,
}

impl Phase {
    /// Short lowercase name, as reported on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done(_) => "done",
            Phase::Failed(_) => "failed",
            Phase::Cancelled => "cancelled",
            Phase::Crashed => "crashed",
        }
    }

    /// Whether the session can never change state again (within this
    /// manager — a `Crashed` session resumes in the *next* one).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Phase::Queued | Phase::Running)
    }
}

struct SessionState {
    phase: Phase,
    /// Every event the search has emitted, until the trace is cut to its
    /// spine (`spine` is then `Some`): its journaled events only.
    events: Vec<TraceEvent>,
    /// Cache provenance of each journaled event in `events`, in order.
    cached: Vec<bool>,
    /// Set once `events` holds only the spine: where a replay stops.
    spine: Option<ReplayStop>,
    /// Watchers blocked in `wait_past`: `push_event` notifies only when
    /// one is waiting.
    event_waiters: usize,
    /// Test hook ([`Session::hold_after_first_event`]): while set, the
    /// worker waits in `push_event` after appending an event.
    hold: bool,
}

/// Where a replay of a finished session's search stops.
#[derive(Debug, Clone, Copy)]
enum ReplayStop {
    /// After as many events as the session emitted when it ran.
    Emitted(usize),
    /// After the last journaled event: a session reloaded from its
    /// journal. A completed search's last event is its journaled
    /// `Stopped`; a cancelled or failed one may have emitted unjournaled
    /// lines past its last journaled event, which the journal does not
    /// count.
    SpineEnd,
}

/// Upper bound on events per watch batch, so a watcher far behind on a
/// long search never holds the state mutex for a tail-sized copy (the
/// worker's `push_event` would stall), and a replay streams in bounded
/// frames.
const WATCH_BATCH: usize = 256;

/// One submitted search session.
pub struct Session {
    /// Session id (unique per journal directory, monotonically assigned).
    pub id: u64,
    /// The spec it was submitted with.
    pub spec: SubmitSpec,
    /// The resolved scenario.
    pub scenario: Scenario,
    state: Mutex<SessionState>,
    state_cv: Condvar,
    cancel: AtomicBool,
    /// Set at manager shutdown, after the workers are joined: the phase
    /// can never change again, so blocked watchers/waiters must wake and
    /// take the current phase as final.
    detached: AtomicBool,
    /// Keep the whole trace when the session ends instead of cutting it
    /// to the spine. Fleet mode: probes that ran on the shared pool
    /// cannot be re-derived by a replay on a private profiler.
    keep_trace: bool,
}

impl Session {
    fn new(id: u64, spec: SubmitSpec, scenario: Scenario, keep_trace: bool) -> Session {
        Session {
            id,
            spec,
            scenario,
            state: Mutex::new(SessionState {
                phase: Phase::Queued,
                events: Vec::new(),
                cached: Vec::new(),
                spine: None,
                event_waiters: 0,
                hold: false,
            }),
            state_cv: Condvar::new(),
            cancel: AtomicBool::new(false),
            detached: AtomicBool::new(false),
            keep_trace,
        }
    }

    /// A finished session rebuilt from its journal: the terminal phase
    /// and the journaled spine, each event with its cache provenance.
    fn from_journal(
        id: u64,
        spec: SubmitSpec,
        scenario: Scenario,
        phase: Phase,
        spine: Vec<(TraceEvent, bool)>,
    ) -> Session {
        let (events, cached) = spine.into_iter().unzip();
        let session = Session::new(id, spec, scenario, false);
        *lock_or_die(&session.state, "session state") = SessionState {
            phase,
            events,
            cached,
            spine: Some(ReplayStop::SpineEnd),
            event_waiters: 0,
            hold: false,
        };
        session
    }

    /// Current lifecycle phase (cloned snapshot).
    pub fn phase(&self) -> Phase {
        lock_or_die(&self.state, "session state").phase.clone()
    }

    /// Block until the session reaches a terminal phase, and return it.
    /// After manager shutdown the phase is frozen, so a detached session
    /// returns its current phase instead of blocking forever.
    pub fn wait_terminal(&self) -> Phase {
        let mut st = lock_or_die(&self.state, "session state");
        while !st.phase.is_terminal() {
            if self.detached.load(Ordering::SeqCst) {
                break;
            }
            st = wait_or_die(&self.state_cv, st, "session state");
        }
        st.phase.clone()
    }

    /// Mark the session's phase as frozen (manager shut down, workers
    /// joined) and wake every blocked watcher/waiter.
    fn detach(&self) {
        self.detached.store(true, Ordering::SeqCst);
        self.state_cv.notify_all();
    }

    /// Ask the session to stop. Queued sessions cancel before starting;
    /// running ones cancel at their next trace event (probes are atomic —
    /// cancellation never leaves a half-journaled record).
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
        self.state_cv.notify_all();
    }

    fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Status row for this session.
    pub fn status_line(&self) -> StatusLine {
        StatusLine {
            id: self.id,
            job: self.spec.job.clone(),
            searcher: self.spec.searcher.clone(),
            seed: self.spec.seed,
            priority: self.spec.priority,
            state: lock_or_die(&self.state, "session state").phase.name().to_string(),
        }
    }

    /// Block until the held trace has an event past `from`, or the
    /// session has ended (or was detached at shutdown).
    fn wait_past(&self, from: usize) -> std::sync::MutexGuard<'_, SessionState> {
        let mut st = lock_or_die(&self.state, "session state");
        while st.events.len() <= from
            && !st.phase.is_terminal()
            && !self.detached.load(Ordering::SeqCst)
        {
            st.event_waiters += 1;
            st = wait_or_die(&self.state_cv, st, "session state");
            st.event_waiters -= 1;
        }
        st
    }

    /// Blocking tail of the events this session holds: up to
    /// `WATCH_BATCH` events past `from`, or — once all are delivered and
    /// the session has ended (or was detached at shutdown) — the
    /// terminal/current state name. A finished non-fleet session holds
    /// only its journaled spine; [`SessionManager::watch`] streams the
    /// whole trace.
    pub fn next_events(&self, from: usize) -> (Vec<TraceEvent>, Option<String>) {
        let st = self.wait_past(from);
        if st.events.len() > from {
            let end = st.events.len().min(from + WATCH_BATCH);
            return (st.events[from..end].to_vec(), None);
        }
        (Vec::new(), Some(st.phase.name().to_string()))
    }

    /// Append an event, with its cache provenance when it is journaled.
    /// Wakes blocked watchers only when there are any: a search emits
    /// events far faster than anyone waits on them.
    fn push_event(&self, event: TraceEvent, cached: Option<bool>) {
        let mut st = lock_or_die(&self.state, "session state");
        st.events.push(event);
        st.cached.extend(cached);
        if st.hold {
            self.state_cv.notify_all();
            while st.hold && !self.cancel_requested() {
                st = wait_or_die(&self.state_cv, st, "session state");
            }
            return;
        }
        let waiters = st.event_waiters;
        drop(st);
        if waiters > 0 {
            self.state_cv.notify_all();
        }
    }

    /// Test hook: the worker stops after the next event it emits until
    /// [`release_hold`](Self::release_hold) (or a cancel), so a watcher can
    /// read a running session's first event before the search goes on.
    /// Arm it on a queued session, and release it from the watcher: a
    /// held worker also holds up the manager's shutdown.
    pub fn hold_after_first_event(&self) {
        lock_or_die(&self.state, "session state").hold = true;
    }

    /// Let a worker held by [`hold_after_first_event`](Self::hold_after_first_event)
    /// go on.
    pub fn release_hold(&self) {
        lock_or_die(&self.state, "session state").hold = false;
        self.state_cv.notify_all();
    }

    /// Publish a new phase. A terminal phase freezes the trace: unless
    /// the session keeps its trace, it is cut to the journaled spine
    /// first, in the same critical section, so a watcher sees either the
    /// whole live trace or the spine and its replay stop.
    fn set_phase(&self, phase: Phase) {
        let mut st = lock_or_die(&self.state, "session state");
        if phase.is_terminal() {
            if !self.keep_trace {
                let emitted = st.events.len();
                st.events.retain(is_journaled);
                st.spine = Some(ReplayStop::Emitted(emitted));
            }
            st.events.shrink_to_fit(); // no event can follow
            st.cached.shrink_to_fit();
        }
        st.phase = phase;
        drop(st);
        self.state_cv.notify_all();
    }
}

// ---- panic sentinels -------------------------------------------------

/// Cooperative-cancel payload thrown out of the sink.
struct CancelSignal;
/// Simulated-kill payload thrown by the `crash_after_records` hook.
struct CrashSignal;
/// Resume-verification mismatch.
struct ReplayDivergence(String);
/// Journal append failure mid-search.
struct JournalIo(String);
/// A watch replay reached its [`ReplayStop`].
struct ReplayEnd;
/// A watch replay's watcher went away (its frame write failed).
struct WatcherGone(io::Error);

/// Install (once, process-wide) a panic hook that stays silent for the
/// service's control-flow sentinels and delegates everything else to the
/// previous hook. Worker panics are caught and turned into session
/// states; without this every cancel would spew a backtrace.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<CancelSignal>()
                || p.is::<CrashSignal>()
                || p.is::<ReplayDivergence>()
                || p.is::<JournalIo>()
                || p.is::<ReplayEnd>()
                || p.is::<WatcherGone>()
            {
                return;
            }
            previous(info);
        }));
    });
}

// ---- the verifying / journaling sink ---------------------------------

/// Is this journaled event a probe record (carries an observation the
/// environment produced, and therefore a [`ProvenanceLog`] flag)?
fn is_probe_event(event: &TraceEvent) -> bool {
    matches!(event, TraceEvent::InitProbe { .. } | TraceEvent::Probe { .. })
}

struct SessionSink<'a> {
    /// Takes each event once it is verified or journaled, with its cache
    /// provenance when it is journaled: the live session's trace, or a
    /// watcher's replay.
    out: &'a mut dyn FnMut(TraceEvent, Option<bool>),
    /// The live session's cancel flag, checked at every event. A replay
    /// of a finished session has none.
    cancel: Option<&'a AtomicBool>,
    writer: Option<&'a mut SessionJournal>,
    /// Journaled prefix to verify against when resuming: each event with
    /// its provenance (`true` = served by the cache in the original run).
    replay: &'a [(TraceEvent, bool)],
    replay_pos: usize,
    /// Journaled events seen so far (replayed + appended).
    journaled: u64,
    /// Probe provenance, pushed by the environment in probe order.
    provenance: &'a ProvenanceLog,
    crash_after: Option<u64>,
}

impl TraceSink for SessionSink<'_> {
    fn record(&mut self, event: TraceEvent) {
        if self.cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
            panic_any(CancelSignal);
        }
        let mut provenance = None;
        if is_journaled(&event) {
            // Every journaled probe event consumes its provenance flag —
            // on the verify path too, so the queue stays aligned with the
            // probe stream across the prefix/append boundary.
            let cached = is_probe_event(&event) && self.provenance.pop();
            provenance = Some(cached);
            if self.replay_pos < self.replay.len() {
                // Verify the re-emitted event against the journal prefix.
                // String equality is bit equality here: the serde shim's
                // float rendering round-trips every finite f64 exactly.
                let (ref journaled_event, journaled_cached) = self.replay[self.replay_pos];
                let expected = serde_json::to_string(journaled_event)
                    .unwrap_or_else(|e| format!("<unserializable: {e}>"));
                let got = serde_json::to_string(&event)
                    .unwrap_or_else(|e| format!("<unserializable: {e}>"));
                if expected != got {
                    panic_any(ReplayDivergence(format!(
                        "resume divergence at journaled event {}: journal has {expected}, \
                         replay produced {got}",
                        self.replay_pos
                    )));
                }
                if journaled_cached != cached {
                    panic_any(ReplayDivergence(format!(
                        "resume divergence at journaled event {}: journal says cached={}, \
                         replay served cached={}",
                        self.replay_pos, journaled_cached, cached
                    )));
                }
                self.replay_pos += 1;
            } else if let Some(w) = self.writer.as_deref_mut() {
                let seq = self.journaled;
                let record = if cached {
                    JournalRecord::CachedEvent { seq, event: event.clone() }
                } else {
                    JournalRecord::Event { seq, event: event.clone() }
                };
                match w.append(&record) {
                    Ok(()) => {}
                    // The committer's simulated kill takes the whole
                    // "process" down: this session crashes too, with no
                    // terminal record, exactly like the crash_after hook.
                    Err(AppendError::Crashed) => panic_any(CrashSignal),
                    Err(AppendError::Io(e)) => panic_any(JournalIo(e)),
                }
            }
            self.journaled += 1;
        }
        (self.out)(event, provenance);
        if let Some(n) = self.crash_after {
            if self.journaled >= n {
                panic_any(CrashSignal);
            }
        }
    }
}

// ---- the replaying environment ---------------------------------------

/// The [`ProfilingEnv`] a *resumed* session searches against.
///
/// For the journaled prefix it reproduces exactly what the crashed run's
/// [`CachedEnv`] did: probes journaled as `CachedEvent` are served from
/// the journal (free, and without touching the inner profiler — the
/// original hit never advanced its RNG/clock/billing either), while
/// probes journaled as `Event` are re-run against the profiler, which
/// deterministically re-derives them. Once the prefix is exhausted the
/// session continues cache-free: the live cache's contents are unrelated
/// to what the dead process held, so the deterministic completion never
/// consults it.
struct ReplayEnv<'a> {
    inner: &'a mut dyn ProfilingEnv,
    /// `(observation, cached)` of each journaled probe event, in order.
    prefix: Vec<(Observation, bool)>,
    cursor: usize,
    provenance: &'a ProvenanceLog,
}

impl<'a> ReplayEnv<'a> {
    /// Build from the journaled prefix a resumed session must reproduce.
    fn new(
        inner: &'a mut dyn ProfilingEnv,
        replay: &[(TraceEvent, bool)],
        provenance: &'a ProvenanceLog,
    ) -> Self {
        let prefix = replay
            .iter()
            .filter_map(|(event, cached)| match event {
                TraceEvent::InitProbe { observation, .. }
                | TraceEvent::Probe { observation, .. } => Some((*observation, *cached)),
                _ => None,
            })
            .collect();
        ReplayEnv { inner, prefix, cursor: 0, provenance }
    }

    /// The journaled probe at the cursor, when it is a cache hit replay
    /// must serve for `d`. Panics with [`ReplayDivergence`] if the hit
    /// was recorded for a different deployment — the search has already
    /// forked from the journal and re-probing would fork it silently.
    fn serve_journaled_hit(&mut self, d: &Deployment) -> Option<Observation> {
        let (obs, cached) = *self.prefix.get(self.cursor)?;
        if !cached {
            return None;
        }
        if obs.deployment != *d {
            panic_any(ReplayDivergence(format!(
                "resume divergence at journaled probe {}: journal cached an observation of \
                 {}, replay probed {d}",
                self.cursor, obs.deployment
            )));
        }
        self.cursor += 1;
        self.provenance.push(true);
        Some(obs)
    }

    /// Account a paid probe the inner environment just served.
    fn note_paid(&mut self, ok: bool) {
        if ok {
            if self.cursor < self.prefix.len() {
                self.cursor += 1;
            }
            self.provenance.push(false);
        }
    }
}

impl ProfilingEnv for ReplayEnv<'_> {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }

    fn total_samples(&self) -> f64 {
        self.inner.total_samples()
    }

    fn quote(&self, d: &Deployment) -> (SimDuration, Money) {
        self.inner.quote(d)
    }

    fn profile(&mut self, d: &Deployment) -> Result<Observation, ProfileError> {
        if let Some(obs) = self.serve_journaled_hit(d) {
            return Ok(obs);
        }
        let result = self.inner.profile(d);
        self.note_paid(result.is_ok());
        result
    }

    fn profile_batch(&mut self, ds: &[Deployment]) -> Vec<Result<Observation, ProfileError>> {
        // Mirror `CachedEnv::profile_batch`: serve journaled hits from
        // the prefix and forward the rest as ONE batch so the profiler
        // keeps its concurrent-provisioning wall-clock semantics. Slots
        // are matched to prefix entries positionally (journal order is
        // batch order), assuming every batch member settles — the sink's
        // string-for-string verification catches any divergence.
        let mut out: Vec<Option<(Result<Observation, ProfileError>, bool)>> = vec![None; ds.len()];
        let mut miss_idx = Vec::new();
        let mut miss_ds = Vec::new();
        for (i, d) in ds.iter().enumerate() {
            let slot = self.cursor + miss_idx.len();
            let journaled_hit = match self.prefix.get(slot) {
                Some((obs, true)) if obs.deployment == *d => Some(*obs),
                _ => None,
            };
            match journaled_hit {
                Some(obs) => {
                    self.cursor += 1;
                    out[i] = Some((Ok(obs), true));
                }
                None => {
                    miss_idx.push(i);
                    miss_ds.push(*d);
                }
            }
        }
        let fresh = self.inner.profile_batch(&miss_ds);
        for (slot, result) in miss_idx.into_iter().zip(fresh) {
            if result.is_ok() && self.cursor < self.prefix.len() {
                self.cursor += 1;
            }
            out[slot] = Some((result, false));
        }
        // The sink pops provenance per journaled probe event, and the
        // kernel journals batch results in result (ds) order — so the
        // flags must be pushed in that order too, not hits-first.
        out.into_iter()
            .map(|slot| {
                let (result, cached) = slot.expect("every slot filled");
                if result.is_ok() {
                    self.provenance.push(cached);
                }
                result
            })
            .collect()
    }

    fn elapsed(&self) -> SimDuration {
        self.inner.elapsed()
    }

    fn spent(&self) -> Money {
        self.inner.spent()
    }
}

// ---- replaying a finished session's trace ----------------------------

/// The journaled spine of a session: each event with its provenance.
fn spine_of(contents: &JournalContents) -> Vec<(TraceEvent, bool)> {
    contents.event_entries().into_iter().map(|(event, cached)| (event.clone(), cached)).collect()
}

/// The phase a terminal journal record stands for.
fn journaled_phase(record: &JournalRecord) -> Option<Phase> {
    Some(match record {
        JournalRecord::Completed { result } => Phase::Done(Box::new(result.clone())),
        JournalRecord::Cancelled => Phase::Cancelled,
        JournalRecord::Failed { error } => Phase::Failed(error.clone()),
        _ => return None,
    })
}

/// The terminal journal record that stands for `phase` (the inverse of
/// [`journaled_phase`]).
fn terminal_record(phase: &Phase) -> JournalRecord {
    match phase {
        Phase::Done(result) => JournalRecord::Completed { result: (**result).clone() },
        Phase::Failed(error) => JournalRecord::Failed { error: error.clone() },
        Phase::Cancelled => JournalRecord::Cancelled,
        other => unreachable!("no terminal record for phase {}", other.name()),
    }
}

/// Everything a session's search runs with but its environment.
struct SearchSetup {
    runner: ExperimentRunner,
    job: TrainingJob,
    searcher: Box<dyn Searcher + Send + Sync>,
    space: SearchSpace,
}

fn search_setup(inner: &Inner, spec: &SubmitSpec) -> Result<SearchSetup, String> {
    let job = spec.training_job()?;
    let searcher = searcher_by_name(&spec.searcher, spec.seed)
        .ok_or_else(|| format!("unknown searcher `{}`", spec.searcher))?;
    let mut runner = ExperimentRunner::new(spec.seed).with_max_nodes(spec.max_nodes);
    if let Some(types) = spec.instance_types()? {
        runner = runner.with_types(types);
    }
    // One grid enumeration per (job, types, max_nodes) across every
    // concurrent session; the grid is a pure function of the key, so
    // the cached copy is bit-identical to a private enumeration.
    let space = if inner.cfg.grid_cache {
        let key = GridKey::new(&spec.job, spec.instance_types()?.as_deref(), spec.max_nodes);
        (*inner.grids.get_or_build(key, || runner.space(&job))).clone()
    } else {
        runner.space(&job)
    };
    Ok(SearchSetup { runner, job, searcher, space })
}

/// Re-run a finished session's search over its `spine` and hand `emit`
/// every event past the first `from`, in batches of at most
/// `WATCH_BATCH`, until `stop`. The environment and sink are
/// crash-resume's: journaled cache hits are served from the spine, paid
/// probes re-run on a fresh private profiler, and every journaled event
/// is checked against the spine string for string. Nothing is journaled
/// and the live probe cache is never consulted.
fn replay_trace(
    inner: &Inner,
    session: &Session,
    spine: &[(TraceEvent, bool)],
    stop: ReplayStop,
    from: usize,
    emit: &mut dyn FnMut(&[TraceEvent]) -> io::Result<()>,
) -> io::Result<()> {
    let setup = search_setup(inner, &session.spec).map_err(io::Error::other)?;
    let mut profiler = setup.runner.profiler_with_space(&setup.job, setup.space);
    let provenance = ProvenanceLog::new();
    let mut env = ReplayEnv::new(&mut profiler, spine, &provenance);
    let mut batch = Vec::with_capacity(WATCH_BATCH);
    let (mut seen, mut journaled) = (0usize, 0usize);
    let outcome = {
        let mut out = |event: TraceEvent, cached: Option<bool>| {
            if seen >= from {
                batch.push(event);
            }
            seen += 1;
            journaled += usize::from(cached.is_some());
            let done = match stop {
                ReplayStop::Emitted(n) => seen >= n,
                ReplayStop::SpineEnd => journaled >= spine.len(),
            };
            if batch.len() == WATCH_BATCH || (done && !batch.is_empty()) {
                if let Err(e) = emit(&batch) {
                    panic_any(WatcherGone(e));
                }
                batch.clear();
            }
            if done {
                panic_any(ReplayEnd);
            }
        };
        let mut sink = SessionSink {
            out: &mut out,
            cancel: None,
            writer: None,
            replay: spine,
            replay_pos: 0,
            journaled: 0,
            provenance: &provenance,
            crash_after: None,
        };
        catch_unwind(AssertUnwindSafe(|| {
            setup.searcher.search_traced(&mut env, &session.scenario, &mut sink);
        }))
    };
    match outcome {
        Err(payload) if payload.is::<ReplayEnd>() => return Ok(()),
        Err(payload) => match payload.downcast::<WatcherGone>() {
            Ok(gone) => return Err(gone.0),
            Err(payload) => {
                if let Some(d) = payload.downcast_ref::<ReplayDivergence>() {
                    return Err(io::Error::other(format!("session {}: {}", session.id, d.0)));
                }
                // A searcher panic: the session failed at this very
                // event when it ran, so the trace ends here too.
            }
        },
        Ok(()) => {}
    }
    if batch.is_empty() {
        Ok(())
    } else {
        emit(&batch)
    }
}

// ---- manager ---------------------------------------------------------

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// True when the bounded queue was full — retry later; false when the
    /// spec itself (or the server's state) is the problem.
    pub queue_full: bool,
    /// Human-readable reason.
    pub reason: String,
}

struct WorkItem {
    session: Arc<Session>,
    journal: Option<SessionJournal>,
    /// `true` for any journal-restored entry — even one whose journal
    /// holds a header only. Resume status must not be inferred from the
    /// replayed-event count: a header-only resume still has to run
    /// cache-free, or a hit in the new process could yield an outcome the
    /// original run could not have produced.
    resumed: bool,
    /// Journaled prefix to replay: each event with its cache provenance.
    resume_events: Vec<(TraceEvent, bool)>,
    priority: u8,
    seq: u64,
}

/// The one small global mutex: shutdown/pause flags, paired with
/// `work_cv` for worker wakeup. Everything heavyweight (sessions, queue
/// entries, cache, journal I/O) lives in shards or off-lock entirely.
struct Control {
    shutdown: bool,
    paused: bool,
}

/// Completion order of terminal sessions, for oldest-first eviction.
struct TerminalLog {
    order: VecDeque<u64>,
    evicted: u64,
}

// The manager's acquire-before discipline, machine-checked by lint rule
// R7 (this declaration merges with the built-in mlcd-service manifest):
// the small control mutex is outermost, then the retention log, then
// session/queue shards, then an individual session's state. Never hold
// two shards of the same family at once.
// lint: lock-order: control < terminal < session_shard|session_shards < queue_shard|queue_shards < state
struct Inner {
    cfg: ServiceConfig,
    cache: ProbeCache,
    /// Shared candidate-grid enumerations, keyed per scenario spec.
    grids: GridCache,
    /// Session map shards, keyed by `id % shards`.
    session_shards: Vec<Mutex<BTreeMap<u64, Arc<Session>>>>,
    /// Work queue shards, same keying. Priority order is global: pops
    /// scan every shard for the best `(priority, Reverse(seq))`.
    queue_shards: Vec<Mutex<Vec<WorkItem>>>,
    control: Mutex<Control>,
    work_cv: Condvar,
    /// Queued-entry count, for O(1) bounded admission without a global
    /// queue lock.
    queued: AtomicUsize,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    committer: Option<GroupCommitter>,
    terminal: Mutex<TerminalLog>,
    /// Worker pickup order; only tracked under `start_paused` (tests /
    /// operator inspection) — unbounded by nature, so never on by
    /// default.
    started: Option<Mutex<Vec<u64>>>,
    /// Fleet mode's driver over the shared pool (see [`crate::fleet`]);
    /// `None` runs every session on its own private cloud.
    fleet: Option<mlcd_fleet::OpenFleet>,
}

impl Inner {
    fn shard_of(&self, id: u64) -> usize {
        (id % self.session_shards.len() as u64) as usize
    }

    fn session_shard(&self, id: u64) -> &Mutex<BTreeMap<u64, Arc<Session>>> {
        &self.session_shards[self.shard_of(id)]
    }

    fn queue_shard(&self, id: u64) -> &Mutex<Vec<WorkItem>> {
        &self.queue_shards[self.shard_of(id)]
    }

    /// Move a now-terminal session into the retention log, evicting the
    /// oldest terminal sessions past the cap. `Crashed` sessions are
    /// not retired: they belong to the *next* manager.
    fn retire(&self, id: u64) {
        let mut t = lock_or_die(&self.terminal, "terminal log");
        t.order.push_back(id);
        while t.order.len() > self.cfg.retain_terminal {
            if let Some(victim) = t.order.pop_front() {
                lock_or_die(self.session_shard(victim), "session shard").remove(&victim);
                t.evicted += 1;
            }
        }
    }
}

/// The service core: session queue, worker pool, journals, probe cache.
pub struct SessionManager {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl SessionManager {
    /// Start a manager: scan the journal directory (if any) for sessions
    /// to restore or resume, then spawn the worker pool.
    ///
    /// # Errors
    /// Journal-directory I/O failure, or a corrupt (non-torn) journal.
    pub fn new(cfg: ServiceConfig) -> std::io::Result<SessionManager> {
        install_quiet_hook();
        assert!(cfg.workers >= 1, "SessionManager: need at least one worker");
        if cfg.fleet.is_some() && cfg.journal_dir.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "fleet mode is incompatible with journaling: session arrival instants on \
                 the shared pool are not journaled, so crash-resume's verified replay \
                 cannot hold",
            ));
        }
        let fleet = match &cfg.fleet {
            Some(fc) => Some(
                crate::fleet::start(fc)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?,
            ),
            None => None,
        };
        let nshards = cfg.shards.max(1);
        let mut sessions = BTreeMap::new();
        let mut terminal_order = VecDeque::new();
        let mut entries = Vec::new();
        let mut next_id = 1u64;
        let mut seq = 0u64;

        // The committer is started after the commit log is reconciled
        // into the session files — recovery below then sees exactly the
        // durable prefix in each file, group commit or not.
        let committer = match &cfg.journal_dir {
            Some(dir) if cfg.group_commit => {
                std::fs::create_dir_all(dir)?;
                reconcile_commit_log(dir)?;
                Some(GroupCommitter::start(dir, cfg.commit_checkpoint_bytes, cfg.crash_commit_at)?)
            }
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                reconcile_commit_log(dir)?;
                None
            }
            None => None,
        };

        if let Some(dir) = &cfg.journal_dir {
            for (id, path) in list_journals(dir)? {
                let contents = read_journal(&path)?;
                let Some(JournalRecord::Header { spec, scenario, .. }) = contents.header().cloned()
                else {
                    // Header never made it to disk: the submit itself was
                    // torn. Nothing to resume; drop the empty journal.
                    let _ = std::fs::remove_file(&path);
                    continue;
                };
                next_id = next_id.max(id + 1);
                let spine = spine_of(&contents);
                match contents.terminal().and_then(journaled_phase) {
                    Some(phase) => {
                        let s = Session::from_journal(id, spec, scenario, phase, spine);
                        sessions.insert(id, Arc::new(s));
                        terminal_order.push_back(id);
                    }
                    None => {
                        // In-flight at the crash: truncate the torn tail
                        // and requeue for deterministic replay.
                        let journal = SessionJournal::open_append(
                            &path,
                            contents.valid_len,
                            contents.records.len() as u64,
                            id,
                            committer.as_ref().map(GroupCommitter::handle),
                        )?;
                        let session = Arc::new(Session::new(id, spec.clone(), scenario, false));
                        sessions.insert(id, session.clone());
                        entries.push(WorkItem {
                            session,
                            journal: Some(journal),
                            resumed: true,
                            resume_events: spine,
                            priority: spec.priority,
                            seq,
                        });
                        seq += 1;
                    }
                }
            }
        }

        // Restored terminal sessions obey the retention cap too (oldest
        // id first — completion order is not recorded across restarts).
        let mut evicted = 0u64;
        while terminal_order.len() > cfg.retain_terminal {
            if let Some(victim) = terminal_order.pop_front() {
                sessions.remove(&victim);
                evicted += 1;
            }
        }

        let paused = cfg.start_paused;
        let started = paused.then(|| Mutex::new(Vec::new()));
        let queued = entries.len();
        let mut session_shards: Vec<BTreeMap<u64, Arc<Session>>> =
            (0..nshards).map(|_| BTreeMap::new()).collect();
        for (id, s) in sessions {
            session_shards[(id % nshards as u64) as usize].insert(id, s);
        }
        let mut queue_shards: Vec<Vec<WorkItem>> = (0..nshards).map(|_| Vec::new()).collect();
        for item in entries {
            let shard = (item.session.id % nshards as u64) as usize;
            queue_shards[shard].push(item);
        }
        let cache_shards = nshards;
        let inner = Arc::new(Inner {
            cfg,
            cache: ProbeCache::with_shards(cache_shards),
            grids: GridCache::with_shards(cache_shards),
            session_shards: session_shards.into_iter().map(Mutex::new).collect(),
            queue_shards: queue_shards.into_iter().map(Mutex::new).collect(),
            control: Mutex::new(Control { shutdown: false, paused }),
            work_cv: Condvar::new(),
            queued: AtomicUsize::new(queued),
            next_id: AtomicU64::new(next_id),
            next_seq: AtomicU64::new(seq),
            committer,
            terminal: Mutex::new(TerminalLog { order: terminal_order, evicted }),
            started,
            fleet,
        });
        let workers = (0..inner.cfg.workers)
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(SessionManager { inner, workers: Mutex::new(workers) })
    }

    /// Submit a session.
    ///
    /// # Errors
    /// [`Reject`] with `queue_full: true` when the bounded queue is at
    /// capacity, `false` for invalid specs, journal I/O failure or a
    /// shutting-down manager.
    pub fn submit(&self, spec: SubmitSpec) -> Result<u64, Reject> {
        if let Err(reason) = spec.validate() {
            return Err(Reject { queue_full: false, reason });
        }
        let scenario = spec.scenario().expect("spec validated");

        // Phase 1 — admission without any global lock: a single atomic
        // counter bounds the queue, and the shutdown flag is re-checked
        // under `control` in phase 3 before the session becomes visible.
        if lock_or_die(&self.inner.control, "service control").shutdown {
            return Err(Reject { queue_full: false, reason: "server is shutting down".into() });
        }
        let cap = self.inner.cfg.queue_cap;
        if let Err(old) = self
            .inner
            .queued
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < cap).then_some(n + 1))
        {
            return Err(Reject {
                queue_full: true,
                reason: format!("queue full: {old} sessions already queued (cap {cap})"),
            });
        }
        let release_slot = || {
            self.inner.queued.fetch_sub(1, Ordering::AcqRel);
        };
        let id = self.inner.next_id.fetch_add(1, Ordering::AcqRel);

        // Phase 2 — write-ahead, unlocked: the header must be durable
        // before the session is visible, so a crash between submit and
        // first probe still resumes. The journal header's fsync (or
        // group-commit wait) must NOT happen while any shard lock is
        // held: a hung journal device would stall the whole pool.
        let journal_path = self.inner.cfg.journal_dir.as_ref().map(|dir| journal_file(dir, id));
        let committer = self.inner.committer.as_ref().map(GroupCommitter::handle);
        let mut journal = match &journal_path {
            Some(path) => {
                let journal = (|| {
                    let mut j =
                        SessionJournal::create(path, id, committer).map_err(|e| e.to_string())?;
                    j.append(&JournalRecord::Header {
                        format: JOURNAL_FORMAT,
                        session: id,
                        spec: spec.clone(),
                        scenario,
                    })
                    .map_err(|e| e.to_string())?;
                    Ok::<_, String>(j)
                })();
                match journal {
                    Ok(j) => Some(j),
                    Err(e) => {
                        self.discard_journal(id, &journal_path);
                        release_slot();
                        return Err(Reject {
                            queue_full: false,
                            reason: format!("journal unavailable: {e}"),
                        });
                    }
                }
            }
            None => None,
        };

        // Phase 3 — make the session visible. Shutdown is re-checked
        // under `control` (it may have flipped while we were on disk); a
        // late rejection must not leave a header-only journal behind —
        // the next manager would restore it as a queued session the
        // client was told did not get in. The insert+push itself is
        // cheap, so holding `control` across it keeps the wakeup
        // race-free without a global queue lock.
        let keep_trace = self.inner.fleet.is_some();
        let session = Arc::new(Session::new(id, spec.clone(), scenario, keep_trace));
        let control = lock_or_die(&self.inner.control, "service control");
        if control.shutdown {
            drop(control);
            journal.take();
            self.discard_journal(id, &journal_path);
            release_slot();
            return Err(Reject { queue_full: false, reason: "server is shutting down".into() });
        }
        let seq = self.inner.next_seq.fetch_add(1, Ordering::AcqRel);
        lock_or_die(self.inner.session_shard(id), "session shard").insert(id, session.clone());
        lock_or_die(self.inner.queue_shard(id), "queue shard").push(WorkItem {
            session,
            journal,
            resumed: false,
            resume_events: Vec::new(),
            priority: spec.priority,
            seq,
        });
        drop(control);
        self.inner.work_cv.notify_one();
        Ok(id)
    }

    /// Remove a half-created journal after a late reject. In group mode
    /// the header may already sit in the durable commit log, so a `Drop`
    /// tombstone is appended first — reconcile then skips (and deletes)
    /// the id instead of resurrecting it.
    fn discard_journal(&self, id: u64, path: &Option<PathBuf>) {
        let Some(path) = path else { return };
        if let Some(committer) = &self.inner.committer {
            let _ = committer.handle().append_drop(id);
        }
        let _ = std::fs::remove_file(path);
    }

    /// Look a session up by id. Evicted terminal sessions are rebuilt
    /// from their journal, so `Status`/`Result` keep answering past the
    /// retention cap.
    pub fn session(&self, id: u64) -> Option<Arc<Session>> {
        let live = lock_or_die(self.inner.session_shard(id), "session shard").get(&id).cloned();
        if let Some(s) = live {
            return Some(s);
        }
        self.load_evicted(id)
    }

    /// Rebuild an evicted session from its journal. Only terminal
    /// journals qualify: an id absent from the live map with an
    /// in-flight journal is a recovery concern, not an eviction.
    fn load_evicted(&self, id: u64) -> Option<Arc<Session>> {
        let dir = self.inner.cfg.journal_dir.as_ref()?;
        let path = journal_file(dir, id);
        if !path.exists() {
            return None;
        }
        let contents = read_journal(&path).ok()?;
        let JournalRecord::Header { spec, scenario, .. } = contents.header().cloned()? else {
            return None;
        };
        let phase = journaled_phase(contents.terminal()?)?;
        Some(Arc::new(Session::from_journal(id, spec, scenario, phase, spine_of(&contents))))
    }

    /// Stream `session`'s whole trace from its first event to `emit`, at
    /// most `WATCH_BATCH` events per call, following a running session
    /// live, and return the state it ended in (or, after shutdown, the
    /// state it was frozen in).
    ///
    /// A finished non-fleet session holds only its spine, so the events
    /// past what this watcher has already seen are re-derived: the search
    /// re-runs on this thread, through a `ReplayEnv` over the spine and
    /// the verifying sink, exactly as a crash-resume would. That covers
    /// a watch on a retained or an evicted session, and a watcher that
    /// was still behind when its session ended. A watcher that had
    /// caught up pays nothing.
    ///
    /// # Errors
    /// The first error `emit` returns (the replay stops there), or a
    /// replay that diverged from the spine.
    pub fn watch(
        &self,
        session: &Session,
        emit: &mut dyn FnMut(&[TraceEvent]) -> io::Result<()>,
    ) -> io::Result<String> {
        let mut pos = 0usize;
        loop {
            let st = session.wait_past(pos);
            let state = st.phase.name().to_string();
            let Some(stop) = st.spine else {
                if st.events.len() == pos {
                    return Ok(state); // ended, or frozen at shutdown
                }
                let end = st.events.len().min(pos + WATCH_BATCH);
                let batch = st.events[pos..end].to_vec();
                drop(st);
                pos = end;
                emit(&batch)?;
                continue;
            };
            let caught_up = match stop {
                ReplayStop::Emitted(n) => pos >= n,
                ReplayStop::SpineEnd => st.events.is_empty(),
            };
            if !caught_up {
                let spine: Vec<(TraceEvent, bool)> =
                    st.events.iter().cloned().zip(st.cached.iter().copied()).collect();
                drop(st);
                replay_trace(&self.inner, session, &spine, stop, pos, emit)?;
            }
            return Ok(state);
        }
    }

    /// Status rows: one session, or every live session in id order.
    pub fn status(&self, id: Option<u64>) -> Option<Vec<StatusLine>> {
        match id {
            Some(id) => self.session(id).map(|s| vec![s.status_line()]),
            None => {
                let mut rows: Vec<StatusLine> = Vec::new();
                for shard in &self.inner.session_shards {
                    let shard = lock_or_die(shard, "session shard");
                    rows.extend(shard.values().map(|s| s.status_line()));
                }
                rows.sort_by_key(|r| r.id);
                Some(rows)
            }
        }
    }

    /// Request cancellation. Returns false for an unknown id.
    pub fn cancel(&self, id: u64) -> bool {
        let live = lock_or_die(self.inner.session_shard(id), "session shard").get(&id).cloned();
        let Some(s) = live else {
            return false;
        };
        s.request_cancel();
        self.inner.work_cv.notify_all();
        true
    }

    /// The shared probe cache's `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.inner.cache.stats()
    }

    /// The shared grid cache's `(hits, misses)`.
    pub fn grid_stats(&self) -> (u64, u64) {
        self.inner.grids.stats()
    }

    /// Service-wide counters for the `Stats` request.
    pub fn stats(&self) -> ServiceStats {
        let live = self
            .inner
            .session_shards
            .iter()
            .map(|s| lock_or_die(s, "session shard").len() as u64)
            .sum();
        let (cache_hits, cache_misses) = self.inner.cache.stats();
        let (grid_hits, grid_misses) = self.inner.grids.stats();
        let evicted = lock_or_die(&self.inner.terminal, "terminal log").evicted;
        let commit: CommitStats =
            self.inner.committer.as_ref().map(GroupCommitter::stats).unwrap_or_default();
        ServiceStats {
            live_sessions: live,
            queued: self.inner.queued.load(Ordering::Acquire) as u64,
            evicted,
            cache_hits,
            cache_misses,
            grid_hits,
            grid_misses,
            group_commit: self.inner.committer.is_some(),
            journal_groups: commit.groups,
            journal_records: commit.records,
            journal_checkpoints: commit.checkpoints,
            sim_events: mlcd_cloudsim::global_event_counters(),
            fleet: self.inner.fleet.as_ref().map(|fleet| {
                let c = fleet.counters();
                crate::proto::FleetStatsWire {
                    policy: fleet.policy_name().to_string(),
                    admitted: c.admitted,
                    deferred: c.deferred,
                    denied: c.denied,
                    preempted: c.preempted,
                    queue_depth: c.queue_depth,
                }
            }),
        }
    }

    /// Order in which sessions were picked up by workers. Recorded only
    /// for managers started paused (the test path); otherwise empty.
    pub fn started_order(&self) -> Vec<u64> {
        match &self.inner.started {
            Some(started) => lock_or_die(started, "started log").clone(),
            None => Vec::new(),
        }
    }

    /// Unpause a manager started with
    /// [`ServiceConfig::start_paused`]: the worker pool begins draining
    /// the queue. A no-op when not paused.
    pub fn resume_workers(&self) {
        lock_or_die(&self.inner.control, "service control").paused = false;
        self.inner.work_cv.notify_all();
    }

    /// Stop accepting and starting work. Running sessions finish; queued
    /// journaled sessions stay on disk and resume on the next start.
    pub fn shutdown(&self) {
        lock_or_die(&self.inner.control, "service control").shutdown = true;
        self.inner.work_cv.notify_all();
    }

    /// [`SessionManager::shutdown`], then join every worker, detach any
    /// remaining watchers (each blocked `wait_terminal`/`next_events`
    /// returns with the session's current, possibly non-terminal, state
    /// so the connection can send `WatchEnd`), and stop the group
    /// committer so everything buffered is durable.
    pub fn shutdown_and_wait(&self) {
        self.shutdown();
        let handles: Vec<_> = std::mem::take(&mut *lock_or_die(&self.workers, "worker pool"));
        for h in handles {
            let _ = h.join();
        }
        // Stop the committer before detaching watchers: terminal records
        // the workers handed off asynchronously are flushed and their
        // sessions' phases published here, so a watcher detached below
        // sees the final phase, not a session frozen mid-completion.
        if let Some(committer) = &self.inner.committer {
            committer.shutdown();
        }
        for shard in &self.inner.session_shards {
            let sessions: Vec<Arc<Session>> =
                lock_or_die(shard, "session shard").values().cloned().collect();
            for s in sessions {
                s.detach();
            }
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shutdown_and_wait();
    }
}

/// Pop the best entry across every queue shard: highest priority wins,
/// FIFO (lowest global `seq`) within a priority. The scan takes each
/// shard lock in turn; candidates are compared by `(priority,
/// Reverse(seq))` exactly as the old single-queue `pop_best` did, so
/// ordering semantics are unchanged.
fn pop_best(inner: &Inner) -> Option<WorkItem> {
    let mut best: Option<(u8, std::cmp::Reverse<u64>, usize)> = None;
    for (shard_idx, shard) in inner.queue_shards.iter().enumerate() {
        let q = lock_or_die(shard, "queue shard");
        if let Some(e) = q.iter().max_by_key(|e| (e.priority, std::cmp::Reverse(e.seq))) {
            let better = match best {
                None => true,
                Some((p, s, _)) => (e.priority, std::cmp::Reverse(e.seq)) > (p, s),
            };
            if better {
                best = Some((e.priority, std::cmp::Reverse(e.seq), shard_idx));
            }
        }
    }
    let (priority, seq, shard_idx) = best?;
    let mut q = lock_or_die(&inner.queue_shards[shard_idx], "queue shard");
    let idx = q.iter().position(|e| e.priority == priority && e.seq == seq.0)?;
    Some(q.remove(idx))
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let item = {
            let mut control = lock_or_die(&inner.control, "service control");
            loop {
                if control.shutdown {
                    return;
                }
                if !control.paused {
                    // Pushes happen while `control` is held, so a scan
                    // under this lock cannot miss a concurrent submit.
                    if let Some(item) = pop_best(inner) {
                        break item;
                    }
                }
                control = wait_or_die(&inner.work_cv, control, "service control");
            }
        };
        inner.queued.fetch_sub(1, Ordering::AcqRel);
        if let Some(started) = &inner.started {
            lock_or_die(started, "started log").push(item.session.id);
        }
        run_session(inner, item);
    }
}

/// Append the terminal record `on_durable` stands for and, once it is
/// durable, publish that phase — without parking this thread on the
/// group fsync. In group mode the finalisation (retire + `set_phase`)
/// runs on the commit thread's ack path, so a worker hands off its
/// finished session and immediately picks up the next one; the session
/// only *becomes* terminal once its record is durable, exactly as
/// before. In direct mode (and with no journal) everything runs inline
/// on this thread.
///
/// An [`AppendError::Crashed`] means the simulated kill happened before
/// the record became durable: the session is left [`Phase::Crashed`]
/// with no terminal record, exactly like a real SIGKILL, and resumes on
/// the next start. Crashed sessions are not retired — they belong to
/// the next manager.
fn finish_session(
    inner: &Arc<Inner>,
    session: &Arc<Session>,
    journal: Option<SessionJournal>,
    on_durable: Phase,
) {
    // Built only when there is a journal to take it: a completed record
    // copies the whole result.
    let record = journal.is_some().then(|| terminal_record(&on_durable));
    let finalize = {
        let inner = inner.clone();
        let session = session.clone();
        move |res: Result<(), AppendError>| {
            let phase = match res {
                Ok(()) => on_durable,
                Err(AppendError::Crashed) => Phase::Crashed,
                Err(AppendError::Io(e)) => match on_durable {
                    // A completed result that never hit the disk must not
                    // be reported Done; lesser terminals keep their phase.
                    Phase::Done(_) => Phase::Failed(format!("result not durable: {e}")),
                    other => other,
                },
            };
            // Retire before publishing the phase: a waiter that wakes on
            // the terminal state must already see the retention cap
            // enforced.
            if !matches!(phase, Phase::Crashed) {
                inner.retire(session.id);
            }
            session.set_phase(phase);
        }
    };
    match journal.zip(record) {
        Some((j, record)) => j.append_async(&record, finalize),
        None => finalize(Ok(())),
    }
}

fn run_session(inner: &Arc<Inner>, mut item: WorkItem) {
    let session = item.session.clone();
    if session.cancel_requested() {
        // Cancelled while still queued: terminal record, no search.
        let journal = item.journal.take();
        finish_session(inner, &session, journal, Phase::Cancelled);
        return;
    }
    session.set_phase(Phase::Running);

    let resuming = item.resumed;
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<SessionResult, String> {
        let spec = &session.spec;
        let SearchSetup { runner, job, searcher, space } = search_setup(inner, spec)?;
        let mut search = |base: &mut dyn ProfilingEnv| {
            let provenance = ProvenanceLog::new();
            // Fresh sessions search through the shared cache; resumed
            // sessions search through the journal replayer, which serves
            // journaled hits itself and never consults the live cache.
            let cache = inner.cfg.probe_cache.then_some(&inner.cache);
            let mut cached_env;
            let mut replay_env;
            let env: &mut dyn ProfilingEnv = if resuming {
                replay_env = ReplayEnv::new(base, &item.resume_events, &provenance);
                &mut replay_env
            } else {
                cached_env = CachedEnv::new(base, cache, &spec.job, &provenance);
                &mut cached_env
            };
            let mut push = |event, cached| session.push_event(event, cached);
            let mut sink = SessionSink {
                out: &mut push,
                cancel: Some(&session.cancel),
                writer: item.journal.as_mut(),
                replay: &item.resume_events,
                replay_pos: 0,
                journaled: 0,
                provenance: &provenance,
                crash_after: inner.cfg.crash_after_records,
            };
            let search = searcher.search_traced(env, &session.scenario, &mut sink);
            if sink.replay_pos < sink.replay.len() {
                return Err(format!(
                    "resume divergence: replay consumed only {} of {} journaled events",
                    sink.replay_pos,
                    sink.replay.len()
                ));
            }
            Ok(search)
        };
        let experiment = match &inner.fleet {
            None => {
                let mut profiler = runner.profiler_with_space(&job, space);
                let outcome = search(&mut profiler)?;
                runner.complete(profiler, outcome, searcher.name(), &session.scenario)
            }
            // Fleet mode: this worker is the session's tenant. It searches
            // once the driver admits it (cache hits skip admission) and
            // leaves the pool when its cloud drops, on every exit path.
            Some(fleet) => {
                let deadline = session.scenario.deadline();
                let cloud = fleet.arrive(session.id, spec.priority, deadline);
                let mut profiler = runner.profiler_on_cloud(&job, space, cloud);
                let outcome = search(&mut SerialEnv(&mut profiler))?;
                profiler.cloud().mark_search_done();
                runner.complete(profiler, outcome, searcher.name(), &session.scenario)
            }
        };
        Ok(SessionResult::from(&experiment))
    }));

    let journal = item.journal.take();
    match outcome {
        Ok(Ok(result)) => finish_session(inner, &session, journal, Phase::Done(Box::new(result))),
        Ok(Err(error)) => finish_session(inner, &session, journal, Phase::Failed(error)),
        Err(payload) => {
            if payload.is::<CancelSignal>() {
                finish_session(inner, &session, journal, Phase::Cancelled);
            } else if payload.is::<CrashSignal>() {
                // Simulated kill: no terminal record — exactly what a real
                // SIGKILL leaves behind. The next manager resumes it. Not
                // retired: crashed sessions belong to the next manager.
                session.set_phase(Phase::Crashed);
            } else {
                let error = if let Some(d) = payload.downcast_ref::<ReplayDivergence>() {
                    d.0.clone()
                } else if let Some(j) = payload.downcast_ref::<JournalIo>() {
                    format!("journal append failed: {}", j.0)
                } else if let Some(s) = payload.downcast_ref::<&str>() {
                    format!("searcher panicked: {s}")
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    format!("searcher panicked: {s}")
                } else {
                    "searcher panicked".to_string()
                };
                finish_session(inner, &session, journal, Phase::Failed(error));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcd::env::SyntheticEnv;
    use mlcd::prelude::InstanceType;
    use mlcd_perfmodel::{ThroughputModel, TrainingJob};

    fn tiny_spec(job: &str, seed: u64) -> SubmitSpec {
        // Small spaces keep these unit tests fast; the integration tests
        // exercise the paper-scale spaces.
        let mut s = SubmitSpec::new(job, "random", seed);
        s.types = Some(vec!["c5.xlarge".into(), "p2.xlarge".into()]);
        s.max_nodes = 8;
        s
    }

    fn manager(cfg: ServiceConfig) -> SessionManager {
        SessionManager::new(cfg).expect("manager starts")
    }

    fn done_result(m: &SessionManager, id: u64) -> SessionResult {
        match m.session(id).expect("session exists").wait_terminal() {
            Phase::Done(r) => *r,
            other => panic!("session {id} ended as {}", other.name()),
        }
    }

    #[test]
    fn runs_a_session_to_done() {
        let m = manager(ServiceConfig { workers: 1, ..Default::default() });
        let id = m.submit(tiny_spec("resnet-cifar10", 3)).unwrap();
        let result = done_result(&m, id);
        assert_eq!(result.searcher, "Random");
        assert!(result.search.n_probes() > 0);
        assert_eq!(m.status(Some(id)).unwrap()[0].state, "done");
    }

    #[test]
    fn rejects_invalid_specs_without_consuming_ids() {
        let m = manager(ServiceConfig::default());
        let r = m.submit(SubmitSpec::new("no-such-job", "random", 1)).unwrap_err();
        assert!(!r.queue_full);
        let id = m.submit(tiny_spec("resnet-cifar10", 1)).unwrap();
        assert_eq!(id, 1, "rejected submits must not burn session ids");
    }

    #[test]
    fn backpressure_is_typed_and_bounded() {
        // Paused pool: nothing drains, so the single queue slot fills on
        // the first submit and the second must be rejected with the typed
        // queue_full signal (never blocked, never unbounded).
        let m = manager(ServiceConfig {
            workers: 1,
            queue_cap: 1,
            start_paused: true,
            ..Default::default()
        });
        m.submit(tiny_spec("resnet-cifar10", 1)).unwrap();
        let r = m.submit(tiny_spec("resnet-cifar10", 2)).unwrap_err();
        assert!(r.queue_full, "rejection must carry the queue_full signal: {}", r.reason);
        // Spec problems are rejections too, but never queue_full.
        let bad = m.submit(SubmitSpec::new("no-such-job", "random", 1)).unwrap_err();
        assert!(!bad.queue_full);
    }

    #[test]
    fn priority_orders_the_queue_fifo_within_priority() {
        // Queue everything while paused, then drain with one worker: the
        // order must be strictly (priority desc, submit order).
        let m = manager(ServiceConfig {
            workers: 1,
            queue_cap: 16,
            start_paused: true,
            ..Default::default()
        });
        let low_a = m.submit(tiny_spec("resnet-cifar10", 1)).unwrap();
        let low_b = m.submit(tiny_spec("resnet-cifar10", 2)).unwrap();
        let hi = m.submit(tiny_spec("resnet-cifar10", 3).with_priority(5)).unwrap();
        let mid = m.submit(tiny_spec("resnet-cifar10", 4).with_priority(2)).unwrap();
        m.resume_workers();
        for id in [low_a, low_b, hi, mid] {
            let _ = m.session(id).unwrap().wait_terminal();
        }
        assert_eq!(m.started_order(), vec![hi, mid, low_a, low_b]);
    }

    #[test]
    fn cancel_queued_session_never_runs() {
        let m = manager(ServiceConfig {
            workers: 1,
            queue_cap: 16,
            start_paused: true,
            ..Default::default()
        });
        let keep = m.submit(tiny_spec("resnet-cifar10", 1)).unwrap();
        let dropped = m.submit(tiny_spec("resnet-cifar10", 2)).unwrap();
        assert!(m.cancel(dropped));
        m.resume_workers();
        assert!(matches!(m.session(dropped).unwrap().wait_terminal(), Phase::Cancelled));
        assert!(matches!(m.session(keep).unwrap().wait_terminal(), Phase::Done(_)));
        let cancelled = m.session(dropped).unwrap();
        assert_eq!(cancelled.next_events(0).0.len(), 0, "cancelled-in-queue never searched");
        assert!(!m.cancel(999), "unknown ids are reported, not ignored");
    }

    #[test]
    fn same_spec_twice_shares_probes_for_free() {
        let m = manager(ServiceConfig { workers: 1, ..Default::default() });
        let a = m.submit(tiny_spec("resnet-cifar10", 7)).unwrap();
        let b = m.submit(tiny_spec("resnet-cifar10", 7)).unwrap();
        let ra = done_result(&m, a);
        let rb = done_result(&m, b);
        // Identical specs walk the identical trajectory: same deployments
        // probed, same observed speeds, same pick…
        assert_eq!(ra.search.best, rb.search.best);
        assert_eq!(ra.search.steps.len(), rb.search.steps.len());
        for (sa, sb) in ra.search.steps.iter().zip(&rb.search.steps) {
            assert_eq!(sa.observation, sb.observation);
        }
        // …but the later session pays nothing: every probe is a cache hit
        // (that is the service's whole reason to share the cache).
        let (hits, _) = m.cache_stats();
        assert!(hits as usize >= rb.search.steps.len(), "second run must be all hits");
        assert_eq!(rb.search.profile_cost.dollars(), 0.0);
        assert!(ra.search.profile_cost.dollars() > 0.0);
    }

    fn synthetic_env() -> SyntheticEnv<fn(&Deployment) -> f64> {
        let space = SearchSpace::new(
            &[InstanceType::C5Xlarge, InstanceType::P2Xlarge],
            10,
            &TrainingJob::resnet_cifar10(),
            &ThroughputModel::default(),
        );
        SyntheticEnv::new(space, 1e6, |d| 100.0 * d.n as f64)
    }

    fn probe_event(observation: Observation) -> TraceEvent {
        TraceEvent::Probe {
            observation,
            cum_profile_time: SimDuration::ZERO,
            cum_profile_cost: Money::ZERO,
        }
    }

    #[test]
    fn a_blocked_watcher_wakes_on_a_pushed_event() {
        // `push_event` notifies only counted waiters: a watcher parked in
        // `next_events` must get a mid-search event, not wait for the end.
        let spec = tiny_spec("resnet-cifar10", 1);
        let scenario = spec.scenario().unwrap();
        let session = Session::new(1, spec, scenario, false);
        let waiters = || lock_or_die(&session.state, "session state").event_waiters;
        let obs = synthetic_env().profile(&Deployment::new(InstanceType::C5Xlarge, 1)).unwrap();
        std::thread::scope(|s| {
            let watcher = s.spawn(|| session.next_events(0));
            while waiters() == 0 {
                std::thread::yield_now();
            }
            session.push_event(probe_event(obs), Some(false));
            for _ in 0..10_000 {
                if watcher.is_finished() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let woke = watcher.is_finished();
            if !woke {
                session.set_phase(Phase::Cancelled); // release it to fail cleanly
            }
            let (events, end) = watcher.join().expect("watcher");
            assert!(woke, "the pushed event did not wake the watcher");
            assert_eq!((events.len(), end), (1, None));
        });
        assert_eq!(waiters(), 0);
    }

    #[test]
    fn replay_env_serves_journaled_hits_and_reprobes_misses() {
        let d1 = Deployment::new(InstanceType::C5Xlarge, 1);
        let d2 = Deployment::new(InstanceType::C5Xlarge, 2);
        let d3 = Deployment::new(InstanceType::P2Xlarge, 3);

        // What the paid probes look like on the raw environment.
        let mut baseline = synthetic_env();
        let base1 = baseline.profile(&d1).unwrap();
        let base3 = baseline.profile(&d3).unwrap();
        let paid_elapsed = baseline.elapsed();

        // The journaled prefix: d1 paid, d2 a cache hit whose observation
        // (sentinel speed) could never come from this env, d3 paid.
        let hit = Observation {
            deployment: d2,
            speed: 123.456,
            profile_time: SimDuration::ZERO,
            profile_cost: Money::ZERO,
        };
        let prefix = vec![
            (probe_event(base1), false),
            (probe_event(hit), true),
            (probe_event(base3), false),
        ];

        let mut inner = synthetic_env();
        let log = ProvenanceLog::new();
        let mut replay = ReplayEnv::new(&mut inner, &prefix, &log);

        assert_eq!(replay.profile(&d1).unwrap(), base1, "journaled miss is re-probed");
        assert!(!log.pop());
        let served = replay.profile(&d2).unwrap();
        assert_eq!(served, hit, "journaled hit is served from the journal, not the env");
        assert!(log.pop());
        assert_eq!(replay.profile(&d3).unwrap(), base3);
        assert!(!log.pop());
        // Past the prefix the env is a plain delegate: every probe paid.
        let again = replay.profile(&d2).unwrap();
        assert_ne!(again, hit, "suffix probes must come from the env, not the journal");
        assert!(!log.pop());
        // The inner env was charged for exactly the three paid probes —
        // the served hit never touched it.
        let (t2, _) = inner.quote(&d2);
        assert_eq!(inner.elapsed(), paid_elapsed + t2);
    }

    #[test]
    fn replay_env_batches_mix_journaled_hits_and_paid_misses() {
        let d1 = Deployment::new(InstanceType::C5Xlarge, 1);
        let d2 = Deployment::new(InstanceType::C5Xlarge, 2);
        let d3 = Deployment::new(InstanceType::P2Xlarge, 3);

        let mut baseline = synthetic_env();
        let batch = baseline.profile_batch(&[d1, d3]);
        let base1 = *batch[0].as_ref().unwrap();
        let base3 = *batch[1].as_ref().unwrap();

        let hit = Observation {
            deployment: d2,
            speed: 777.0,
            profile_time: SimDuration::ZERO,
            profile_cost: Money::ZERO,
        };
        let prefix = vec![
            (probe_event(base1), false),
            (probe_event(hit), true),
            (probe_event(base3), false),
        ];

        let mut inner = synthetic_env();
        let log = ProvenanceLog::new();
        let mut replay = ReplayEnv::new(&mut inner, &prefix, &log);
        let results = replay.profile_batch(&[d1, d2, d3]);
        assert_eq!(*results[0].as_ref().unwrap(), base1);
        assert_eq!(*results[1].as_ref().unwrap(), hit);
        assert_eq!(*results[2].as_ref().unwrap(), base3);
        // Provenance in batch (ds) order: paid, hit, paid.
        assert!(!log.pop());
        assert!(log.pop());
        assert!(!log.pop());
        // Only the two misses were charged to the inner env; the served
        // hit never touched it.
        let (t1, _) = replay.quote(&d1);
        let (t3, _) = replay.quote(&d3);
        assert_eq!(inner.elapsed(), t1 + t3);
    }

    #[test]
    fn header_only_journal_still_resumes_cache_free() {
        // Crash before the first journaled event: the journal holds a
        // header only. The restored session must STILL count as resumed
        // and run cache-free — inferring resume status from the replayed
        // -event count would let it hit the live cache and produce an
        // outcome the original run could not have.
        let jdir =
            std::env::temp_dir().join(format!("mlcd-session-headeronly-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&jdir);
        std::fs::create_dir_all(&jdir).unwrap();

        let spec = tiny_spec("resnet-cifar10", 11);
        let doomed = manager(ServiceConfig {
            workers: 1,
            journal_dir: Some(jdir.clone()),
            probe_cache: true,
            crash_after_records: Some(0),
            ..Default::default()
        });
        let id = doomed.submit(spec.clone()).unwrap();
        assert!(matches!(doomed.session(id).unwrap().wait_terminal(), Phase::Crashed));
        drop(doomed);

        // Revive paused, and let a fresh same-spec session warm the cache
        // first; only then drain the resumed one.
        let revived = manager(ServiceConfig {
            workers: 1,
            queue_cap: 8,
            journal_dir: Some(jdir.clone()),
            probe_cache: true,
            start_paused: true,
            ..Default::default()
        });
        let warm = revived.submit(spec.with_priority(5)).unwrap();
        revived.resume_workers();
        let warm_result = done_result(&revived, warm);
        let resumed_result = done_result(&revived, id);
        assert_eq!(revived.started_order(), vec![warm, id]);
        assert!(warm_result.search.profile_cost.dollars() > 0.0);
        // Same trajectory, but every probe paid: the resumed session
        // never consulted the cache the warm session just filled.
        assert_eq!(resumed_result.search.digest(), warm_result.search.digest());
        assert!(
            resumed_result.search.profile_cost.dollars() > 0.0,
            "header-only resume must not be served by the live probe cache"
        );
        let _ = std::fs::remove_dir_all(&jdir);
    }

    #[test]
    fn rejected_submit_leaves_no_journal_file() {
        let jdir =
            std::env::temp_dir().join(format!("mlcd-session-rejected-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&jdir);
        std::fs::create_dir_all(&jdir).unwrap();

        let m = manager(ServiceConfig {
            workers: 1,
            queue_cap: 1,
            journal_dir: Some(jdir.clone()),
            start_paused: true,
            ..Default::default()
        });
        let kept = m.submit(tiny_spec("resnet-cifar10", 1)).unwrap();
        let r = m.submit(tiny_spec("resnet-cifar10", 2)).unwrap_err();
        assert!(r.queue_full);
        // Count session journals only: the shared commit.log is expected.
        let journals = list_journals(&jdir).unwrap();
        assert_eq!(
            journals.len(),
            1,
            "a rejected submit must not leave a journal for the next manager to restore"
        );
        m.resume_workers();
        let _ = m.session(kept).unwrap().wait_terminal();
        let _ = std::fs::remove_dir_all(&jdir);
    }

    #[test]
    fn terminal_sessions_are_evicted_and_served_from_the_journal() {
        let jdir = std::env::temp_dir().join(format!("mlcd-session-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&jdir);
        std::fs::create_dir_all(&jdir).unwrap();

        let m = manager(ServiceConfig {
            workers: 1,
            queue_cap: 16,
            journal_dir: Some(jdir.clone()),
            retain_terminal: 2,
            ..Default::default()
        });
        let ids: Vec<u64> =
            (0..5).map(|i| m.submit(tiny_spec("resnet-cifar10", 20 + i)).unwrap()).collect();
        let fresh: Vec<SessionResult> = ids.iter().map(|&id| done_result(&m, id)).collect();

        // Only the retention cap's worth of terminal sessions stay live.
        let live: u64 = m.stats().live_sessions;
        assert_eq!(live, 2, "terminal sessions past the cap must be evicted");
        assert!(m.stats().evicted >= 3);

        // Every id — evicted or live — still answers Status and Result,
        // bit-identical to the fresh result, because the journal is the
        // durable record.
        for (&id, fresh) in ids.iter().zip(&fresh) {
            let rows = m.status(Some(id)).expect("status for evicted id");
            assert_eq!(rows[0].state, "done");
            match m.session(id).expect("evicted session loads").phase() {
                Phase::Done(r) => assert_eq!(r.search.digest(), fresh.search.digest()),
                other => panic!("session {id} reloaded as {}", other.name()),
            }
        }
        let _ = std::fs::remove_dir_all(&jdir);
    }

    #[test]
    fn eviction_without_a_journal_forgets_the_session() {
        let m = manager(ServiceConfig {
            workers: 1,
            queue_cap: 16,
            retain_terminal: 1,
            ..Default::default()
        });
        let a = m.submit(tiny_spec("resnet-cifar10", 31)).unwrap();
        let b = m.submit(tiny_spec("resnet-cifar10", 32)).unwrap();
        let _ = done_result(&m, a);
        let _ = done_result(&m, b);
        // One of the two was evicted; without a journal it is simply gone.
        let remaining = [a, b].iter().filter(|&&id| m.session(id).is_some()).count();
        assert_eq!(remaining, 1);
        assert_eq!(m.stats().evicted, 1);
    }

    #[test]
    fn next_events_batches_are_bounded() {
        let m = manager(ServiceConfig { workers: 1, ..Default::default() });
        let spec = {
            let mut s = SubmitSpec::new("resnet-cifar10", "exhaustive", 1);
            s.types = Some(vec!["c5.xlarge".into(), "p2.xlarge".into()]);
            s.max_nodes = 8;
            s
        };
        let id = m.submit(spec).unwrap();
        let session = m.session(id).unwrap();
        let _ = session.wait_terminal();
        let mut pos = 0usize;
        let mut total = 0usize;
        loop {
            let (events, terminal) = session.next_events(pos);
            assert!(events.len() <= WATCH_BATCH, "poll batches must be bounded");
            pos += events.len();
            total += events.len();
            if terminal.is_some() {
                break;
            }
        }
        assert!(total > 0, "the full backlog still streams, batch by batch");
    }

    #[test]
    fn retained_trace_is_trimmed_and_replays_the_search() {
        let m = manager(ServiceConfig { workers: 1, ..Default::default() });
        let mut spec = tiny_spec("resnet-cifar10", 7);
        spec.searcher = "heterbo".into();
        spec.types = Some(vec!["c5.xlarge".into(), "c5.4xlarge".into(), "p2.xlarge".into()]);
        spec.max_nodes = 32;
        let id = m.submit(spec.clone()).unwrap();
        let session = m.session(id).unwrap();
        assert!(matches!(session.wait_terminal(), Phase::Done(_)));
        {
            let st = lock_or_die(&session.state, "session state");
            assert!(st.events.iter().all(is_journaled), "the retained buffer is the spine");
            assert_eq!(st.cached.len(), st.events.len(), "one provenance flag per spine event");
            assert_eq!(st.events.capacity(), st.events.len(), "a retained spine is trimmed");
        }

        let mut replayed = Vec::new();
        let state = m
            .watch(&session, &mut |events| {
                assert!(events.len() <= WATCH_BATCH, "replay batches must be bounded");
                replayed.extend_from_slice(events);
                Ok(())
            })
            .expect("replay");
        assert_eq!(state, "done");

        let job = spec.training_job().unwrap();
        let searcher = searcher_by_name(&spec.searcher, spec.seed).unwrap();
        let runner = ExperimentRunner::new(spec.seed)
            .with_max_nodes(spec.max_nodes)
            .with_types(spec.instance_types().unwrap().unwrap());
        let mut trace = mlcd::prelude::SearchTrace::default();
        searcher.search_traced(&mut runner.profiler_for(&job), &session.scenario, &mut trace);
        assert!(replayed.len() > WATCH_BATCH, "the replay must span several batches");
        assert_eq!(replayed, trace.events, "replay from 0 is the in-process trace, in order");
    }

    #[test]
    fn started_audit_log_is_gated_behind_the_paused_path() {
        let m = manager(ServiceConfig { workers: 1, ..Default::default() });
        let id = m.submit(tiny_spec("resnet-cifar10", 41)).unwrap();
        let _ = done_result(&m, id);
        assert!(
            m.started_order().is_empty(),
            "unpaused managers must not grow the unbounded started log"
        );
    }

    #[test]
    fn stats_expose_group_commit_counters() {
        let jdir = std::env::temp_dir().join(format!("mlcd-session-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&jdir);
        std::fs::create_dir_all(&jdir).unwrap();

        let m = manager(ServiceConfig {
            workers: 2,
            queue_cap: 16,
            journal_dir: Some(jdir.clone()),
            ..Default::default()
        });
        let id = m.submit(tiny_spec("resnet-cifar10", 51)).unwrap();
        let _ = done_result(&m, id);
        let stats = m.stats();
        assert!(stats.group_commit);
        assert!(stats.journal_groups >= 1, "appends must have flowed through the committer");
        // Header + events + terminal all went through the shared log.
        assert!(stats.journal_records >= 3);
        // One simulator-counter row per event kind, in declaration order,
        // and the session's search must have dispatched lifecycle events.
        let kinds: Vec<&str> = stats.sim_events.iter().map(|r| r.kind.as_str()).collect();
        let expected: Vec<&str> = mlcd_cloudsim::EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(kinds, expected);
        assert!(
            stats.sim_events.iter().any(|r| r.dispatched > 0),
            "running a search must dispatch simulator events: {:?}",
            stats.sim_events
        );
        let _ = std::fs::remove_dir_all(&jdir);
    }

    #[test]
    fn fleet_mode_rejects_journaling() {
        let jdir = std::env::temp_dir().join(format!("mlcd-session-fleetj-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&jdir);
        let err = match SessionManager::new(ServiceConfig {
            journal_dir: Some(jdir.clone()),
            fleet: Some(crate::fleet::FleetConfig::default()),
            ..Default::default()
        }) {
            Ok(_) => panic!("fleet + journal must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("incompatible"), "{err}");
        let _ = std::fs::remove_dir_all(&jdir);
    }

    #[test]
    fn fleet_sessions_share_the_pool_and_report_counters() {
        let m = manager(ServiceConfig {
            workers: 2,
            fleet: Some(crate::fleet::FleetConfig {
                policy: "fairshare".into(),
                ..Default::default()
            }),
            ..Default::default()
        });
        let a = m.submit(tiny_spec("resnet-cifar10", 3)).unwrap();
        let b = m.submit(tiny_spec("char-rnn", 4)).unwrap();
        let ra = done_result(&m, a);
        let rb = done_result(&m, b);
        assert!(ra.search.n_probes() > 0 && rb.search.n_probes() > 0);
        let f = m.stats().fleet.expect("fleet counters must be reported");
        assert_eq!(f.policy, "fairshare");
        assert!(f.admitted > 0, "sessions probed, so turns were granted: {f:?}");
        assert_eq!(f.queue_depth, 0, "drained pool has no waiters");
        // Private-cloud managers report no fleet block.
        let plain = manager(ServiceConfig { workers: 1, ..Default::default() });
        assert!(plain.stats().fleet.is_none());
    }

    #[test]
    fn refused_fleet_probes_do_not_livelock_a_session() {
        // A 2-GPU pool refuses most of the search space. A refused launch
        // takes no simulated time, so a search that kept the refused
        // candidate in its pool re-requested it forever.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let m = manager(ServiceConfig {
                workers: 1,
                fleet: Some(crate::fleet::FleetConfig {
                    policy: "fifo".into(),
                    cpu_cap: 4,
                    gpu_cap: 2,
                    ..Default::default()
                }),
                ..Default::default()
            });
            let mut spec = SubmitSpec::new("resnet-cifar10", "heterbo", 1);
            spec.deadline_hours = Some(4.0);
            spec.max_nodes = 16;
            let id = m.submit(spec).unwrap();
            let phase = m.session(id).expect("session exists").wait_terminal();
            let _ = tx.send(phase.name());
        });
        let phase = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("fleet session livelocked on a refused probe");
        assert_eq!(phase, "done");
    }

    #[test]
    fn shutdown_drains_current_session_and_stops() {
        let m = manager(ServiceConfig { workers: 1, ..Default::default() });
        let id = m.submit(tiny_spec("resnet-cifar10", 5)).unwrap();
        m.shutdown_and_wait();
        assert!(
            m.session(id).unwrap().phase().is_terminal() || {
                // The worker may not have picked it up before shutdown; then
                // it simply stays queued (journal-less here, so it is lost by
                // design — journaled queues resume instead).
                matches!(m.session(id).unwrap().phase(), Phase::Queued)
            }
        );
        let r = m.submit(tiny_spec("resnet-cifar10", 6)).unwrap_err();
        assert!(r.reason.contains("shutting down"));
    }
}
