//! # mlcd-service — the deployment-planning service
//!
//! A long-running server around the MLCD search stack: clients submit
//! *(job, scenario, searcher, seed)* specs; each runs as an independent,
//! fully deterministic search session on a bounded worker pool. Three
//! properties the whole crate is organised around:
//!
//! 1. **Determinism survives concurrency.** A session's
//!    [`SearchOutcome`](mlcd::observation::SearchOutcome) is a pure
//!    function of its spec — the pool only changes *when* a session runs,
//!    never *what* it computes. Two concurrent sessions are bit-identical
//!    to the same two searches run sequentially in-process.
//! 2. **Determinism survives crashes.** Every session write-ahead
//!    journals its deterministic event spine ([`journal`]), including the
//!    provenance of probes the shared cache served for free; a killed
//!    server restarted over the same journal directory resumes every
//!    in-flight search by verified replay — cache-served observations are
//!    re-served from the journal itself — and completes it
//!    deterministically, bit-identical to an uninterrupted run whenever
//!    no post-crash probe would have been a cache hit (always, with the
//!    cache disabled).
//! 3. **Exploration cost is shared.** The paper's central observation is
//!    that profiling probes are expensive and heterogeneous; the service
//!    memoises completed probes across sessions ([`cache`]) so identical
//!    probes of the same job are paid for once.
//!
//! The wire protocol ([`proto`], [`net`]) is newline-delimited JSON over
//! TCP, served by the `mlcd-serve` binary and spoken by the `mlcd`
//! CLI's `submit`/`status`/`result`/`watch` subcommands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fleet;
pub mod journal;
pub mod net;
pub mod proto;
pub mod session;
pub mod sync;

pub use cache::{CacheKey, CachedEnv, GridCache, GridKey, ProbeCache, ProvenanceLog};
pub use fleet::{FleetConfig, FleetCounters};
pub use journal::{
    commit_log_file, reconcile_commit_log, AppendError, CommitCrashPoint, CommitHandle,
    CommitLogEntry, CommitStats, GroupCommitter, JournalRecord, JournalWriter, SessionJournal,
    COMMIT_LOG_FILE, JOURNAL_FORMAT,
};
pub use net::Server;
pub use proto::{
    FleetStatsWire, Request, Response, ServiceStats, SessionResult, StatusLine, SubmitSpec,
};
pub use session::{Phase, Reject, ServiceConfig, Session, SessionManager};
