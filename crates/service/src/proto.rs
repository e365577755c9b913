//! Wire types of the newline-delimited-JSON protocol and the session
//! vocabulary shared by the journal.
//!
//! Every request and response is one JSON value per line, externally
//! tagged exactly as the vendored serde derive renders enums:
//! `{"Submit": {...}}`, `{"Status": {"id": null}}`, `"Shutdown"`. The
//! `mlcd` binary's client subcommands build these shapes with the `json!`
//! macro rather than linking this crate, so the rendering here *is* the
//! protocol contract.

use mlcd::experiment::ExperimentOutcome;
use mlcd::observation::SearchOutcome;
use mlcd::prelude::{DeploymentPlan, Scenario};
use mlcd_cloudsim::{InstanceType, Money, SimDuration};
use mlcd_perfmodel::TrainingJob;
use serde::{DeError, Deserialize, Serialize, Value};

/// Everything a `submit` request carries: which job to plan, under which
/// scenario, with which searcher, seed and queue priority.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SubmitSpec {
    /// Preset job name ([`TrainingJob::by_name`]).
    pub job: String,
    /// Searcher name ([`mlcd::search::searcher_by_name`]).
    pub searcher: String,
    /// Seed the whole session is a pure function of.
    pub seed: u64,
    /// Queue priority: higher runs first; FIFO within a priority.
    pub priority: u8,
    /// Scenario-3 budget in dollars, if any.
    pub budget: Option<f64>,
    /// Scenario-2 deadline in hours, if any.
    pub deadline_hours: Option<f64>,
    /// Restrict the search space to these instance-type names.
    pub types: Option<Vec<String>>,
    /// Cap on the scale-out dimension.
    pub max_nodes: u32,
}

impl SubmitSpec {
    /// A spec with the CLI defaults: priority 0, seed 2020, the full
    /// catalog, 50-node cap, unconstrained scenario.
    pub fn new(job: &str, searcher: &str, seed: u64) -> SubmitSpec {
        SubmitSpec {
            job: job.to_string(),
            searcher: searcher.to_string(),
            seed,
            priority: 0,
            budget: None,
            deadline_hours: None,
            types: None,
            max_nodes: 50,
        }
    }

    /// Scenario-3 variant of this spec.
    pub fn with_budget(mut self, dollars: f64) -> SubmitSpec {
        self.budget = Some(dollars);
        self
    }

    /// Scenario-2 variant of this spec.
    pub fn with_deadline_hours(mut self, hours: f64) -> SubmitSpec {
        self.deadline_hours = Some(hours);
        self
    }

    /// Queue priority (higher runs first).
    pub fn with_priority(mut self, priority: u8) -> SubmitSpec {
        self.priority = priority;
        self
    }

    /// The scenario this spec requests.
    ///
    /// # Errors
    /// When both a budget and a deadline are given.
    pub fn scenario(&self) -> Result<Scenario, String> {
        match (self.deadline_hours, self.budget) {
            (Some(_), Some(_)) => Err("give a deadline or a budget, not both".into()),
            (Some(h), None) => Ok(Scenario::CheapestWithDeadline(SimDuration::from_hours(h))),
            (None, Some(d)) => Ok(Scenario::FastestWithBudget(Money::from_dollars(d))),
            (None, None) => Ok(Scenario::FastestUnlimited),
        }
    }

    /// Resolve the preset job.
    ///
    /// # Errors
    /// When the job name is not a preset.
    pub fn training_job(&self) -> Result<TrainingJob, String> {
        TrainingJob::by_name(&self.job).ok_or_else(|| format!("unknown job `{}`", self.job))
    }

    /// Parse the instance-type restriction, if any.
    ///
    /// # Errors
    /// When a type name is not in the catalog.
    pub fn instance_types(&self) -> Result<Option<Vec<InstanceType>>, String> {
        match &self.types {
            None => Ok(None),
            Some(names) => {
                let mut parsed = Vec::with_capacity(names.len());
                for n in names {
                    parsed.push(
                        InstanceType::from_name(n)
                            .ok_or_else(|| format!("unknown instance type `{n}`"))?,
                    );
                }
                Ok(Some(parsed))
            }
        }
    }

    /// Validate everything a submit must reject up front: job, searcher,
    /// scenario and type names. Non-finite budgets/deadlines are rejected
    /// here too, so nothing downstream ever sees a NaN constraint.
    ///
    /// # Errors
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.training_job()?;
        if mlcd::search::searcher_by_name(&self.searcher, self.seed).is_none() {
            return Err(format!("unknown searcher `{}`", self.searcher));
        }
        if let Some(b) = self.budget {
            if !b.is_finite() || b < 0.0 {
                return Err(format!("budget must be a non-negative finite amount, got {b}"));
            }
        }
        if let Some(h) = self.deadline_hours {
            if !h.is_finite() || h <= 0.0 {
                return Err(format!("deadline must be a positive finite hour count, got {h}"));
            }
        }
        self.scenario()?;
        self.instance_types()?;
        if self.max_nodes == 0 {
            return Err("max_nodes must be at least 1".into());
        }
        Ok(())
    }
}

// Hand-written so absent optional fields default instead of erroring:
// `{"job": "...", "searcher": "..."}` is a valid minimal submit.
impl Deserialize for SubmitSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::expected("object for SubmitSpec", v));
        }
        let req_str = |key: &str| -> Result<String, DeError> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| DeError::expected(&format!("string `{key}`"), v))
        };
        let opt = |key: &str| v.get(key).filter(|x| !x.is_null());
        Ok(SubmitSpec {
            job: req_str("job")?,
            searcher: req_str("searcher")?,
            seed: match opt("seed") {
                Some(s) => u64::from_value(s)?,
                None => 2020,
            },
            priority: match opt("priority") {
                Some(p) => u8::from_value(p)?,
                None => 0,
            },
            budget: match opt("budget") {
                Some(b) => Some(f64::from_value(b)?),
                None => None,
            },
            deadline_hours: match opt("deadline_hours") {
                Some(h) => Some(f64::from_value(h)?),
                None => None,
            },
            types: match opt("types") {
                Some(t) => Some(Vec::<String>::from_value(t)?),
                None => None,
            },
            max_nodes: match opt("max_nodes") {
                Some(n) => u32::from_value(n)?,
                None => 50,
            },
        })
    }
}

/// A finished session, as served by `result` and journaled on completion.
/// Mirrors [`ExperimentOutcome`] minus the `&'static str` searcher name
/// (owned here so the record round-trips through JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionResult {
    /// Searcher that produced it.
    pub searcher: String,
    /// The scenario it ran under.
    pub scenario: Scenario,
    /// The plan, if a deployment was found.
    pub plan: Option<DeploymentPlan>,
    /// Full search outcome (steps, stop reason, profiling totals).
    pub search: SearchOutcome,
    /// Wall-clock of the training run.
    pub train_time: SimDuration,
    /// Billed cost of the training run.
    pub train_cost: Money,
    /// Profiling + training wall-clock.
    pub total_time: SimDuration,
    /// Profiling + training spend.
    pub total_cost: Money,
    /// Whether the completed run satisfied the scenario's constraints.
    pub satisfied: bool,
}

impl From<&ExperimentOutcome> for SessionResult {
    fn from(o: &ExperimentOutcome) -> SessionResult {
        SessionResult {
            searcher: o.searcher.to_string(),
            scenario: o.scenario,
            plan: o.plan,
            search: o.search.clone(),
            train_time: o.train_time,
            train_cost: o.train_cost,
            total_time: o.total_time,
            total_cost: o.total_cost,
            satisfied: o.satisfied,
        }
    }
}

/// One client request — one JSON value per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Queue a new search session.
    Submit(SubmitSpec),
    /// One session's status, or all sessions when `id` is null.
    Status {
        /// Session to report on; `null` for every session.
        id: Option<u64>,
    },
    /// A finished session's result; `wait` blocks until it is terminal.
    Result {
        /// Session whose result is wanted.
        id: u64,
        /// Block until the session reaches a terminal state.
        wait: bool,
    },
    /// Stream a session's trace events (backlog, then live until it ends;
    /// past the end, replayed from the session's journaled spine).
    Watch {
        /// Session to watch.
        id: u64,
    },
    /// Request cooperative cancellation of a session.
    Cancel {
        /// Session to cancel.
        id: u64,
    },
    /// Service-wide counters (sessions, cache, group commit).
    Stats,
    /// Stop accepting work and shut the server down.
    Shutdown,
}

/// Service-wide counters, served for [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Sessions currently held in memory (queued, running or retained
    /// terminal) — evicted ones are not counted.
    pub live_sessions: u64,
    /// Sessions sitting in the work queue.
    pub queued: u64,
    /// Terminal sessions evicted from memory under the retention cap
    /// since the manager started.
    pub evicted: u64,
    /// Probe-cache hits.
    pub cache_hits: u64,
    /// Probe-cache misses.
    pub cache_misses: u64,
    /// Grid-cache hits (sessions that reused a shared grid enumeration).
    pub grid_hits: u64,
    /// Grid-cache misses (sessions that enumerated a fresh grid).
    pub grid_misses: u64,
    /// Whether journal appends go through the group committer.
    pub group_commit: bool,
    /// Groups the committer has made durable.
    pub journal_groups: u64,
    /// Records across all durable groups.
    pub journal_records: u64,
    /// Commit-log checkpoints (fsync session files + truncate log).
    pub journal_checkpoints: u64,
    /// Simulator event counters — one row per event kind with the
    /// process-wide scheduled/dispatched/cancelled totals, aggregated
    /// across every `SimEngine` the server has driven.
    pub sim_events: Vec<mlcd_cloudsim::SimEventCounter>,
    /// Fleet-mode counters; `null` when the server runs sessions on
    /// private clouds (the default). Absent fields deserialize as `None`,
    /// so pre-fleet stats lines still parse.
    pub fleet: Option<FleetStatsWire>,
}

/// Fleet-mode counters on the wire, mirroring
/// [`crate::fleet::FleetCounters`] plus the resolved policy name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStatsWire {
    /// Scheduling policy arbitrating the shared pool.
    pub policy: String,
    /// Launches granted (probes + training runs).
    pub admitted: u64,
    /// Granted requests that waited simulated time for admission.
    pub deferred: u64,
    /// Requests refused: policy denials and failed launches.
    pub denied: u64,
    /// Spot revocations dispatched on the shared pool.
    pub preempted: u64,
    /// Requests currently waiting at the arbiter.
    pub queue_depth: u64,
}

/// One session row of a `status` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusLine {
    /// Session id.
    pub id: u64,
    /// Preset job name.
    pub job: String,
    /// Searcher name.
    pub searcher: String,
    /// Session seed.
    pub seed: u64,
    /// Queue priority.
    pub priority: u8,
    /// Lifecycle state: `queued`, `running`, `done`, `failed`,
    /// `cancelled` or `crashed`.
    pub state: String,
}

/// One server response — one JSON value per line. `Watch` responses are
/// followed by raw [`mlcd::search::TraceEvent`] lines and close with
/// [`Response::WatchEnd`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The session was queued.
    Submitted {
        /// Its id.
        id: u64,
    },
    /// The submit was refused — the typed backpressure signal.
    Rejected {
        /// True when the bounded queue was full (retry later); false for
        /// invalid specs or a shutting-down server.
        queue_full: bool,
        /// Why it was refused.
        reason: String,
    },
    /// Status rows, one per requested session.
    StatusReport {
        /// The rows.
        sessions: Vec<StatusLine>,
    },
    /// A terminal session's result.
    ResultReady {
        /// Session id.
        id: u64,
        /// The result.
        result: SessionResult,
    },
    /// The session exists but is not done (only without `wait`).
    NotReady {
        /// Session id.
        id: u64,
        /// Current lifecycle state.
        state: String,
    },
    /// Event stream follows, one trace event per line.
    Watching {
        /// Session id.
        id: u64,
    },
    /// End of a watch stream.
    WatchEnd {
        /// Session id.
        id: u64,
        /// Terminal (or current, if the watcher was dropped) state.
        state: String,
    },
    /// Service-wide counters.
    Stats {
        /// The counters.
        stats: ServiceStats,
    },
    /// Cancellation was requested.
    Cancelling {
        /// Session id.
        id: u64,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// What went wrong.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_spec_round_trips() {
        let spec =
            SubmitSpec::new("resnet-cifar10", "heterbo", 7).with_budget(150.0).with_priority(3);
        let json = serde_json::to_string(&spec).unwrap();
        let back: SubmitSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn minimal_submit_defaults() {
        let spec: SubmitSpec =
            serde_json::from_str(r#"{"job":"char-rnn","searcher":"convbo"}"#).unwrap();
        assert_eq!(spec.seed, 2020);
        assert_eq!(spec.priority, 0);
        assert_eq!(spec.max_nodes, 50);
        assert!(spec.budget.is_none() && spec.deadline_hours.is_none() && spec.types.is_none());
        assert!(matches!(spec.scenario(), Ok(Scenario::FastestUnlimited)));
    }

    #[test]
    fn service_stats_round_trip_with_sim_events() {
        let stats = ServiceStats {
            live_sessions: 2,
            sim_events: vec![mlcd_cloudsim::SimEventCounter {
                kind: "provisioning_done".into(),
                scheduled: 5,
                dispatched: 4,
                cancelled: 1,
            }],
            ..Default::default()
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"sim_events\""), "{json}");
        let back: ServiceStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }

    #[test]
    fn service_stats_round_trip_with_fleet_counters() {
        let stats = ServiceStats {
            fleet: Some(FleetStatsWire {
                policy: "fairshare".into(),
                admitted: 9,
                deferred: 3,
                denied: 2,
                preempted: 1,
                queue_depth: 4,
            }),
            ..Default::default()
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"fleet\""), "{json}");
        assert!(json.contains("\"queue_depth\":4"), "{json}");
        let back: ServiceStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
        // A pre-fleet stats line (no `fleet` field at all) still parses.
        let legacy: ServiceStats = serde_json::from_str(
            r#"{"live_sessions":1,"queued":0,"evicted":0,"cache_hits":0,"cache_misses":0,
                "grid_hits":0,"grid_misses":0,"group_commit":false,"journal_groups":0,
                "journal_records":0,"journal_checkpoints":0,"sim_events":[]}"#,
        )
        .unwrap();
        assert!(legacy.fleet.is_none());
        assert_eq!(legacy.live_sessions, 1);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(SubmitSpec::new("nope", "heterbo", 1).validate().is_err());
        assert!(SubmitSpec::new("char-rnn", "nope", 1).validate().is_err());
        let both =
            SubmitSpec::new("char-rnn", "heterbo", 1).with_budget(10.0).with_deadline_hours(5.0);
        assert!(both.validate().is_err());
        let nan = SubmitSpec::new("char-rnn", "heterbo", 1).with_budget(f64::NAN);
        assert!(nan.validate().is_err());
        assert!(SubmitSpec::new("char-rnn", "heterbo", 1).validate().is_ok());
    }

    #[test]
    fn requests_round_trip_externally_tagged() {
        let reqs = vec![
            Request::Submit(SubmitSpec::new("resnet-cifar10", "heterbo", 1)),
            Request::Status { id: None },
            Request::Result { id: 3, wait: true },
            Request::Watch { id: 3 },
            Request::Cancel { id: 3 },
            Request::Shutdown,
        ];
        for r in reqs {
            let line = serde_json::to_string(&r).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(r, back, "{line}");
        }
        // The exact wire shapes the `mlcd` client builds by hand.
        assert_eq!(serde_json::to_string(&Request::Shutdown).unwrap(), "\"Shutdown\"");
        assert!(serde_json::to_string(&Request::Status { id: None })
            .unwrap()
            .contains("{\"Status\":{\"id\":null}}"));
    }
}
