//! Structured search-trace events.
//!
//! The [`crate::search::kernel::SearchKernel`] narrates every decision it
//! takes — init probes, candidate scores, prunes, reserve blocks,
//! incumbent changes, the stop — as [`TraceEvent`]s pushed into a
//! [`TraceSink`]. The trace is pure observation: recording it never
//! perturbs the search (the golden snapshot tests pin this), so the same
//! kernel run can be silent ([`NullSink`]) or fully narrated
//! ([`SearchTrace`]) with bit-identical outcomes.

use crate::deployment::Deployment;
use crate::observation::{Observation, StopReason};
use mlcd_cloudsim::{Money, SimDuration};
use serde::{Deserialize, Serialize};

/// Why the kernel discarded a candidate before probing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PruneReason {
    /// The TEI filter (paper eqs. 5–6): even at an optimistic speed the
    /// candidate could not finish within the remaining deadline/budget
    /// after paying its own probing cost.
    TeiInfeasible,
    /// The concave scale-out prior observed a speed decline for this
    /// type and capped all larger scale-outs.
    ConcavePrior,
}

/// One event of the kernel's structured trace, in emission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An initialisation probe completed.
    InitProbe {
        /// What the probe observed.
        observation: Observation,
        /// Profiling wall-clock so far, including this probe.
        cum_profile_time: SimDuration,
        /// Profiling spend so far, including this probe.
        cum_profile_cost: Money,
    },
    /// A BO-loop probe completed.
    Probe {
        /// What the probe observed.
        observation: Observation,
        /// Profiling wall-clock so far, including this probe.
        cum_profile_time: SimDuration,
        /// Profiling spend so far, including this probe.
        cum_profile_cost: Money,
    },
    /// The environment refused a probe (quota, spot revocation…).
    ProbeFailed {
        /// The deployment whose probe failed.
        deployment: Deployment,
        /// The environment's error, rendered.
        error: String,
    },
    /// The acquisition policy scored a candidate.
    CandidateScored {
        /// The candidate.
        deployment: Deployment,
        /// Expected improvement in the scenario's utility units (for
        /// frontier candidates: the discounted scaling bonus).
        ei: f64,
        /// Probability of a meaningful improvement (1.0 for frontier
        /// candidates, which bypass the GP).
        poi: f64,
        /// Final rank score: `ei` divided by the probing-cost penalty.
        score: f64,
    },
    /// A candidate was discarded without probing.
    CandidatePruned {
        /// The discarded candidate.
        deployment: Deployment,
        /// Why it was discarded.
        reason: PruneReason,
    },
    /// A pruner capped a type's scale-out (concave prior bend observed).
    ScaleOutCapped {
        /// The instance type whose curve bent.
        itype: mlcd_cloudsim::InstanceType,
        /// Scale-outs strictly above this node count are pruned.
        cap: u32,
    },
    /// The protective reserve refused to start a probe.
    ReserveBlocked {
        /// The candidate the reserve blocked.
        deployment: Deployment,
    },
    /// The incumbent strictly improved on the best traced so far.
    ///
    /// Emitted only for strict utility improvements, so consecutive
    /// events form a monotone increasing utility sequence even when
    /// feasibility-aware ranking temporarily demotes the incumbent.
    IncumbentChanged {
        /// The new incumbent observation.
        observation: Observation,
        /// Its utility under the scenario's objective.
        utility: f64,
    },
    /// The search ended.
    Stopped {
        /// Why it ended.
        reason: StopReason,
    },
}

/// Receives trace events as the kernel emits them.
pub trait TraceSink {
    /// Record one event.
    fn record(&mut self, event: TraceEvent);

    /// Whether this sink keeps what it is given. The kernel skips work
    /// whose only use is an event field (each scored candidate's POI) for
    /// a sink that returns `false`; the events themselves are still
    /// recorded, and the search's decisions never depend on the answer.
    fn keeps_events(&self) -> bool {
        true
    }
}

/// Discards every event — the sink for untraced searches. It reports that
/// it keeps nothing, so the kernel does not compute the trace-only fields
/// it would throw away.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}

    fn keeps_events(&self) -> bool {
        false
    }
}

/// An in-memory event stream collected from one search.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SearchTrace {
    /// Every event, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for SearchTrace {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

impl SearchTrace {
    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every probe observation (init sweep and BO loop), in probe order.
    pub fn probes(&self) -> impl Iterator<Item = &Observation> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::InitProbe { observation, .. } | TraceEvent::Probe { observation, .. } => {
                Some(observation)
            }
            _ => None,
        })
    }

    /// The cumulative profiling spend after the last traced probe.
    pub fn final_probe_spend(&self) -> Option<Money> {
        self.events.iter().rev().find_map(|e| match e {
            TraceEvent::InitProbe { cum_profile_cost, .. }
            | TraceEvent::Probe { cum_profile_cost, .. } => Some(*cum_profile_cost),
            _ => None,
        })
    }

    /// The traced stop reason, if the search ran to completion.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.events.iter().rev().find_map(|e| match e {
            TraceEvent::Stopped { reason } => Some(*reason),
            _ => None,
        })
    }

    /// The utilities of the incumbent-change events, in order.
    pub fn incumbent_utilities(&self) -> Vec<f64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::IncumbentChanged { utility, .. } => Some(*utility),
                _ => None,
            })
            .collect()
    }

    /// Render the stream as JSON Lines — one event object per line, the
    /// format `mlcd search --trace <path>` writes and the service journal
    /// extends. A serialisation failure surfaces as an error instead of a
    /// panic so a long-running server can degrade the one session rather
    /// than lose a worker thread.
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&serde_json::to_string(e)?);
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcd_cloudsim::InstanceType;

    fn obs(n: u32, speed: f64) -> Observation {
        Observation {
            deployment: Deployment::new(InstanceType::C5Xlarge, n),
            speed,
            profile_time: SimDuration::from_mins(10.0),
            profile_cost: Money::from_dollars(0.5),
        }
    }

    #[test]
    fn sink_collects_in_order_and_jsonl_is_one_object_per_line() {
        let mut t = SearchTrace::default();
        t.record(TraceEvent::InitProbe {
            observation: obs(1, 100.0),
            cum_profile_time: SimDuration::from_mins(10.0),
            cum_profile_cost: Money::from_dollars(0.5),
        });
        t.record(TraceEvent::Stopped { reason: StopReason::Converged });
        assert_eq!(t.len(), 2);
        assert_eq!(t.probes().count(), 1);
        assert_eq!(t.stop_reason(), Some(StopReason::Converged));
        assert_eq!(t.final_probe_spend(), Some(Money::from_dollars(0.5)));
        let jsonl = t.to_jsonl().unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(matches!(v, serde_json::Value::Object(_)));
        }
    }

    #[test]
    fn null_sink_discards_and_says_so() {
        let mut s = NullSink;
        s.record(TraceEvent::Stopped { reason: StopReason::MaxSteps });
        assert!(!s.keeps_events());
        assert!(SearchTrace::default().keeps_events());
    }

    #[test]
    fn incumbent_utilities_in_order() {
        let mut t = SearchTrace::default();
        for (u, speed) in [(1.0, 10.0), (2.0, 20.0)] {
            t.record(TraceEvent::IncumbentChanged { observation: obs(1, speed), utility: u });
        }
        assert_eq!(t.incumbent_utilities(), vec![1.0, 2.0]);
    }

    #[test]
    fn trace_event_stays_small() {
        // A planning service retains finished sessions' traces inline,
        // so every retained event costs exactly this many bytes; a fat
        // new variant would inflate every retained session.
        assert!(std::mem::size_of::<TraceEvent>() <= 56, "{}", std::mem::size_of::<TraceEvent>());
    }
}
