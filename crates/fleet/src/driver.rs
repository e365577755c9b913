//! The fleet driver: one thread per tenant, one runnable at a time.
//!
//! [`FleetSim::run`] expands the scenario, boots the shared
//! [`SimCloud`], and moves tenant messages and clock time around the
//! pool's [`Arbiter`], which owns every admission rule. The driver only
//! hands off and advances the clock, in a strict loop:
//!
//! 1. **Arrivals** due at the current instant join the arbiter, spawn
//!    their tenant thread and run it until it blocks (on a launch request
//!    or a time wait).
//! 2. **Wakes**: every tenant whose wake-up instant has been reached is
//!    resumed — exhaustively, one at a time — before any settlement
//!    happens, so the pending-request set at decision time does not
//!    depend on wake order (the drain-order invariance the proptest
//!    pins).
//! 3. **Settlements**: the arbiter settles requests one at a time until
//!    its policy waits. The driver launches each grant itself (so launches,
//!    and with them the shared provisioning RNG draws, happen in
//!    settlement order, never in thread order) and reports the launch
//!    back; a denial fails the tenant's launch with
//!    [`CloudError::Denied`](mlcd_cloudsim::CloudError::Denied).
//! 4. **Advance**: when nothing is runnable, the clock moves to the next
//!    arrival or wake-up, dispatching every sim event in between. If the
//!    pool is wedged (requests pending, nothing to advance to), the
//!    arbiter force-grants the oldest request, whose launch surfaces the
//!    provider's real answer to its tenant.
//!
//! Tenants never touch the engine directly while time moves; the only
//! shared-state calls they make with the clock frozen are terminations,
//! which are order-insensitive at a fixed instant (the fleet digest
//! covers billing sums and per-job outcomes, not event sequence
//! numbers).

use mlcd::prelude::{
    Deployment, ExperimentOutcome, ExperimentRunner, Money, Observation, ProfileError,
    ProfilingEnv, Scenario, SearchSpace, SimDuration, SimTime,
};
use mlcd::search::searcher_by_name;
use mlcd_cloudsim::{SimCloud, SimEvent, SpotMarket};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::arbiter::{Arbiter, Verdict};
use crate::outcome::{aggregate, FleetJobOutcome, FleetOutcome};
use crate::policy::{FleetEventFold, FleetScheduler, JobId, Purpose};
use crate::scenario::{FleetJob, FleetScenario};
use crate::tenant::{DriverReply, TenantCloud, TenantLink, TenantMsg};

/// Tie-break order when several tenants are due to wake at the same
/// instant. The fleet outcome is invariant under this choice (that is a
/// tested property, not an aspiration); the knob exists so the proptest
/// can actually vary it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOrder {
    /// Lowest job id first (the default).
    Ascending,
    /// Highest job id first.
    Descending,
    /// Seeded hash order — an arbitrary but deterministic permutation.
    Interleaved(u64),
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DrainOrder {
    fn pick(self, due: &[JobId]) -> JobId {
        match self {
            DrainOrder::Ascending => *due.iter().min().expect("due set non-empty"),
            DrainOrder::Descending => *due.iter().max().expect("due set non-empty"),
            DrainOrder::Interleaved(salt) => {
                *due.iter().min_by_key(|&&j| (mix(j ^ salt), j)).expect("due set non-empty")
            }
        }
    }
}

/// Serializing wrapper: forces `profile_batch` onto the default
/// sequential path. The profiler's concurrent batch wave computes every
/// member's settlement from one pre-launch timestamp, which is unsound
/// when a mid-batch launch can block on admission for hours — under a
/// fleet, batch members are probed one by one and each one queues at the
/// scheduler individually.
struct SerialEnv<'a, E>(&'a mut E);

impl<E: ProfilingEnv> ProfilingEnv for SerialEnv<'_, E> {
    fn space(&self) -> &SearchSpace {
        self.0.space()
    }
    fn total_samples(&self) -> f64 {
        self.0.total_samples()
    }
    fn quote(&self, d: &Deployment) -> (SimDuration, Money) {
        self.0.quote(d)
    }
    fn profile(&mut self, d: &Deployment) -> Result<Observation, ProfileError> {
        self.0.profile(d)
    }
    fn elapsed(&self) -> SimDuration {
        self.0.elapsed()
    }
    fn spent(&self) -> Money {
        self.0.spent()
    }
}

struct Slot {
    reply: Sender<DriverReply>,
    /// `Some(t)`: sleeping until the clock reaches `t`. `None`: parked
    /// on a launch request at the arbiter, or finished.
    wake_at: Option<SimTime>,
    phase: Purpose,
    /// Written when the tenant finishes; the search outcome joins it at
    /// the end of the run.
    record: Option<FleetJobOutcome>,
    handle: JoinHandle<Option<ExperimentOutcome>>,
}

/// A configured fleet simulation, ready to [`run`](FleetSim::run).
pub struct FleetSim {
    scenario: FleetScenario,
    policy: Box<dyn FleetScheduler>,
    drain: DrainOrder,
}

impl FleetSim {
    /// A fleet over `scenario`, arbitrated by `policy`.
    pub fn new(scenario: FleetScenario, policy: Box<dyn FleetScheduler>) -> FleetSim {
        FleetSim { scenario, policy, drain: DrainOrder::Ascending }
    }

    /// Override the same-instant wake order (outcome-invariant; see
    /// [`DrainOrder`]).
    pub fn with_drain_order(mut self, drain: DrainOrder) -> FleetSim {
        self.drain = drain;
        self
    }

    /// Run the whole fleet to completion.
    pub fn run(self) -> FleetOutcome {
        let FleetSim { scenario, policy, drain } = self;
        let policy_name = policy.name();
        let fleet_jobs = scenario.jobs();
        let mut shared = SimCloud::new(scenario.seed);
        shared.set_market(SpotMarket {
            seed: scenario.seed,
            mode: scenario.market,
            ..SpotMarket::default()
        });
        let mut caps: BTreeMap<_, u32> = BTreeMap::new();
        for &itype in &scenario.types {
            let cap = scenario.cap_for(itype);
            shared.set_capacity(itype, cap);
            caps.insert(itype, cap);
        }

        let (msg_tx, msg_rx) = channel::<TenantMsg>();
        let mut queue: VecDeque<FleetJob> = fleet_jobs.iter().cloned().collect();
        let mut d = Driver {
            shared,
            arbiter: Arbiter::new(policy, caps),
            slots: BTreeMap::new(),
            fold: FleetEventFold::default(),
            msg_rx,
            jobs_by_id: fleet_jobs.into_iter().map(|j| (j.id, j)).collect(),
        };

        loop {
            let now = d.shared.now();

            // 1. Arrivals due at this instant.
            let mut progressed = false;
            while queue.front().is_some_and(|j| j.arrival.as_secs() <= now.as_secs()) {
                let job = queue.pop_front().expect("front checked");
                let id = job.id;
                let deadline_at = match job.scenario {
                    Scenario::CheapestWithDeadline(dl) => Some(job.arrival + dl),
                    _ => None,
                };
                d.arbiter.join(id, job.priority, now, deadline_at);
                let slot = spawn_tenant(
                    job,
                    msg_tx.clone(),
                    d.shared.clone(),
                    scenario.types.clone(),
                    scenario.max_nodes,
                );
                d.slots.insert(id, slot);
                d.emit(SimEvent::JobArrived { job: id });
                d.pump(id);
                progressed = true;
            }

            // 2. Wake every tenant whose instant has come, exhaustively.
            loop {
                let due: Vec<JobId> = d
                    .slots
                    .iter()
                    .filter(|(_, s)| s.wake_at.is_some_and(|t| t.as_secs() <= now.as_secs()))
                    .map(|(id, _)| *id)
                    .collect();
                if due.is_empty() {
                    break;
                }
                let id = drain.pick(&due);
                let slot = d.slots.get_mut(&id).expect("due slot");
                slot.wake_at = None;
                slot.reply.send(DriverReply::Woken).expect("tenant alive");
                d.pump(id);
                progressed = true;
            }

            // 3. Admission decisions at this instant.
            while let Some((id, verdict)) = d.arbiter.settle(&d.shared) {
                d.deliver(id, verdict);
                progressed = true;
            }

            if progressed {
                // Grants/wakes may have produced new due wakes at this
                // same instant; settle them before advancing time.
                continue;
            }

            // 4. Advance the clock (or break the stall, or finish).
            let next_arrival = queue.front().map(|j| j.arrival);
            let target = d
                .slots
                .values()
                .filter_map(|s| s.wake_at)
                .chain(next_arrival)
                .min_by(|a, b| a.as_secs().total_cmp(&b.as_secs()));
            match target {
                Some(t) => {
                    d.shared.run_until(t);
                }
                // Nothing to advance to. If requests are pending the
                // policy has wedged the pool: force the oldest through
                // so the provider's answer unwedges its tenant.
                None => match d.arbiter.force_oldest() {
                    Some((id, verdict)) => d.deliver(id, verdict),
                    None => break, // every tenant done, no arrivals left
                },
            }
        }

        // Collect tenants (all have sent Finished, so joins are instant).
        let mut job_outcomes = Vec::new();
        for (_, slot) in d.slots {
            let mut record = slot.record.expect("every tenant finished");
            record.outcome = slot.handle.join().expect("tenant thread joined");
            job_outcomes.push(record);
        }
        aggregate(policy_name, &scenario, job_outcomes, &d.fold, &d.shared)
    }
}

/// The driver's state for one run.
struct Driver {
    shared: SimCloud,
    arbiter: Arbiter,
    slots: BTreeMap<JobId, Slot>,
    fold: FleetEventFold,
    msg_rx: Receiver<TenantMsg>,
    jobs_by_id: BTreeMap<JobId, FleetJob>,
}

impl Driver {
    /// Record a fleet event and dispatch it through the shared provider.
    fn emit(&mut self, ev: SimEvent) {
        self.fold.on_event(&ev);
        self.shared.emit_now(ev);
    }

    /// Hand a verdict to its tenant. A grant is launched here, by the
    /// driver, so cluster ids and provisioning RNG draws are consumed in
    /// settlement order, never in thread order.
    fn deliver(&mut self, id: JobId, verdict: Verdict) {
        let (res, ev) = match verdict {
            Verdict::Grant(req) => {
                let res = if req.spot {
                    self.shared.launch_spot(req.itype, req.n)
                } else {
                    self.shared.launch(req.itype, req.n)
                };
                let ev =
                    self.arbiter.on_launch(id, res.as_ref().ok().map(|c| c.id), self.shared.now());
                (res, ev.expect("fleet protocol: a grant settles on its launch"))
            }
            Verdict::Deny => (Err(Verdict::denial()), SimEvent::ProbeDenied { job: id }),
        };
        self.emit(ev);
        let slot = self.slots.get_mut(&id).expect("settled slot");
        slot.reply.send(DriverReply::Launched(res)).expect("tenant alive");
        self.pump(id);
    }

    /// Receive messages from the just-woken tenant until it parks again
    /// (request, sleep or exit). Strict handoff guarantees the next
    /// message can only come from that tenant.
    fn pump(&mut self, expected: JobId) {
        loop {
            let msg = self.msg_rx.recv().expect("a runnable tenant exists");
            let now = self.shared.now();
            match msg {
                TenantMsg::Launch { job, itype, n, spot } => {
                    debug_assert_eq!(job, expected, "handoff violated");
                    let phase = self.slots.get(&job).expect("known job").phase;
                    self.arbiter.request(job, itype, n, spot, phase, now);
                    return;
                }
                TenantMsg::BlockUntil { job, until } => {
                    debug_assert_eq!(job, expected, "handoff violated");
                    self.slots.get_mut(&job).expect("known job").wake_at = Some(until);
                    return;
                }
                TenantMsg::SearchDone { job } => {
                    debug_assert_eq!(job, expected, "handoff violated");
                    let slot = self.slots.get_mut(&job).expect("known job");
                    slot.phase = Purpose::Train;
                    slot.reply.send(DriverReply::Woken).expect("tenant alive");
                    // The tenant continues straight into training; keep
                    // pumping until it parks.
                }
                TenantMsg::Finished { job } => {
                    debug_assert_eq!(job, expected, "handoff violated");
                    let spec = self.jobs_by_id.get(&job).expect("known job");
                    let missed = match spec.scenario {
                        Scenario::CheapestWithDeadline(d) => {
                            now.since(spec.arrival).as_secs() > d.as_secs()
                        }
                        _ => false,
                    };
                    let account = self.arbiter.leave(job).expect("arrived job");
                    self.slots.get_mut(&job).expect("known job").record = Some(FleetJobOutcome {
                        id: job,
                        priority: spec.priority,
                        arrived_at: spec.arrival,
                        completed_at: now,
                        queue_wait: account.queue_wait,
                        granted: account.ctx.granted,
                        denied: account.ctx.denied,
                        missed,
                        outcome: None,
                    });
                    self.emit(SimEvent::JobCompleted { job, missed });
                    return;
                }
            }
        }
    }
}

/// Boot one tenant thread running the unmodified single-job pipeline
/// over a [`TenantCloud`].
fn spawn_tenant(
    job: FleetJob,
    msg_tx: Sender<TenantMsg>,
    shared: SimCloud,
    types: Vec<mlcd::prelude::InstanceType>,
    max_nodes: u32,
) -> Slot {
    let (reply_tx, reply_rx) = channel::<DriverReply>();
    let id = job.id;
    let finish_tx = msg_tx.clone();
    let handle = std::thread::spawn(move || {
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let link = TenantLink { job: job.id, tx: msg_tx, rx: reply_rx };
            let cloud = TenantCloud::new(link, shared);
            let runner =
                ExperimentRunner::new(job.seed).with_types(types).with_max_nodes(max_nodes);
            let space = runner.space(&job.job);
            let mut profiler = runner.profiler_on_cloud(&job.job, space, cloud);
            let searcher =
                searcher_by_name(job.searcher, job.seed).expect("scenario names a known searcher");
            let outcome = {
                let mut env = SerialEnv(&mut profiler);
                searcher.search(&mut env, &job.scenario)
            };
            profiler.cloud().mark_search_done();
            runner.complete(profiler, outcome, searcher.name(), &job.scenario)
        }));
        let _ = finish_tx.send(TenantMsg::Finished { job: id });
        body.ok()
    });
    Slot {
        reply: reply_tx,
        wake_at: None, // the arrival step pumps its first message directly
        phase: Purpose::Probe,
        record: None,
        handle,
    }
}
