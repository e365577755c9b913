//! The fleet driver: one thread per tenant, one runnable at a time.
//!
//! One driver loop serves both runtimes. [`FleetSim::run`] expands a
//! scenario and queues every job at its arrival instant before the loop
//! starts; [`OpenFleet`] runs the loop on its own thread for
//! `mlcd-serve --fleet`, whose sessions arrive while it runs. Either way
//! the driver moves tenant messages and clock time around the pool's
//! [`Arbiter`], which owns every admission rule. The driver only hands
//! off and advances the clock, in a strict loop:
//!
//! 1. **Arrivals** reach the driver as messages carrying their instant
//!    (a fixed [`SimTime`] for scenario jobs, "now" for service
//!    sessions, stamped with the clock when the driver takes them in)
//!    and the driver's end of the tenant's reply channel. Each arrival
//!    due at the current instant joins the arbiter and is admitted with
//!    a `Woken` reply; its tenant then runs until it blocks (on a launch
//!    request or a time wait).
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
//!    provider's real answer to its tenant. With no tenant and nothing
//!    queued, the driver blocks on its arrival channel, and exits once
//!    every sender is gone.
//!
//! Tenants never touch the engine directly while time moves; the only
//! shared-state calls they make with the clock frozen are terminations,
//! which are order-insensitive at a fixed instant (the fleet digest
//! covers billing sums and per-job outcomes, not event sequence
//! numbers).

use mlcd::prelude::{ExperimentOutcome, ExperimentRunner, InstanceType, SimDuration, SimTime};
use mlcd::search::searcher_by_name;
use mlcd_cloudsim::{EventKind, MarketMode, SimCloud, SimEvent, SpotMarket};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::arbiter::{Arbiter, Verdict};
use crate::outcome::{aggregate, FleetJobOutcome, FleetOutcome};
use crate::policy::{FleetEventFold, FleetScheduler, JobId, Purpose};
use crate::scenario::{FleetJob, FleetScenario};
use crate::tenant::{DriverReply, SerialEnv, TenantCloud, TenantLink, TenantMsg};

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

/// Boot a shared pool: a provider seeded with `seed`, its spot market
/// seeded the same way and priced by `market`, and each `(type, cap)`
/// applied in order. Returns the provider and the caps for the
/// [`Arbiter`].
pub fn boot_pool(
    seed: u64,
    market: MarketMode,
    caps: impl IntoIterator<Item = (InstanceType, u32)>,
) -> (SimCloud, BTreeMap<InstanceType, u32>) {
    let mut shared = SimCloud::new(seed);
    shared.set_market(SpotMarket { seed, mode: market, ..SpotMarket::default() });
    let mut capped = BTreeMap::new();
    for (itype, cap) in caps {
        shared.set_capacity(itype, cap);
        capped.insert(itype, cap);
    }
    (shared, capped)
}

/// Admission counters of a running pool, as its driver last published
/// them (after every settlement round and every finished tenant).
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetCounters {
    /// Launches granted (probes + training runs), minus grants whose
    /// launch failed at the provider.
    pub admitted: u64,
    /// Granted requests that waited simulated time for admission.
    pub deferred: u64,
    /// Requests refused: policy denials, and granted launches the
    /// provider failed.
    pub denied: u64,
    /// Spot revocations dispatched on the shared pool.
    pub preempted: u64,
    /// Requests currently waiting at the arbiter.
    pub queue_depth: u64,
}

/// One tenant's arrival message.
struct Arrival {
    job: JobId,
    /// `Some(t)`: a scenario job due at `t`. `None`: arrives at the
    /// driver's clock when the driver takes the message in.
    at: Option<SimTime>,
    priority: u8,
    deadline: Option<SimDuration>,
    /// The driver's end of the tenant's reply channel.
    reply: Sender<DriverReply>,
}

/// The tenants' way into a driver: its arrival channel, its message
/// channel and the shared pool.
struct Inbox {
    arrivals: Sender<Arrival>,
    msgs: Sender<TenantMsg>,
    shared: SimCloud,
}

impl Inbox {
    /// Queue `job`'s arrival. The tenant starts once
    /// [`TenantCloud::admit`] sees the driver's admission.
    fn queue(
        &self,
        job: JobId,
        at: Option<SimTime>,
        priority: u8,
        deadline: Option<SimDuration>,
    ) -> TenantLink {
        let (reply, rx) = channel();
        self.arrivals
            .send(Arrival { job, at, priority, deadline, reply })
            .expect("fleet driver hung up");
        TenantLink { job, tx: self.msgs.clone(), rx }
    }
}

struct Slot {
    reply: Sender<DriverReply>,
    /// `Some(t)`: sleeping until the clock reaches `t`. `None`: parked
    /// on a launch request at the arbiter.
    wake_at: Option<SimTime>,
    phase: Purpose,
    priority: u8,
    arrived_at: SimTime,
    deadline: Option<SimDuration>,
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
        let (shared, caps) = boot_pool(
            scenario.seed,
            scenario.market,
            scenario.types.iter().map(|&t| (t, scenario.cap_for(t))),
        );
        let (inbox, mut d) = Driver::new(shared, Arbiter::new(policy, caps), drain, None);
        d.finished = Some(Vec::new());

        // Every job is queued before the loop starts, so the driver sees
        // the whole arrival list from its first step.
        let mut tenants = BTreeMap::new();
        for job in scenario.jobs() {
            let deadline = job.scenario.deadline();
            let link = inbox.queue(job.id, Some(job.arrival), job.priority, deadline);
            let (id, shared) = (job.id, inbox.shared.clone());
            let handle =
                spawn_tenant(job, link, shared, scenario.types.clone(), scenario.max_nodes);
            tenants.insert(id, handle);
        }
        drop(inbox);
        d.run();

        // Every tenant has finished, so the joins are instant.
        let mut job_outcomes = d.finished.take().unwrap_or_default();
        for record in &mut job_outcomes {
            record.outcome = tenants.remove(&record.id).and_then(|h| h.join().ok());
        }
        aggregate(policy_name, &scenario, job_outcomes, &d.fold, &d.shared)
    }
}

/// A fleet driver on its own thread, open to tenants that arrive while
/// it runs: `mlcd-serve --fleet`'s runtime. Each arrival is stamped with
/// the driver's clock when the driver takes it in. The driver exits once
/// this handle is dropped and its last tenant has finished.
pub struct OpenFleet {
    inbox: Inbox,
    policy: &'static str,
    counters: Arc<Mutex<FleetCounters>>,
}

impl OpenFleet {
    /// Start a driver over `shared`, arbitrated by `arbiter`.
    pub fn start(shared: SimCloud, arbiter: Arbiter) -> OpenFleet {
        let counters = Arc::new(Mutex::new(FleetCounters::default()));
        let policy = arbiter.policy_name();
        let (inbox, mut d) =
            Driver::new(shared, arbiter, DrainOrder::Ascending, Some(Arc::clone(&counters)));
        std::thread::spawn(move || d.run());
        OpenFleet { inbox, policy, counters }
    }

    /// Arrive now as tenant `job`, with an optional deadline measured
    /// from arrival. Blocks until the driver admits the tenant; the
    /// returned cloud is its way to the pool, and dropping it leaves.
    pub fn arrive(&self, job: JobId, priority: u8, deadline: Option<SimDuration>) -> TenantCloud {
        let link = self.inbox.queue(job, None, priority, deadline);
        TenantCloud::admit(link, self.inbox.shared.clone())
    }

    /// The arbitrating policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy
    }

    /// The counters the driver last published.
    pub fn counters(&self) -> FleetCounters {
        *self.counters.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The driver's state for one run.
struct Driver {
    shared: SimCloud,
    arbiter: Arbiter,
    drain: DrainOrder,
    slots: BTreeMap<JobId, Slot>,
    fold: FleetEventFold,
    msg_rx: Receiver<TenantMsg>,
    arrivals: Receiver<Arrival>,
    /// Arrivals taken in but not yet due, with their instants, in the
    /// order received.
    queued: VecDeque<(SimTime, Arrival)>,
    /// Finished tenants' records, when the caller keeps them.
    finished: Option<Vec<FleetJobOutcome>>,
    /// Where counters are published, when someone reads them live.
    published: Option<Arc<Mutex<FleetCounters>>>,
}

impl Driver {
    fn new(
        shared: SimCloud,
        arbiter: Arbiter,
        drain: DrainOrder,
        published: Option<Arc<Mutex<FleetCounters>>>,
    ) -> (Inbox, Driver) {
        let (arrivals, arrival_rx) = channel();
        let (msgs, msg_rx) = channel();
        let inbox = Inbox { arrivals, msgs, shared: shared.clone() };
        let d = Driver {
            shared,
            arbiter,
            drain,
            slots: BTreeMap::new(),
            fold: FleetEventFold::default(),
            msg_rx,
            arrivals: arrival_rx,
            queued: VecDeque::new(),
            finished: None,
            published,
        };
        (inbox, d)
    }

    /// The strict loop (module docs), until every arrival sender is gone
    /// and every tenant has finished.
    fn run(&mut self) {
        loop {
            let now = self.shared.now();

            // 1. Arrivals due at this instant.
            while let Ok(arrival) = self.arrivals.try_recv() {
                self.take_in(arrival, now);
            }
            let mut progressed = false;
            while let Some(i) = self.queued.iter().position(|(at, _)| at.as_secs() <= now.as_secs())
            {
                let (at, arrival) = self.queued.remove(i).expect("position is in range");
                self.admit(at, arrival, now);
                progressed = true;
            }

            // 2. Wake every tenant whose instant has come, exhaustively.
            loop {
                let due: Vec<JobId> = self
                    .slots
                    .iter()
                    .filter(|(_, s)| s.wake_at.is_some_and(|t| t.as_secs() <= now.as_secs()))
                    .map(|(id, _)| *id)
                    .collect();
                if due.is_empty() {
                    break;
                }
                let id = self.drain.pick(&due);
                let slot = self.slots.get_mut(&id).expect("due slot");
                slot.wake_at = None;
                slot.reply.send(DriverReply::Woken).expect("tenant alive");
                self.pump(id);
                progressed = true;
            }

            // 3. Admission decisions at this instant.
            while let Some((id, verdict)) = self.arbiter.settle(&self.shared) {
                self.deliver(id, verdict);
                progressed = true;
            }

            if progressed {
                // Grants/wakes may have produced new due wakes at this
                // same instant; settle them before advancing time.
                continue;
            }

            // 4. Advance the clock (or break the stall, or wait for an
            // arrival, or finish).
            self.publish();
            let target = self
                .slots
                .values()
                .filter_map(|s| s.wake_at)
                .chain(self.queued.iter().map(|(at, _)| *at))
                .min_by(|a, b| a.as_secs().total_cmp(&b.as_secs()));
            match target {
                Some(t) => {
                    self.shared.run_until(t);
                }
                // Nothing to advance to. If requests are pending the
                // policy has wedged the pool: force the oldest through
                // so the provider's answer unwedges its tenant.
                None => match self.arbiter.force_oldest() {
                    Some((id, verdict)) => self.deliver(id, verdict),
                    // Every tenant is done: wait for the next arrival.
                    None => match self.arrivals.recv() {
                        Ok(arrival) => self.take_in(arrival, now),
                        Err(_) => break,
                    },
                },
            }
        }
    }

    /// Queue an arrival at its instant; "now" arrivals are stamped with
    /// the current clock.
    fn take_in(&mut self, arrival: Arrival, now: SimTime) {
        self.queued.push_back((arrival.at.unwrap_or(now), arrival));
    }

    /// Admit a due arrival: it joins the arbiter, and its tenant runs
    /// until it parks.
    fn admit(&mut self, at: SimTime, arrival: Arrival, now: SimTime) {
        let Arrival { job, priority, deadline, reply, .. } = arrival;
        self.arbiter.join(job, priority, now, deadline.map(|dl| at + dl));
        self.emit(SimEvent::JobArrived { job });
        reply.send(DriverReply::Woken).expect("tenant alive");
        let slot = Slot {
            reply,
            wake_at: None,
            phase: Purpose::Probe,
            priority,
            arrived_at: at,
            deadline,
        };
        self.slots.insert(job, slot);
        self.pump(job);
    }

    /// Record a fleet event and dispatch it through the shared provider.
    fn emit(&mut self, ev: SimEvent) {
        self.fold.on_event(&ev);
        self.shared.emit_now(ev);
    }

    /// Publish the counters, when someone reads them live.
    fn publish(&self) {
        if let Some(out) = &self.published {
            let counters = FleetCounters {
                admitted: self.arbiter.granted(),
                deferred: self.fold.deferred,
                denied: self.arbiter.denied(),
                preempted: self.shared.event_counters().dispatched(EventKind::SpotRevoked),
                queue_depth: self.arbiter.pending_len() as u64,
            };
            *out.lock().unwrap_or_else(PoisonError::into_inner) = counters;
        }
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
                    let slot = self.slots.remove(&job).expect("known job");
                    let missed = slot
                        .deadline
                        .is_some_and(|dl| now.since(slot.arrived_at).as_secs() > dl.as_secs());
                    let account = self.arbiter.leave(job).expect("arrived job");
                    if let Some(finished) = &mut self.finished {
                        finished.push(FleetJobOutcome {
                            id: job,
                            priority: slot.priority,
                            arrived_at: slot.arrived_at,
                            completed_at: now,
                            queue_wait: account.queue_wait,
                            granted: account.ctx.granted,
                            denied: account.ctx.denied,
                            missed,
                            outcome: None,
                        });
                    }
                    self.emit(SimEvent::JobCompleted { job, missed });
                    self.publish();
                    let _ = slot.reply.send(DriverReply::Woken);
                    return;
                }
            }
        }
    }
}

/// Boot one scenario tenant thread: once admitted, it runs the
/// unmodified single-job pipeline over its [`TenantCloud`].
fn spawn_tenant(
    job: FleetJob,
    link: TenantLink,
    shared: SimCloud,
    types: Vec<InstanceType>,
    max_nodes: u32,
) -> JoinHandle<ExperimentOutcome> {
    std::thread::spawn(move || {
        let cloud = TenantCloud::admit(link, shared);
        let runner = ExperimentRunner::new(job.seed).with_types(types).with_max_nodes(max_nodes);
        let space = runner.space(&job.job);
        let mut profiler = runner.profiler_on_cloud(&job.job, space, cloud);
        let searcher =
            searcher_by_name(job.searcher, job.seed).expect("scenario names a known searcher");
        let outcome = searcher.search(&mut SerialEnv(&mut profiler), &job.scenario);
        profiler.cloud().mark_search_done();
        runner.complete(profiler, outcome, searcher.name(), &job.scenario)
    })
}
