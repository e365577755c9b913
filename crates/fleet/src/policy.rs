//! Fleet schedulers: who gets the next cluster, and who waits.
//!
//! Everything in this file is *pure*: policies compute a [`Decision`]
//! from an immutable [`FleetView`], and the event fold turns dispatched
//! sim events into counters. No I/O, no clocks, no locks, no channels —
//! this file is pinned under mlcd-lint's R8 sim-handler purity rule, so
//! the driver's blocking machinery must live elsewhere.

use mlcd_cloudsim::{InstanceType, Money, SimDuration, SimEvent, SimTime};
use std::collections::BTreeMap;

/// Fleet-assigned job identifier (arrival order).
pub type JobId = u64;

/// Why a tenant wants a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// An exploration probe issued by the search phase.
    Probe,
    /// The final training run on the chosen deployment. Policies may
    /// defer trainings behind capacity, but must never [`Decision::Deny`]
    /// them — a denied training forfeits the whole search investment.
    Train,
}

/// One tenant's pending launch request, as the scheduler sees it.
#[derive(Debug, Clone, Copy)]
pub struct PendingReq {
    /// Requested instance type.
    pub itype: InstanceType,
    /// Requested node count.
    pub n: u32,
    /// Whether the tenant asked for spot capacity.
    pub spot: bool,
    /// Probe or final training.
    pub purpose: Purpose,
    /// When the request was issued (queueing delay is measured from
    /// here).
    pub requested_at: SimTime,
    /// Heuristic upper bound on what granting this will cost (on-demand
    /// rate × nodes × quoted probe duration). The cost-cooled policy
    /// throttles on this.
    pub quoted_cost: Money,
}

/// Per-job context the scheduler may weigh.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// Scenario priority (higher is more important).
    pub priority: u8,
    /// When the job arrived.
    pub arrived_at: SimTime,
    /// Absolute deadline instant, if the job's scenario has one.
    pub deadline_at: Option<SimTime>,
    /// Money this job has spent on the pool so far.
    pub spent: Money,
    /// Launches granted to this job so far.
    pub granted: u32,
    /// Launches denied to this job so far.
    pub denied: u32,
}

/// Immutable scheduler input: the pool and queue state at one instant.
#[derive(Debug)]
pub struct FleetView<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Configured capacity per instance type.
    pub caps: &'a BTreeMap<InstanceType, u32>,
    /// Instances currently free per type.
    pub free: &'a BTreeMap<InstanceType, u32>,
    /// Pending requests, one per job (a tenant blocks until its request
    /// settles, so it can never have two in flight).
    pub pending: &'a BTreeMap<JobId, PendingReq>,
    /// Context for every live job.
    pub jobs: &'a BTreeMap<JobId, JobCtx>,
}

impl FleetView<'_> {
    /// Whether `req` fits the free capacity right now.
    pub fn fits(&self, req: &PendingReq) -> bool {
        self.free.get(&req.itype).copied().unwrap_or(0) >= req.n
    }

    /// Total nodes demanded by pending probe requests.
    pub fn pending_probe_nodes(&self) -> u32 {
        self.pending.values().filter(|r| r.purpose == Purpose::Probe).map(|r| r.n).sum()
    }

    /// Total free nodes across all capped types.
    pub fn free_nodes(&self) -> u32 {
        self.free.values().sum()
    }
}

/// One scheduling step's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Launch this job's pending request now.
    Grant(JobId),
    /// Refuse this job's pending request outright (the tenant sees a
    /// failed launch and its searcher drops the candidate).
    Deny(JobId),
    /// Nothing should be admitted at this instant; let time advance.
    Wait,
}

/// A cross-job admission policy. The driver calls [`decide`] repeatedly
/// at each instant until it returns [`Decision::Wait`]; every grant or
/// denial updates the view before the next call.
///
/// [`decide`]: FleetScheduler::decide
pub trait FleetScheduler: Send {
    /// Stable policy name (CLI flag value, digest header, bench label).
    fn name(&self) -> &'static str;
    /// Pick at most one request to settle at this instant.
    fn decide(&mut self, view: &FleetView<'_>) -> Decision;
}

/// The policy names [`policy_by_name`] resolves, in display order.
pub const POLICY_NAMES: [&str; 3] = ["fifo", "deadline", "fairshare"];

/// Construct a policy from its CLI name with default parameters.
pub fn policy_by_name(name: &str) -> Option<Box<dyn FleetScheduler>> {
    Some(match name {
        "fifo" => Box::new(FifoGreedy),
        "deadline" => Box::new(DeadlineAware::default()),
        "fairshare" => Box::new(CostCooledFairShare::default()),
        _ => return None,
    })
}

/// Sort key: request age then job id, so ties never depend on map
/// insertion history.
fn fifo_key(req: &PendingReq, job: JobId) -> (u64, JobId) {
    (req.requested_at.as_secs().to_bits(), job)
}

/// Baseline: strict arrival order, head-of-line blocking. The oldest
/// pending request is granted iff it fits; everything younger waits
/// behind it (the convoy effect is the point — this is the policy the
/// smarter ones must beat).
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoGreedy;

impl FleetScheduler for FifoGreedy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn decide(&mut self, view: &FleetView<'_>) -> Decision {
        let oldest = view.pending.iter().min_by_key(|(job, req)| fifo_key(req, **job));
        match oldest {
            Some((job, req)) if view.fits(req) => Decision::Grant(*job),
            _ => Decision::Wait,
        }
    }
}

/// Priority/deadline-aware admission with per-type capacity
/// reservations: requests are ordered by (priority desc, deadline slack
/// asc), and jobs with no deadline may only consume capacity down to a
/// reserved floor, keeping headroom for deadline traffic. Trainings
/// bypass the reservation — the investment is already sunk.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineAware {
    /// Fraction of each type's capacity held back from no-deadline jobs.
    pub reserve_frac: f64,
}

impl Default for DeadlineAware {
    fn default() -> Self {
        DeadlineAware { reserve_frac: 0.25 }
    }
}

impl FleetScheduler for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn decide(&mut self, view: &FleetView<'_>) -> Decision {
        // Order: priority desc, slack asc (tightest deadline first),
        // then FIFO key for determinism.
        let mut order: Vec<(JobId, &PendingReq)> =
            view.pending.iter().map(|(j, r)| (*j, r)).collect();
        order.sort_by(|a, b| {
            let ctx = |j: JobId| view.jobs.get(&j).copied();
            let (ca, cb) = (ctx(a.0), ctx(b.0));
            let prio = |c: Option<JobCtx>| c.map(|c| c.priority).unwrap_or(0);
            let slack = |c: Option<JobCtx>| {
                c.and_then(|c| c.deadline_at)
                    .map(|d| d.since(view.now).as_secs())
                    .unwrap_or(f64::INFINITY)
            };
            prio(cb)
                .cmp(&prio(ca))
                .then(slack(ca).total_cmp(&slack(cb)))
                .then(fifo_key(a.1, a.0).cmp(&fifo_key(b.1, b.0)))
        });
        for (job, req) in order {
            if !view.fits(req) {
                continue;
            }
            let has_deadline = view.jobs.get(&job).and_then(|c| c.deadline_at).is_some();
            if req.purpose == Purpose::Train || has_deadline {
                return Decision::Grant(job);
            }
            // No-deadline probe: must leave the reserved floor free.
            let cap = view.caps.get(&req.itype).copied().unwrap_or(0);
            let free = view.free.get(&req.itype).copied().unwrap_or(0);
            let reserve = (f64::from(cap) * self.reserve_frac).ceil() as u32;
            if free.saturating_sub(req.n) >= reserve {
                return Decision::Grant(job);
            }
        }
        Decision::Wait
    }
}

/// Cost-cooled fair share: prefers the job that has spent the least so
/// far, and under contention *denies* exploration probes whose quoted
/// cost exceeds a cooling threshold — expensive probes are exactly the
/// ones worth skipping when the pool is scarce (the paper's
/// heterogeneous-cost argument at fleet scale). Trainings are never
/// denied and always scheduled first.
#[derive(Debug, Clone, Copy)]
pub struct CostCooledFairShare {
    /// Probe-cost ceiling when the pool is idle, USD. The effective
    /// ceiling cools as `base / (1 + contention)` where contention is
    /// pending probe demand over free nodes.
    pub base_ceiling_usd: f64,
}

impl Default for CostCooledFairShare {
    fn default() -> Self {
        CostCooledFairShare { base_ceiling_usd: 2.0 }
    }
}

impl FleetScheduler for CostCooledFairShare {
    fn name(&self) -> &'static str {
        "fairshare"
    }

    fn decide(&mut self, view: &FleetView<'_>) -> Decision {
        // Trainings first, in FIFO order.
        let mut trains: Vec<(JobId, &PendingReq)> = view
            .pending
            .iter()
            .filter(|(_, r)| r.purpose == Purpose::Train)
            .map(|(j, r)| (*j, r))
            .collect();
        trains.sort_by_key(|(j, r)| fifo_key(r, *j));
        if let Some((job, _)) = trains.iter().find(|(_, r)| view.fits(r)) {
            return Decision::Grant(*job);
        }

        // Cooling: the more probe demand outstrips free capacity, the
        // lower the admissible probe cost.
        let contention =
            f64::from(view.pending_probe_nodes()) / f64::from(view.free_nodes().max(1));
        let ceiling = self.base_ceiling_usd / (1.0 + contention);
        let mut probes: Vec<(JobId, &PendingReq)> = view
            .pending
            .iter()
            .filter(|(_, r)| r.purpose == Purpose::Probe)
            .map(|(j, r)| (*j, r))
            .collect();
        // Deny the first over-ceiling probe (deterministic order) —
        // one settlement per decide call keeps the view honest.
        probes.sort_by_key(|(j, r)| fifo_key(r, *j));
        if let Some((job, _)) = probes.iter().find(|(_, r)| r.quoted_cost.dollars() > ceiling) {
            return Decision::Deny(*job);
        }
        // Fair share among the survivors: least-spent job first.
        probes.sort_by(|a, b| {
            let spent = |j: JobId| view.jobs.get(&j).map(|c| c.spent.dollars()).unwrap_or(0.0);
            spent(a.0).total_cmp(&spent(b.0)).then(fifo_key(a.1, a.0).cmp(&fifo_key(b.1, b.0)))
        });
        match probes.iter().find(|(_, r)| view.fits(r)) {
            Some((job, _)) => Decision::Grant(*job),
            None => Decision::Wait,
        }
    }
}

/// Pure fold of fleet sim events into counters — the scheduler-side
/// event handler pinned under the R8 purity rule. The driver feeds it
/// every event it emits; tests and the service stats path read the
/// totals.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct FleetEventFold {
    /// Jobs that arrived.
    pub arrived: u64,
    /// Launch requests granted.
    pub granted: u64,
    /// Granted requests that waited simulated time first.
    pub deferred: u64,
    /// Launch requests denied.
    pub denied: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Completed jobs that missed their deadline.
    pub missed: u64,
    /// Total time grants spent queued.
    pub queue_wait: SimDuration,
}

impl FleetEventFold {
    /// Fold one dispatched event into the counters. Non-fleet events are
    /// ignored.
    pub fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::JobArrived { .. } => self.arrived += 1,
            SimEvent::ProbeGranted { waited, .. } => {
                self.granted += 1;
                if waited.as_secs() > 0.0 {
                    self.deferred += 1;
                }
                self.queue_wait += *waited;
            }
            SimEvent::ProbeDenied { .. } => self.denied += 1,
            SimEvent::JobCompleted { missed, .. } => {
                self.completed += 1;
                if *missed {
                    self.missed += 1;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn req(itype: InstanceType, n: u32, at: f64, purpose: Purpose, usd: f64) -> PendingReq {
        PendingReq {
            itype,
            n,
            spot: false,
            purpose,
            requested_at: t(at),
            quoted_cost: Money::from_dollars(usd),
        }
    }

    fn ctx(priority: u8, deadline: Option<f64>, spent: f64) -> JobCtx {
        JobCtx {
            priority,
            arrived_at: t(0.0),
            deadline_at: deadline.map(t),
            spent: Money::from_dollars(spent),
            granted: 0,
            denied: 0,
        }
    }

    struct Fixture {
        caps: BTreeMap<InstanceType, u32>,
        free: BTreeMap<InstanceType, u32>,
        pending: BTreeMap<JobId, PendingReq>,
        jobs: BTreeMap<JobId, JobCtx>,
    }

    impl Fixture {
        fn view(&self) -> FleetView<'_> {
            FleetView {
                now: t(1000.0),
                caps: &self.caps,
                free: &self.free,
                pending: &self.pending,
                jobs: &self.jobs,
            }
        }
    }

    fn fixture(free: u32) -> Fixture {
        let c5 = InstanceType::C54xlarge;
        Fixture {
            caps: [(c5, 16u32)].into_iter().collect(),
            free: [(c5, free)].into_iter().collect(),
            pending: BTreeMap::new(),
            jobs: BTreeMap::new(),
        }
    }

    #[test]
    fn fifo_grants_oldest_and_convoys() {
        let c5 = InstanceType::C54xlarge;
        let mut fx = fixture(8);
        fx.pending.insert(1, req(c5, 12, 10.0, Purpose::Probe, 1.0)); // oldest, too big
        fx.pending.insert(2, req(c5, 4, 20.0, Purpose::Probe, 1.0)); // would fit
        fx.jobs.insert(1, ctx(0, None, 0.0));
        fx.jobs.insert(2, ctx(0, None, 0.0));
        // Head-of-line blocks: the younger fitting request must wait.
        assert_eq!(FifoGreedy.decide(&fx.view()), Decision::Wait);
        fx.free.insert(c5, 12);
        assert_eq!(FifoGreedy.decide(&fx.view()), Decision::Grant(1));
    }

    #[test]
    fn deadline_aware_prefers_tight_slack_and_reserves() {
        let c5 = InstanceType::C54xlarge;
        let mut fx = fixture(6);
        fx.pending.insert(1, req(c5, 4, 10.0, Purpose::Probe, 1.0)); // no deadline
        fx.pending.insert(2, req(c5, 4, 20.0, Purpose::Probe, 1.0)); // tight deadline
        fx.jobs.insert(1, ctx(0, None, 0.0));
        fx.jobs.insert(2, ctx(0, Some(5000.0), 0.0));
        let mut p = DeadlineAware::default();
        // Deadline job wins despite being younger.
        assert_eq!(p.decide(&fx.view()), Decision::Grant(2));
        // Alone, the no-deadline job is blocked by the reserved floor
        // (cap 16 × 0.25 = 4 reserved; 6 free − 4 = 2 < 4)...
        fx.pending.remove(&2);
        assert_eq!(p.decide(&fx.view()), Decision::Wait);
        // ...unless it is a training, which bypasses the reservation.
        fx.pending.insert(1, req(c5, 4, 10.0, Purpose::Train, 1.0));
        assert_eq!(p.decide(&fx.view()), Decision::Grant(1));
    }

    #[test]
    fn fairshare_cools_expensive_probes_and_prefers_least_spent() {
        let c5 = InstanceType::C54xlarge;
        let mut fx = fixture(4);
        // Contention: 12 pending probe nodes over 4 free → ceiling
        // 2.0 / (1 + 3) = 0.5 USD.
        fx.pending.insert(1, req(c5, 4, 10.0, Purpose::Probe, 0.4));
        fx.pending.insert(2, req(c5, 4, 20.0, Purpose::Probe, 0.9)); // over ceiling
        fx.pending.insert(3, req(c5, 4, 30.0, Purpose::Probe, 0.3));
        fx.jobs.insert(1, ctx(0, None, 5.0));
        fx.jobs.insert(2, ctx(0, None, 0.0));
        fx.jobs.insert(3, ctx(0, None, 1.0));
        let mut p = CostCooledFairShare::default();
        // The over-ceiling probe is denied first.
        assert_eq!(p.decide(&fx.view()), Decision::Deny(2));
        fx.pending.remove(&2);
        // Then the least-spent job's probe is granted (job 3 spent less
        // than job 1).
        assert_eq!(p.decide(&fx.view()), Decision::Grant(3));
        // Trainings jump the whole queue and ignore the ceiling.
        fx.pending.insert(1, req(c5, 4, 10.0, Purpose::Train, 9.0));
        assert_eq!(p.decide(&fx.view()), Decision::Grant(1));
    }

    #[test]
    fn event_fold_counts() {
        let mut fold = FleetEventFold::default();
        fold.on_event(&SimEvent::JobArrived { job: 1 });
        fold.on_event(&SimEvent::ProbeGranted { job: 1, waited: SimDuration::from_mins(30.0) });
        fold.on_event(&SimEvent::ProbeDenied { job: 1 });
        fold.on_event(&SimEvent::JobCompleted { job: 1, missed: true });
        fold.on_event(&SimEvent::ProbeGranted { job: 2, waited: SimDuration::ZERO });
        assert_eq!(
            (fold.arrived, fold.granted, fold.deferred, fold.denied, fold.completed, fold.missed),
            (1, 2, 1, 1, 1, 1)
        );
        assert!((fold.queue_wait.as_hours() - 0.5).abs() < 1e-12);
    }
}
