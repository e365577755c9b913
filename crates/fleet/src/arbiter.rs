//! The admission arbiter: the one place launch requests on a shared pool
//! are settled.
//!
//! Its one caller, the strict-handoff driver (behind both
//! [`FleetSim`](crate::FleetSim) and `mlcd-serve --fleet`'s
//! [`OpenFleet`](crate::OpenFleet)), only moves requests in and verdicts
//! out; every admission rule lives here:
//!
//! * request construction, including the quoted cost the cost-cooled
//!   policy throttles on;
//! * the impossibility rule: a request larger than `cap.min(quota)` can
//!   never be admitted, so it is granted straight away and the launch
//!   surfaces the provider's real error;
//! * the policy call, with each job's spend refreshed from the billing
//!   ledger;
//! * grant and denial accounting — a granted request whose launch fails
//!   at the provider counts as a denial, not a grant;
//! * the stall-breaker [`Arbiter::force_oldest`] for a pool whose policy
//!   waits while nothing can move the clock.
//!
//! The arbiter holds no locks, channels or clocks (this file is pinned
//! under mlcd-lint's R8 purity rule): the caller passes the shared
//! [`SimCloud`] in and owns all blocking.

use mlcd::env::paper_probe_duration;
use mlcd_cloudsim::{
    Billing, CloudError, ClusterId, InstanceType, Money, SimCloud, SimDuration, SimEvent, SimTime,
};
use std::collections::BTreeMap;

use crate::policy::{Decision, FleetScheduler, FleetView, JobCtx, JobId, PendingReq, Purpose};

/// How a request was settled.
#[derive(Debug, Clone, Copy)]
pub enum Verdict {
    /// Launch the request now. Its accounting completes when the caller
    /// reports the launch through [`Arbiter::on_launch`].
    Grant(PendingReq),
    /// The request is refused; the tenant sees [`Verdict::denial`].
    Deny,
}

impl Verdict {
    /// The error a denied tenant's launch fails with.
    pub fn denial() -> CloudError {
        CloudError::Denied { reason: "fleet admission: probe throttled under contention" }
    }
}

/// Everything the arbiter tracks for one live job.
#[derive(Debug, Clone)]
pub struct JobAccount {
    /// The context policies see.
    pub ctx: JobCtx,
    /// Total time granted requests sat pending before launching.
    pub queue_wait: SimDuration,
    /// Clusters the job launched (its spend on the shared ledger).
    clusters: Vec<ClusterId>,
    /// Request instant of the latest grant, until its launch is reported.
    unlaunched: Option<SimTime>,
}

impl JobAccount {
    fn spent_on(&self, billing: &Billing) -> Money {
        self.clusters.iter().map(|c| billing.cost_for_cluster(*c)).sum()
    }
}

/// The single admission component of a shared capacity pool.
pub struct Arbiter {
    policy: Box<dyn FleetScheduler>,
    caps: BTreeMap<InstanceType, u32>,
    pending: BTreeMap<JobId, PendingReq>,
    jobs: BTreeMap<JobId, JobAccount>,
    granted: u64,
    denied: u64,
}

impl Arbiter {
    /// An arbiter applying `policy` to a pool with per-type `caps`.
    pub fn new(policy: Box<dyn FleetScheduler>, caps: BTreeMap<InstanceType, u32>) -> Arbiter {
        Arbiter {
            policy,
            caps,
            pending: BTreeMap::new(),
            jobs: BTreeMap::new(),
            granted: 0,
            denied: 0,
        }
    }

    /// The policy's stable name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Launches granted so far (failed launches excluded).
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Requests denied so far, failed forced launches included.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Requests awaiting a verdict.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// A job arrived; its context joins every later policy view.
    pub fn join(
        &mut self,
        job: JobId,
        priority: u8,
        arrived_at: SimTime,
        deadline_at: Option<SimTime>,
    ) {
        let ctx =
            JobCtx { priority, arrived_at, deadline_at, spent: Money::ZERO, granted: 0, denied: 0 };
        let account = JobAccount {
            ctx,
            queue_wait: SimDuration::ZERO,
            clusters: Vec::new(),
            unlaunched: None,
        };
        self.jobs.insert(job, account);
    }

    /// A job left the pool; its account is returned and its pending
    /// request, if any, dropped.
    pub fn leave(&mut self, job: JobId) -> Option<JobAccount> {
        self.pending.remove(&job);
        self.jobs.remove(&job)
    }

    /// Queue `job`'s launch request, issued at `now`. The quoted cost is
    /// the on-demand rate × nodes × the paper's probe duration.
    pub fn request(
        &mut self,
        job: JobId,
        itype: InstanceType,
        n: u32,
        spot: bool,
        purpose: Purpose,
        now: SimTime,
    ) {
        let quoted_hours = paper_probe_duration(n.max(1)).as_hours();
        let quoted_cost = Money::from_dollars(itype.hourly_usd() * f64::from(n) * quoted_hours);
        let req = PendingReq { itype, n, spot, purpose, requested_at: now, quoted_cost };
        self.pending.insert(job, req);
    }

    /// Settle at most one pending request at the pool's current instant:
    /// the oldest impossible request first, otherwise whatever the policy
    /// decides. `None` when the policy waits (or nothing is pending).
    pub fn settle(&mut self, pool: &SimCloud) -> Option<(JobId, Verdict)> {
        let impossible = self.oldest(|req, cap| req.n > cap.min(pool.quota(req.itype)));
        if let Some(job) = impossible {
            return Some((job, self.grant(job)));
        }
        if self.pending.is_empty() {
            return None;
        }
        for account in self.jobs.values_mut() {
            account.ctx.spent = account.spent_on(pool.billing());
        }
        let free: BTreeMap<InstanceType, u32> = self
            .caps
            .iter()
            .map(|(&itype, &cap)| (itype, pool.capacity_available(itype).unwrap_or(cap)))
            .collect();
        let jobs: BTreeMap<JobId, JobCtx> = self.jobs.iter().map(|(j, a)| (*j, a.ctx)).collect();
        let view = FleetView {
            now: pool.now(),
            caps: &self.caps,
            free: &free,
            pending: &self.pending,
            jobs: &jobs,
        };
        match self.policy.decide(&view) {
            Decision::Grant(job) => Some((job, self.grant(job))),
            Decision::Deny(job) => {
                self.pending.remove(&job);
                self.deny(job);
                Some((job, Verdict::Deny))
            }
            Decision::Wait => None,
        }
    }

    /// Break a stalled pool (the policy waits but nothing can move the
    /// clock): grant the oldest pending request so its launch surfaces
    /// the provider's real answer.
    pub fn force_oldest(&mut self) -> Option<(JobId, Verdict)> {
        let job = self.oldest(|_, _| true)?;
        Some((job, self.grant(job)))
    }

    /// Report the launch of a granted request: `Some(cluster)` on
    /// success, `None` when the provider refused it. Returns the fleet
    /// event settling the grant — `ProbeGranted` with its queue wait, or
    /// `ProbeDenied` for a failed launch, which is re-booked as a
    /// denial. A second report for the same grant only records cluster
    /// ownership and returns `None`.
    pub fn on_launch(
        &mut self,
        job: JobId,
        cluster: Option<ClusterId>,
        now: SimTime,
    ) -> Option<SimEvent> {
        let account = self.jobs.get_mut(&job)?;
        account.clusters.extend(cluster);
        let requested_at = account.unlaunched.take()?;
        if cluster.is_some() {
            let waited = now.since(requested_at);
            account.queue_wait += waited;
            Some(SimEvent::ProbeGranted { job, waited })
        } else {
            account.ctx.granted -= 1;
            self.granted -= 1;
            self.deny(job);
            Some(SimEvent::ProbeDenied { job })
        }
    }

    /// The oldest pending request satisfying `pred(req, cap)`, by
    /// (request instant, job id).
    fn oldest(&self, pred: impl Fn(&PendingReq, u32) -> bool) -> Option<JobId> {
        self.pending
            .iter()
            .filter(|(_, req)| pred(req, self.caps.get(&req.itype).copied().unwrap_or(0)))
            .min_by_key(|(job, req)| (req.requested_at.as_secs().to_bits(), **job))
            .map(|(job, _)| *job)
    }

    fn grant(&mut self, job: JobId) -> Verdict {
        let req = self.pending.remove(&job).expect("fleet arbiter: grant for a settled request");
        self.granted += 1;
        if let Some(account) = self.jobs.get_mut(&job) {
            account.ctx.granted += 1;
            account.unlaunched = Some(req.requested_at);
        }
        Verdict::Grant(req)
    }

    fn deny(&mut self, job: JobId) {
        self.denied += 1;
        if let Some(account) = self.jobs.get_mut(&job) {
            account.ctx.denied += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::policy_by_name;

    /// An arbiter and its pool: every CPU type capped at 64, every GPU
    /// type at 16.
    fn pool(policy: &str) -> (Arbiter, SimCloud) {
        let cloud = SimCloud::new(7);
        let mut caps = BTreeMap::new();
        for itype in InstanceType::all() {
            let cap = if itype.spec().has_gpu() { 16 } else { 64 };
            cloud.set_capacity(itype, cap);
            caps.insert(itype, cap);
        }
        (Arbiter::new(policy_by_name(policy).expect("known policy"), caps), cloud)
    }

    fn probe(a: &mut Arbiter, cloud: &SimCloud, job: JobId, itype: InstanceType, n: u32) {
        a.join(job, 0, cloud.now(), None);
        a.request(job, itype, n, false, Purpose::Probe, cloud.now());
    }

    /// Launch a granted request on the pool and report it.
    fn launch(a: &mut Arbiter, cloud: &SimCloud, job: JobId, verdict: Verdict) -> SimEvent {
        let Verdict::Grant(req) = verdict else { panic!("expected a grant, got {verdict:?}") };
        let res = cloud.launch(req.itype, req.n);
        a.on_launch(job, res.ok().map(|c| c.id), cloud.now()).expect("a grant settles on launch")
    }

    #[test]
    fn standing_denials_settle_every_waiter() {
        // Three expensive GPU probes, all over fair-share's cooled cost
        // ceiling: each is denied in its own settlement, then the
        // arbiter has nothing left to decide.
        let (mut a, cloud) = pool("fairshare");
        for job in 0..3 {
            probe(&mut a, &cloud, job, InstanceType::P32xlarge, 8);
        }
        for _ in 0..3 {
            assert!(matches!(a.settle(&cloud), Some((_, Verdict::Deny))));
        }
        assert!(a.settle(&cloud).is_none());
        assert_eq!((a.granted(), a.denied(), a.pending_len()), (0, 3, 0));
    }

    #[test]
    fn denials_are_counted_per_job() {
        let (mut a, cloud) = pool("fairshare");
        probe(&mut a, &cloud, 1, InstanceType::P32xlarge, 8);
        assert!(matches!(a.settle(&cloud), Some((1, Verdict::Deny))));
        let account = a.leave(1).expect("joined");
        assert_eq!((account.ctx.granted, account.ctx.denied), (0, 1));
    }

    #[test]
    fn impossible_requests_pass_through_and_book_as_denials() {
        // 65 nodes can never fit a 64-node cap. The request is granted
        // straight away instead of blocking fifo's queue; its launch
        // fails at the provider and counts as a denial, not a grant.
        let (mut a, cloud) = pool("fifo");
        probe(&mut a, &cloud, 1, InstanceType::C5Xlarge, 65);
        probe(&mut a, &cloud, 2, InstanceType::C5Xlarge, 1);
        let (job, verdict) = a.settle(&cloud).expect("impossible request settles");
        assert_eq!(job, 1);
        assert!(matches!(launch(&mut a, &cloud, 1, verdict), SimEvent::ProbeDenied { job: 1 }));
        let (job, verdict) = a.settle(&cloud).expect("the queue moves on");
        assert_eq!(job, 2);
        assert!(matches!(launch(&mut a, &cloud, 2, verdict), SimEvent::ProbeGranted { .. }));
        assert_eq!((a.granted(), a.denied()), (1, 1));
        let ctx = a.leave(1).expect("joined").ctx;
        assert_eq!((ctx.granted, ctx.denied), (0, 1));
    }

    #[test]
    fn a_standing_wait_is_broken_by_forcing_the_oldest() {
        // DeadlineAware keeps 25% of each type for deadline traffic, so
        // a no-deadline probe for 60 of 64 nodes waits forever on an idle
        // pool; the stall-breaker grants it.
        let (mut a, cloud) = pool("deadline");
        probe(&mut a, &cloud, 2, InstanceType::C5Xlarge, 60);
        probe(&mut a, &cloud, 1, InstanceType::C5Xlarge, 60);
        assert!(a.settle(&cloud).is_none());
        let (job, verdict) = a.force_oldest().expect("a pending request is forced");
        assert_eq!(job, 1, "equal request instants tie-break on job id");
        assert!(matches!(launch(&mut a, &cloud, 1, verdict), SimEvent::ProbeGranted { .. }));
        assert_eq!((a.granted(), a.denied(), a.pending_len()), (1, 0, 1));
    }

    #[test]
    fn launches_record_spend_and_only_the_first_settles_a_grant() {
        let (mut a, cloud) = pool("fifo");
        probe(&mut a, &cloud, 1, InstanceType::C5Xlarge, 2);
        let (_, verdict) = a.settle(&cloud).expect("fits");
        let Verdict::Grant(req) = verdict else { panic!("expected a grant") };
        assert!(req.quoted_cost.dollars() > 0.0);
        let first = cloud.launch(InstanceType::C5Xlarge, 2).expect("fits");
        assert!(a.on_launch(1, Some(first.id), cloud.now()).is_some());
        let retry = cloud.launch(InstanceType::C5Xlarge, 2).expect("fits");
        assert!(a.on_launch(1, Some(retry.id), cloud.now()).is_none(), "already settled");
        cloud.run_until(cloud.now() + SimDuration::from_hours(1.0));
        cloud.terminate(&first);
        cloud.terminate(&retry);
        assert!(a.jobs[&1].spent_on(cloud.billing()).dollars() > 0.0);
        assert_eq!(a.granted(), 1);
    }
}
