//! Fleet mode: concurrent sessions share one simulated capacity pool.
//!
//! Normally every session owns a private `SimCloud` — probes never
//! contend and billing is per-session by construction. In fleet mode
//! ([`crate::session::ServiceConfig::fleet`]) the manager instead owns
//! one shared [`SimCloud`] with finite per-type capacity caps, and the
//! pool's admission is settled by the same [`mlcd_fleet::Arbiter`] that
//! `mlcd-fleet`'s driver uses — one copy of the request, impossibility,
//! policy, accounting and stall-breaker rules. This module only adapts
//! the arbiter to worker threads:
//!
//! * A `FleetGateEnv` wraps each session's profiler *inside* the shared
//!   probe cache: every `profile()` first acquires the pool turn, then
//!   runs the whole probe — launch, wait, measure, terminate —
//!   atomically in virtual time. Cache hits are free and never touch the
//!   pool, so a popular deployment costs the fleet one admission, total.
//!   The final training run takes one turn the same way.
//! * `FleetPool::acquire` queues the request at the arbiter. Whichever
//!   waiting thread finds the pool idle runs one settlement and writes
//!   the verdict into the gate's `settled` map; each waiter collects its
//!   own verdict from there. A grant makes the pool busy until its
//!   `Turn` drops; a denial surfaces as [`CloudError::Denied`], which
//!   the gate reports as a failed probe so the searcher drops the
//!   candidate. When the policy waits on an idle pool the shared clock
//!   cannot move, so the settling thread force-grants the oldest
//!   request, as the driver does on a stall.
//! * Each session's `FleetCloud` forwards lifecycle calls to the
//!   shared provider and reports launches to the arbiter, which records
//!   cluster ownership (so `total_spent()` and every probe-cost delta
//!   stay tenant-local on the shared ledger) and books a failed launch
//!   as a denial.
//!
//! Unlike the strict-handoff driver, the gate is driven by OS scheduling
//! of the worker pool: which session reaches it first is wall-clock
//! nondeterministic, so fleet mode is incompatible with journaling
//! (crash-resume replays require bit-reproducible probe streams) —
//! [`crate::session::SessionManager::new`] rejects the combination.

use crate::sync::{lock_or_die, wait_or_die};
use mlcd::prelude::{
    Deployment, InstanceType, Money, Observation, ProfileError, ProfilingEnv, SearchSpace,
    SimDuration, SimTime,
};
use mlcd::system::CloudInterface;
use mlcd_cloudsim::{CloudError, Cluster, MetricStore, SimCloud};
use mlcd_fleet::{policy_by_name, Arbiter, Purpose, Verdict};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

/// Fleet-mode configuration: which policy arbitrates the pool and how
/// much capacity the pool holds.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Scheduling policy name ([`mlcd_fleet::POLICY_NAMES`]).
    pub policy: String,
    /// Seed of the shared simulated cloud.
    pub seed: u64,
    /// Capacity cap for every CPU instance type.
    pub cpu_cap: u32,
    /// Capacity cap for every GPU instance type.
    pub gpu_cap: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { policy: "fifo".to_string(), seed: 2020, cpu_cap: 64, gpu_cap: 16 }
    }
}

/// Fleet counters, as reported in `Stats` (see
/// [`crate::proto::FleetStatsWire`] for the wire mirror).
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetCounters {
    /// Launch turns granted (probes + training runs), minus grants whose
    /// launch failed at the provider.
    pub admitted: u64,
    /// Requests that had to wait at least one decision round.
    pub deferred: u64,
    /// Requests refused: policy denials (the session observes
    /// [`CloudError::Denied`] and its searcher drops the candidate) and
    /// granted launches the provider failed.
    pub denied: u64,
    /// Spot revocations tenants suffered on the shared pool.
    pub preempted: u64,
    /// Requests currently waiting at the gate.
    pub queue_depth: u64,
}

struct Gate {
    arbiter: Arbiter,
    /// Verdicts settled for waiters that have not collected them yet.
    settled: BTreeMap<u64, Verdict>,
    /// A granted turn is executing its probe/training on the shared
    /// clock.
    busy: bool,
    deferred: u64,
    preempted: u64,
}

/// The shared capacity pool: one `SimCloud` plus the admission gate all
/// fleet sessions go through.
pub(crate) struct FleetPool {
    shared: SimCloud,
    gate: Mutex<Gate>,
    turn_cv: Condvar,
}

impl FleetPool {
    /// Build the pool: shared cloud, capacity caps applied, policy
    /// resolved.
    ///
    /// # Errors
    /// When the policy name is unknown.
    pub(crate) fn new(cfg: &FleetConfig) -> Result<FleetPool, String> {
        let policy = policy_by_name(&cfg.policy)
            .ok_or_else(|| format!("unknown fleet policy `{}`", cfg.policy))?;
        let shared = SimCloud::new(cfg.seed);
        let mut caps = BTreeMap::new();
        for itype in InstanceType::all() {
            let cap = if itype.spec().has_gpu() { cfg.gpu_cap } else { cfg.cpu_cap };
            shared.set_capacity(itype, cap);
            caps.insert(itype, cap);
        }
        let gate = Gate {
            arbiter: Arbiter::new(policy, caps),
            settled: BTreeMap::new(),
            busy: false,
            deferred: 0,
            preempted: 0,
        };
        Ok(FleetPool { shared, gate: Mutex::new(gate), turn_cv: Condvar::new() })
    }

    /// The resolved policy name.
    pub(crate) fn policy_name(&self) -> &'static str {
        lock_or_die(&self.gate, "fleet gate").arbiter.policy_name()
    }

    /// Register a session with the arbiter before its first probe.
    ///
    /// The returned guard deregisters the session when dropped —
    /// including during a panic/cancel unwind — so a dead session can
    /// never leave a pending request or job context behind (a leaked
    /// pending entry would make the policy grant a turn nobody can take,
    /// wedging every live waiter).
    #[must_use = "dropping the guard deregisters the session; bind it for the session's lifetime"]
    pub(crate) fn register(
        &self,
        id: u64,
        priority: u8,
        deadline: Option<SimDuration>,
    ) -> Registration<'_> {
        let now = self.shared.now();
        let mut g = lock_or_die(&self.gate, "fleet gate");
        g.arbiter.join(id, priority, now, deadline.map(|d| now + d));
        Registration { pool: self, id }
    }

    /// Block until `id`'s next launch request is settled. A grant returns
    /// a guard holding the pool turn (one probe or training run at a
    /// time); a denial returns [`CloudError::Denied`] so the caller can
    /// surface it exactly like a failed launch.
    ///
    /// Liveness: while the pool is idle, some waiter settles one request
    /// per round and wakes the others, so every request is settled; the
    /// arbiter's stall-breaker guarantees a round never ends empty-handed
    /// while requests are pending.
    ///
    /// # Errors
    /// [`CloudError::Denied`] when the policy refuses the request
    /// outright (e.g. fair-share's cost ceiling under contention).
    pub(crate) fn acquire(
        &self,
        id: u64,
        itype: InstanceType,
        n: u32,
        purpose: Purpose,
    ) -> Result<Turn<'_>, CloudError> {
        let mut g = lock_or_die(&self.gate, "fleet gate");
        g.arbiter.request(id, itype, n, false, purpose, self.shared.now());
        let mut waited = false;
        loop {
            match g.settled.remove(&id) {
                Some(Verdict::Grant(_)) => return Ok(Turn { pool: self }),
                Some(Verdict::Deny) => return Err(Verdict::denial()),
                None => {}
            }
            if !g.busy {
                let gate = &mut *g;
                let next =
                    gate.arbiter.settle(&self.shared).or_else(|| gate.arbiter.force_oldest());
                if let Some((job, verdict)) = next {
                    gate.busy = matches!(verdict, Verdict::Grant(_));
                    gate.settled.insert(job, verdict);
                    self.turn_cv.notify_all();
                    continue;
                }
            }
            if !waited {
                waited = true;
                g.deferred += 1;
            }
            g = wait_or_die(&self.turn_cv, g, "fleet gate");
        }
    }

    /// Report a session's launch to the arbiter.
    fn on_launch(&self, id: u64, res: &Result<Cluster, CloudError>) {
        let cluster = res.as_ref().ok().map(|c| c.id);
        lock_or_die(&self.gate, "fleet gate").arbiter.on_launch(id, cluster, self.shared.now());
    }

    /// Snapshot the counters.
    pub(crate) fn counters(&self) -> FleetCounters {
        let g = lock_or_die(&self.gate, "fleet gate");
        FleetCounters {
            admitted: g.arbiter.granted(),
            deferred: g.deferred,
            denied: g.arbiter.denied(),
            preempted: g.preempted,
            queue_depth: g.arbiter.pending_len() as u64,
        }
    }
}

/// An admitted pool turn; dropping it passes the pool to the next
/// waiter.
pub(crate) struct Turn<'a> {
    pool: &'a FleetPool,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        lock_or_die(&self.pool.gate, "fleet gate").busy = false;
        self.pool.turn_cv.notify_all();
    }
}

/// A session's membership in the pool, returned by
/// [`FleetPool::register`]. Dropping it removes the session from the
/// arbiter, so the scheduler's view is cleaned up on every exit path —
/// normal completion, cancellation and searcher panics alike (the
/// session body unwinds through `catch_unwind`, dropping this guard on
/// the way).
pub(crate) struct Registration<'a> {
    pool: &'a FleetPool,
    id: u64,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        lock_or_die(&self.pool.gate, "fleet gate").arbiter.leave(self.id);
    }
}

/// Per-session [`CloudInterface`] over the shared pool: forwards
/// lifecycle calls and reports launches to the arbiter, whose cluster
/// ownership keeps [`total_spent`](CloudInterface::total_spent)
/// tenant-local so probe cost deltas never include other sessions'
/// activity.
pub(crate) struct FleetCloud<'a> {
    pool: &'a FleetPool,
    id: u64,
}

impl<'a> FleetCloud<'a> {
    /// A session-scoped handle onto the pool.
    pub(crate) fn new(pool: &'a FleetPool, id: u64) -> FleetCloud<'a> {
        FleetCloud { pool, id }
    }
}

impl CloudInterface for FleetCloud<'_> {
    fn launch(&self, itype: InstanceType, n: u32) -> Result<Cluster, CloudError> {
        let res = self.pool.shared.launch(itype, n);
        self.pool.on_launch(self.id, &res);
        res
    }

    fn launch_spot(&self, itype: InstanceType, n: u32) -> Result<Cluster, CloudError> {
        let res = self.pool.shared.launch_spot(itype, n);
        self.pool.on_launch(self.id, &res);
        res
    }

    fn wait_until_running(&self, cluster: &Cluster) -> SimDuration {
        self.pool.shared.wait_until_running(cluster)
    }

    fn run_for(&self, cluster: &Cluster, d: SimDuration) -> Result<(), CloudError> {
        let res = self.pool.shared.run_for(cluster, d);
        if matches!(res, Err(CloudError::SpotRevoked { .. })) {
            lock_or_die(&self.pool.gate, "fleet gate").preempted += 1;
        }
        res
    }

    fn terminate(&self, cluster: &Cluster) {
        self.pool.shared.terminate(cluster);
    }

    fn terminate_at(&self, cluster: &Cluster, end: SimTime) {
        self.pool.shared.terminate_at(cluster, end);
    }

    fn skip_to(&self, t: SimTime) {
        // On a shared clock another tenant may already have advanced past
        // `t`; skipping backwards is meaningless.
        if t.as_secs() > self.pool.shared.now().as_secs() {
            self.pool.shared.skip_to(t);
        }
    }

    fn now(&self) -> SimTime {
        self.pool.shared.now()
    }

    fn total_spent(&self) -> Money {
        lock_or_die(&self.pool.gate, "fleet gate").arbiter.spent(self.id, &self.pool.shared)
    }

    fn metrics(&self) -> &MetricStore {
        self.pool.shared.metrics()
    }

    fn provisioning_delay(&self, cluster: &Cluster) -> Option<SimDuration> {
        self.pool.shared.provisioning_delay(cluster)
    }

    fn revocation_before(&self, cluster: &Cluster, t: SimTime) -> Option<SimTime> {
        self.pool.shared.revocation_before(cluster, t)
    }
}

/// A [`ProfilingEnv`] wrapper that takes a pool turn around every probe.
/// Sits *inside* the probe cache, so cache hits never pay admission.
/// `profile_batch` is intentionally left on the trait's sequential
/// default: the profiler's concurrent batch wave assumes launch and
/// settlement happen with no admission wait in between, which does not
/// hold at a contended gate.
pub(crate) struct FleetGateEnv<'a, E> {
    inner: &'a mut E,
    pool: &'a FleetPool,
    id: u64,
}

impl<'a, E: ProfilingEnv> FleetGateEnv<'a, E> {
    /// Gate `inner`'s probes through `pool` on behalf of session `id`.
    pub(crate) fn new(inner: &'a mut E, pool: &'a FleetPool, id: u64) -> FleetGateEnv<'a, E> {
        FleetGateEnv { inner, pool, id }
    }
}

impl<E: ProfilingEnv> ProfilingEnv for FleetGateEnv<'_, E> {
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
        // A denial surfaces like a failed launch so the searcher drops
        // the candidate, as a fleet-driver tenant's does.
        let turn = self
            .pool
            .acquire(self.id, d.itype, d.n, Purpose::Probe)
            .map_err(|e| ProfileError::Failed(e.to_string()))?;
        let res = self.inner.profile(d);
        drop(turn);
        res
    }

    fn elapsed(&self) -> SimDuration {
        self.inner.elapsed()
    }

    fn spent(&self) -> Money {
        self.inner.spent()
    }
}

#[cfg(test)]
mod tests {
    // The admission rules themselves (standing denials, impossible
    // requests, the stall-breaker, accounting) are unit-tested on
    // `mlcd_fleet::Arbiter`; these tests cover the threaded adapter.
    use super::*;

    #[test]
    fn pool_rejects_unknown_policy() {
        let cfg = FleetConfig { policy: "nope".into(), ..Default::default() };
        assert!(FleetPool::new(&cfg).is_err());
    }

    #[test]
    fn single_waiter_is_always_admitted() {
        let pool = FleetPool::new(&FleetConfig::default()).expect("pool");
        let _reg = pool.register(1, 0, None);
        let turn = pool.acquire(1, InstanceType::C5Xlarge, 2, Purpose::Probe).expect("granted");
        drop(turn);
        let c = pool.counters();
        assert_eq!(c.admitted, 1);
        assert_eq!(c.queue_depth, 0);
    }

    #[test]
    fn turns_serialize_across_threads() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let pool = Arc::new(FleetPool::new(&FleetConfig::default()).expect("pool"));
        let in_turn = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for id in 0..4u64 {
            let pool = Arc::clone(&pool);
            let in_turn = Arc::clone(&in_turn);
            handles.push(std::thread::spawn(move || {
                let _reg = pool.register(id, 0, None);
                for _ in 0..8 {
                    let turn = pool
                        .acquire(id, InstanceType::C5Xlarge, 1, Purpose::Probe)
                        .expect("cheap probes are granted");
                    assert_eq!(in_turn.fetch_add(1, Ordering::SeqCst), 0, "turn overlap");
                    in_turn.fetch_sub(1, Ordering::SeqCst);
                    drop(turn);
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(pool.counters().admitted, 32);
    }

    #[test]
    fn settled_denials_reach_every_waiter() {
        // Fair-share denies every over-ceiling GPU probe. Whichever
        // thread runs a settlement writes the verdict for its owner;
        // every waiter must collect its own denial instead of parking.
        use std::sync::Arc;
        let cfg = FleetConfig { policy: "fairshare".into(), ..Default::default() };
        let pool = Arc::new(FleetPool::new(&cfg).expect("pool"));
        let mut handles = Vec::new();
        for id in 0..3u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let _reg = pool.register(id, 0, None);
                pool.acquire(id, InstanceType::P32xlarge, 8, Purpose::Probe).map(|_| ())
            }));
        }
        for h in handles {
            let res = h.join().expect("worker must not deadlock");
            assert!(matches!(res, Err(CloudError::Denied { .. })), "{res:?}");
        }
        let c = pool.counters();
        assert_eq!((c.admitted, c.denied, c.queue_depth), (0, 3, 0));
    }

    #[test]
    fn a_failed_launch_in_a_turn_counts_as_a_denial() {
        // An impossible request (65 > 64 nodes) is granted a turn; its
        // launch through the session's cloud fails at the provider and
        // is booked as a denial, as in the fleet driver.
        let pool = FleetPool::new(&FleetConfig::default()).expect("pool");
        let _r1 = pool.register(1, 0, None);
        let _r2 = pool.register(2, 0, None);
        let turn =
            pool.acquire(1, InstanceType::C5Xlarge, 65, Purpose::Probe).expect("forced through");
        assert!(FleetCloud::new(&pool, 1).launch(InstanceType::C5Xlarge, 65).is_err());
        drop(turn);
        let turn2 = pool.acquire(2, InstanceType::C5Xlarge, 1, Purpose::Probe).expect("granted");
        drop(turn2);
        let c = pool.counters();
        assert_eq!((c.admitted, c.denied), (1, 1));
    }

    #[test]
    fn dropping_registration_clears_pending_state() {
        // A session that dies mid-wait (panic/cancel unwind drops its
        // guard) must not leave a pending request behind.
        let pool = FleetPool::new(&FleetConfig::default()).expect("pool");
        {
            let _reg = pool.register(7, 0, None);
            let turn = pool.acquire(7, InstanceType::C5Xlarge, 1, Purpose::Probe).expect("granted");
            drop(turn);
        }
        let c = pool.counters();
        assert_eq!(c.queue_depth, 0);
        assert!(lock_or_die(&pool.gate, "fleet gate").arbiter.leave(7).is_none());
    }
}
