//! The tenant-side shim: a [`CloudInterface`] whose lifecycle calls
//! block on the fleet driver.
//!
//! Each fleet job runs the *unmodified* single-job pipeline — searcher →
//! [`Profiler`](mlcd::prelude::Profiler) → training — on its own thread,
//! against a [`TenantCloud`] instead of a private `SimCloud`: a
//! [`FleetSim`](crate::FleetSim) scenario job on a thread the simulation
//! spawns, or an `mlcd-serve --fleet` session on the service worker that
//! picked it up. Launches become admission requests the
//! [`FleetScheduler`](crate::policy::FleetScheduler) arbitrates; waits
//! become time-blocks the driver resolves by advancing the one shared
//! clock. The strict handoff protocol (at most one tenant thread runnable
//! at any instant, and the driver performs every shared-state mutation
//! itself) is what keeps N threads bit-deterministic.

use mlcd::prelude::{
    Deployment, InstanceType, Money, Observation, ProfileError, ProfilingEnv, SearchSpace,
    SimDuration, SimTime,
};
use mlcd::system::CloudInterface;
use mlcd_cloudsim::{CloudError, Cluster, ClusterId, MetricStore, SimCloud};
use std::cell::RefCell;
use std::sync::mpsc::{Receiver, Sender};

use crate::policy::JobId;

/// Tenant → driver messages. After any wake-up reply, a tenant sends
/// exactly one of these before the driver schedules anyone else — that
/// invariant is the handoff protocol.
#[derive(Debug)]
pub(crate) enum TenantMsg {
    /// Ask the scheduler for a cluster. Blocks until granted or denied.
    Launch {
        /// Requesting job.
        job: JobId,
        /// Requested type.
        itype: InstanceType,
        /// Requested node count.
        n: u32,
        /// Spot or on-demand.
        spot: bool,
    },
    /// Sleep until the shared clock reaches `until`.
    BlockUntil {
        /// Requesting job.
        job: JobId,
        /// Wake-up instant.
        until: SimTime,
    },
    /// The search phase ended; subsequent launches are the final
    /// training (the scheduler treats those as [`Purpose::Train`]).
    ///
    /// [`Purpose::Train`]: crate::policy::Purpose::Train
    SearchDone {
        /// Reporting job.
        job: JobId,
    },
    /// The tenant is done (its [`TenantCloud`] was dropped); the driver
    /// books it off and acknowledges with [`DriverReply::Woken`].
    Finished {
        /// Reporting job.
        job: JobId,
    },
}

/// Driver → tenant replies.
#[derive(Debug)]
pub(crate) enum DriverReply {
    /// The launch request settled (grant → the driver already performed
    /// the shared launch; deny → [`CloudError::Denied`]).
    Launched(Result<Cluster, CloudError>),
    /// The tenant was admitted, the clock reached the requested instant,
    /// or a checkpoint (`SearchDone`, `Finished`) was acknowledged.
    Woken,
}

/// The tenant's half of the driver channel pair.
pub(crate) struct TenantLink {
    pub(crate) job: JobId,
    pub(crate) tx: Sender<TenantMsg>,
    pub(crate) rx: Receiver<DriverReply>,
}

/// A [`CloudInterface`] over the shared [`SimCloud`] that routes every
/// blocking operation through the fleet driver.
///
/// A tenant holds one from its admission on. Dropping it — on normal
/// completion, cancellation or a panic unwind alike — sends a `Finished`
/// message and waits for the driver's acknowledgement, so the driver
/// never waits on a tenant that is gone and a finished tenant is off the
/// pool's books before its thread moves on.
///
/// Spend isolation: [`total_spent`](CloudInterface::total_spent) sums the
/// billing ledger's records *for this tenant's clusters only*, because
/// the profiler computes per-probe cost as `total_spent()` deltas — on
/// the shared ledger a global total would attribute other tenants'
/// activity to this job's probes.
pub struct TenantCloud {
    link: TenantLink,
    shared: SimCloud,
    /// Clusters this tenant launched, with their grant instants
    /// (single-threaded tenant interior mutability — `CloudInterface`
    /// methods take `&self`).
    owned: RefCell<Vec<(ClusterId, SimTime)>>,
}

impl TenantCloud {
    /// Block until the driver admits `link`'s arrival, then start the
    /// tenant.
    pub(crate) fn admit(link: TenantLink, shared: SimCloud) -> TenantCloud {
        match link.rx.recv() {
            Ok(DriverReply::Woken) => TenantCloud { link, shared, owned: RefCell::new(Vec::new()) },
            other => panic!("fleet protocol: admission got {other:?}"),
        }
    }

    /// Announce the search → train phase transition to the driver:
    /// launches after this are the final training
    /// ([`Purpose::Train`](crate::policy::Purpose::Train)).
    pub fn mark_search_done(&self) {
        let _ = self.link.tx.send(TenantMsg::SearchDone { job: self.link.job });
        match self.link.rx.recv() {
            Ok(DriverReply::Woken) => {}
            other => panic!("fleet protocol: checkpoint got {other:?}"),
        }
    }

    fn request_launch(
        &self,
        itype: InstanceType,
        n: u32,
        spot: bool,
    ) -> Result<Cluster, CloudError> {
        self.link
            .tx
            .send(TenantMsg::Launch { job: self.link.job, itype, n, spot })
            .expect("fleet driver hung up");
        match self.link.rx.recv().expect("fleet driver hung up") {
            DriverReply::Launched(res) => {
                if let Ok(c) = &res {
                    self.owned.borrow_mut().push((c.id, self.shared.now()));
                }
                res
            }
            DriverReply::Woken => panic!("fleet protocol: launch answered with a wake"),
        }
    }

    fn block_until(&self, until: SimTime) {
        if until.as_secs() <= self.shared.now().as_secs() {
            return;
        }
        self.link
            .tx
            .send(TenantMsg::BlockUntil { job: self.link.job, until })
            .expect("fleet driver hung up");
        match self.link.rx.recv().expect("fleet driver hung up") {
            DriverReply::Woken => {}
            other => panic!("fleet protocol: wake got {other:?}"),
        }
    }

    fn grant_instant(&self, cluster: &Cluster) -> SimTime {
        self.owned
            .borrow()
            .iter()
            .rev()
            .find(|(id, _)| *id == cluster.id)
            .map(|(_, g)| *g)
            .expect("tenant touched a cluster it does not own")
    }
}

impl CloudInterface for TenantCloud {
    fn launch(&self, itype: InstanceType, n: u32) -> Result<Cluster, CloudError> {
        self.request_launch(itype, n, false)
    }

    fn launch_spot(&self, itype: InstanceType, n: u32) -> Result<Cluster, CloudError> {
        self.request_launch(itype, n, true)
    }

    fn wait_until_running(&self, cluster: &Cluster) -> SimDuration {
        let delay = self.shared.provisioning_delay(cluster).unwrap_or(SimDuration::ZERO);
        self.block_until(self.grant_instant(cluster) + delay);
        delay
    }

    fn run_for(&self, cluster: &Cluster, d: SimDuration) -> Result<(), CloudError> {
        let end = self.shared.now() + d;
        // Mirror `SimCloud::run_for`'s revocation semantics: if the spot
        // market kills this cluster inside the window, time stops at the
        // revocation (the driver dispatches the settlement event when it
        // advances the clock there) and the caller learns via the error.
        if let Some(at) = self.shared.revocation_before(cluster, end) {
            self.block_until(at);
            return Err(CloudError::SpotRevoked { cluster: cluster.id, at });
        }
        self.block_until(end);
        Ok(())
    }

    fn terminate(&self, cluster: &Cluster) {
        // Safe to forward directly: under strict handoff the clock is
        // frozen while this tenant runs, so the span bills to the
        // instant the driver last advanced to.
        self.shared.terminate(cluster);
    }

    fn terminate_at(&self, cluster: &Cluster, end: SimTime) {
        self.shared.terminate_at(cluster, end);
    }

    fn skip_to(&self, t: SimTime) {
        self.block_until(t);
    }

    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn total_spent(&self) -> Money {
        let billing = self.shared.billing();
        self.owned.borrow().iter().map(|(id, _)| billing.cost_for_cluster(*id)).sum()
    }

    fn metrics(&self) -> &MetricStore {
        self.shared.metrics()
    }

    fn provisioning_delay(&self, cluster: &Cluster) -> Option<SimDuration> {
        self.shared.provisioning_delay(cluster)
    }

    fn revocation_before(&self, cluster: &Cluster, t: SimTime) -> Option<SimTime> {
        self.shared.revocation_before(cluster, t)
    }
}

impl Drop for TenantCloud {
    fn drop(&mut self) {
        // A driver that is already gone (it panicked) has nothing to book.
        if self.link.tx.send(TenantMsg::Finished { job: self.link.job }).is_ok() {
            let _ = self.link.rx.recv();
        }
    }
}

/// Serializing wrapper: forces `profile_batch` onto the default
/// sequential path. The profiler's concurrent batch wave computes every
/// member's settlement from one pre-launch timestamp, which is unsound
/// when a mid-batch launch can block on admission for hours — under a
/// fleet, batch members are probed one by one and each one queues at the
/// scheduler individually. Every tenant's search runs through one.
pub struct SerialEnv<'a, E>(pub &'a mut E);

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
