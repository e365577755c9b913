//! Fleet mode: concurrent sessions share one simulated capacity pool.
//!
//! Normally every session owns a private `SimCloud` — probes never
//! contend and billing is per-session by construction. In fleet mode
//! ([`crate::session::ServiceConfig::fleet`]) the manager instead starts
//! one [`mlcd_fleet::OpenFleet`]: the same strict-handoff driver that
//! runs `mlcd-fleet`'s simulations, on its own thread, over one shared
//! pool with finite per-type capacity caps. This module only builds that
//! pool from a [`FleetConfig`]; the runtime is the fleet crate's:
//!
//! * Each session is an open arrival. The worker thread running it
//!   arrives as a tenant at the driver's current instant and starts its
//!   search once the driver admits it.
//! * The worker is the tenant. Its profiler runs over a
//!   [`mlcd_fleet::TenantCloud`], so every launch is an admission request
//!   to the pool's [`mlcd_fleet::Arbiter`] and every wait is a time block
//!   the driver resolves on the shared clock. The search runs through
//!   [`mlcd_fleet::SerialEnv`] inside the shared probe cache, so cache
//!   hits skip admission.
//! * The handoff serialises tenants' CPU: at most one session's search
//!   runs at a time.
//!
//! Outcomes are deterministic when sessions arrive one at a time
//! (`workers: 1`: each arrives when the previous one finished). With more
//! workers the arrival instants depend on when a worker picks a session
//! up, so fleet mode stays incompatible with journaling —
//! [`crate::session::SessionManager::new`] rejects the combination.

use mlcd::prelude::InstanceType;
use mlcd_cloudsim::SpotMarket;
use mlcd_fleet::{boot_pool, policy_by_name, Arbiter, OpenFleet};

pub use mlcd_fleet::FleetCounters;

/// Fleet-mode configuration: which policy arbitrates the pool and how
/// much capacity the pool holds.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Scheduling policy name ([`mlcd_fleet::POLICY_NAMES`]).
    pub policy: String,
    /// Seed of the shared simulated cloud and its spot market.
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

/// Start the open driver over a pool built as `FleetSim` builds one:
/// every instance type capped at `cpu_cap`/`gpu_cap`, the provider and
/// its spot market seeded from `seed`.
///
/// # Errors
/// When the policy name is unknown.
pub(crate) fn start(cfg: &FleetConfig) -> Result<OpenFleet, String> {
    let policy = policy_by_name(&cfg.policy)
        .ok_or_else(|| format!("unknown fleet policy `{}`", cfg.policy))?;
    let caps = InstanceType::all()
        .map(|t| (t, if t.spec().has_gpu() { cfg.gpu_cap } else { cfg.cpu_cap }));
    let (shared, caps) = boot_pool(cfg.seed, SpotMarket::default().mode, caps);
    Ok(OpenFleet::start(shared, Arbiter::new(policy, caps)))
}

#[cfg(test)]
mod tests {
    // The driver and the admission rules are tested in `mlcd_fleet`;
    // `session.rs` and `tests/fleet_mode.rs` cover sessions as tenants.
    use super::*;
    use crate::session::{ServiceConfig, SessionManager};

    #[test]
    fn pool_rejects_unknown_policy() {
        let cfg = FleetConfig { policy: "nope".into(), ..Default::default() };
        let err =
            match SessionManager::new(ServiceConfig { fleet: Some(cfg), ..Default::default() }) {
                Ok(_) => panic!("an unknown fleet policy must be rejected"),
                Err(e) => e,
            };
        assert!(err.to_string().contains("unknown fleet policy `nope`"), "{err}");
    }
}
