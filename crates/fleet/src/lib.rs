//! Multi-job fleet planning on a shared capacity pool.
//!
//! The paper optimizes one training job in isolation against an infinite
//! catalog. Real MLaaS traffic is a *fleet*: many jobs with mixed
//! deadlines, budgets and priorities arriving over time and contending
//! for finite spot/on-demand capacity. This crate runs N per-job HeterBO
//! searches as *tenants* of one [`mlcd_cloudsim::SimCloud`]: every tenant
//! drives the unmodified [`mlcd::prelude::Profiler`] through a
//! [`tenant::TenantCloud`] shim whose lifecycle calls block on a central
//! driver. Admission is settled by one [`arbiter::Arbiter`]: it builds
//! requests, applies the rules no policy needs to repeat (impossible
//! requests, the stall-breaker), asks a [`policy::FleetScheduler`] which
//! tenant's launch is admitted against the shared capacity ledger, and
//! keeps the grant/denial books.
//!
//! The driver takes its tenants as arrival messages. [`FleetSim`] queues
//! a whole [`FleetScenario`] before the loop starts; [`OpenFleet`] runs
//! the same loop on its own thread for `mlcd-serve --fleet`, whose
//! worker threads arrive as tenants while it runs — one runtime and one
//! cloud shim for both.
//!
//! A fleet simulation is deterministic: tenants run on real threads,
//! but a strict handoff protocol keeps exactly one runnable at a time,
//! all shared-state mutations happen in driver-chosen order, and the
//! fleet digest is invariant under the wake order of equally-due tenants
//! (see [`driver::DrainOrder`] and the drain-order proptest).
//!
//! DESIGN.md §11 documents the arrival grammar, the scheduler trait and
//! the fairness policies in detail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod baseline;
pub mod driver;
pub mod outcome;
pub mod policy;
pub mod scenario;
pub mod tenant;

pub use arbiter::{Arbiter, JobAccount, Verdict};
pub use baseline::per_job_greedy_cost;
pub use driver::{boot_pool, DrainOrder, FleetCounters, FleetSim, OpenFleet};
pub use outcome::{FleetAggregate, FleetJobOutcome, FleetOutcome};
pub use policy::{
    policy_by_name, CostCooledFairShare, DeadlineAware, Decision, FifoGreedy, FleetEventFold,
    FleetScheduler, FleetView, JobCtx, PendingReq, Purpose, POLICY_NAMES,
};
pub use scenario::{ArrivalProcess, FleetJob, FleetScenario, JobTemplate};
pub use tenant::{SerialEnv, TenantCloud};
