//! Searchers.
//!
//! All three BO-family searchers (HeterBO, ConvBO, CherryPick) share one
//! correct core loop — the policy-driven [`kernel::SearchKernel`], whose
//! five stages ([`policies::InitPolicy`], [`policies::CandidatePruner`],
//! [`policies::FeasibilityGate`], [`policies::AcquisitionPolicy`],
//! [`policies::StopPolicy`]) are composed per searcher by
//! [`bo::BoCore::kernel`] from the [`bo::BoConfig`] mechanism switches —
//! which is also exactly what the ablation study toggles:
//!
//! | mechanism (paper §III-C)        | HeterBO | ConvBO | CherryPick |
//! |---------------------------------|---------|--------|------------|
//! | init: one node per type         | ✔       | random | random     |
//! | cost-penalised acquisition      | ✔       | ✘      | ✘          |
//! | constraint-aware TEI filter     | ✔       | ✘      | ✘          |
//! | protective budget reserve       | ✔       | ✘¹     | ✘¹         |
//! | concave scale-out prior         | ✔       | ✘      | ✘          |
//! | experience-trimmed space        | ✘       | ✘      | ✔          |
//! | EI stop threshold               | 5 % CI  | 1 %    | 10 %       |
//!
//! ¹ the Fig 18 "improved" variants (`ConvBo::budget_aware`,
//! `CherryPick::budget_aware`) switch the reserve on.

pub mod bo;
pub mod exhaustive;
pub mod kernel;
pub mod policies;
pub mod random;
pub mod surrogate;
pub mod trace;

pub use bo::{BoConfig, BoConfigBuilder, CherryPick, ConvBo, HeterBo, InitStrategy};
pub use exhaustive::ExhaustiveSearch;
pub use kernel::SearchKernel;
pub use random::RandomSearch;
pub use surrogate::Surrogate;
pub use trace::{NullSink, PruneReason, SearchTrace, TraceEvent, TraceSink};

use crate::env::ProfilingEnv;
use crate::observation::{Observation, SearchOutcome};
use crate::scenario::Scenario;
use mlcd_cloudsim::Money;

/// The CLI/service searcher names [`searcher_by_name`] resolves, in the
/// order help text lists them. `paleo` is absent: it is an analytical
/// baseline with no search loop, handled by
/// [`crate::experiment::ExperimentRunner::run_paleo`].
pub const SEARCHER_NAMES: [&str; 6] =
    ["heterbo", "heterbo-parallel", "convbo", "cherrypick", "random", "exhaustive"];

/// Construct a searcher from its CLI/service name, seeded. Returns `None`
/// for unknown names. The boxed searcher is `Send + Sync`: searchers are
/// plain configuration structs, so service sessions can build and run
/// them on worker threads.
pub fn searcher_by_name(name: &str, seed: u64) -> Option<Box<dyn Searcher + Send + Sync>> {
    Some(match name {
        "heterbo" => Box::new(HeterBo::seeded(seed)),
        "heterbo-parallel" => Box::new(HeterBo::with_parallel_init(seed)),
        "convbo" => Box::new(ConvBo::seeded(seed)),
        "cherrypick" => Box::new(CherryPick::seeded(seed)),
        "random" => Box::new(RandomSearch::new(9, seed)),
        "exhaustive" => Box::new(ExhaustiveSearch::strided(10)),
        _ => return None,
    })
}

/// A deployment search strategy.
pub trait Searcher {
    /// Short identifier used in figures and reports.
    fn name(&self) -> &'static str;

    /// Run the search against `env`, honouring (or, for the baselines,
    /// ignoring) the scenario's constraints.
    fn search(&self, env: &mut dyn ProfilingEnv, scenario: &Scenario) -> SearchOutcome;

    /// Run the search while narrating structured [`TraceEvent`]s into
    /// `sink`. Tracing is pure observation: the outcome is bit-identical
    /// to [`Searcher::search`]. The default ignores the sink — searchers
    /// without an instrumented loop simply produce an empty trace.
    fn search_traced(
        &self,
        env: &mut dyn ProfilingEnv,
        scenario: &Scenario,
        sink: &mut dyn TraceSink,
    ) -> SearchOutcome {
        let _ = sink;
        self.search(env, scenario)
    }
}

/// Pick the best observation under the scenario's objective and
/// constraints.
///
/// * Scenario-1: fastest.
/// * Scenario-2: cheapest-to-train among those that can still finish
///   before the deadline (given profiling time already `elapsed`);
///   falls back to the fastest when none can.
/// * Scenario-3: fastest among those whose training would still fit the
///   remaining budget; falls back to the cheapest when none fit.
///
/// `constraint_aware = false` (the ConvBO/CherryPick behaviour) ranks by
/// objective only and never checks feasibility — which is how those
/// baselines end up violating deadlines/budgets.
pub fn pick_incumbent<'a>(
    observations: &'a [Observation],
    scenario: &Scenario,
    total_samples: f64,
    elapsed: mlcd_cloudsim::SimDuration,
    spent: Money,
    constraint_aware: bool,
) -> Option<&'a Observation> {
    if observations.is_empty() {
        return None;
    }
    let by_utility =
        |obs: &&Observation| scenario.utility(&obs.deployment, total_samples, obs.speed);
    if !constraint_aware {
        return observations.iter().max_by(|a, b| by_utility(a).total_cmp(&by_utility(b)));
    }
    let feasible: Vec<&Observation> = observations
        .iter()
        .filter(|obs| {
            let m = crate::scenario::projection_margin(obs.deployment.n);
            let train_t = Scenario::training_time(total_samples, obs.speed) * m;
            let train_c =
                Scenario::training_cost(&obs.deployment, total_samples, obs.speed).scale(m);
            match scenario {
                Scenario::FastestUnlimited => true,
                Scenario::CheapestWithDeadline(tmax) => {
                    (elapsed + train_t).as_secs() <= tmax.as_secs()
                }
                Scenario::FastestWithBudget(cmax) => (spent + train_c).dollars() <= cmax.dollars(),
            }
        })
        .collect();
    if let Some(best) = feasible.iter().max_by(|a, b| by_utility(a).total_cmp(&by_utility(b))) {
        return Some(best);
    }
    // Nothing satisfies the constraint any more: least-bad fallback —
    // fastest for a deadline (minimises the overrun), cheapest for a
    // budget (minimises the overspend).
    match scenario {
        Scenario::CheapestWithDeadline(_) => {
            observations.iter().max_by(|a, b| a.speed.total_cmp(&b.speed))
        }
        _ => observations.iter().min_by(|a, b| {
            Scenario::training_cost(&a.deployment, total_samples, a.speed).dollars().total_cmp(
                &Scenario::training_cost(&b.deployment, total_samples, b.speed).dollars(),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use mlcd_cloudsim::{InstanceType, SimDuration};

    fn obs(itype: InstanceType, n: u32, speed: f64) -> Observation {
        Observation {
            deployment: Deployment::new(itype, n),
            speed,
            profile_time: SimDuration::from_mins(10.0),
            profile_cost: Money::from_dollars(0.1),
        }
    }

    #[test]
    fn scenario1_picks_fastest() {
        let observations = vec![
            obs(InstanceType::C5Xlarge, 1, 100.0),
            obs(InstanceType::C5Xlarge, 10, 500.0),
            obs(InstanceType::P2Xlarge, 2, 300.0),
        ];
        let best = pick_incumbent(
            &observations,
            &Scenario::FastestUnlimited,
            1e6,
            SimDuration::ZERO,
            Money::ZERO,
            true,
        )
        .unwrap();
        assert_eq!(best.speed, 500.0);
    }

    #[test]
    fn scenario2_prefers_cheap_feasible() {
        // 1e6 samples. Fast-but-pricey: 10×p2 at 500/s → 0.56 h × $9/h = $5.
        // Slow-but-cheap: 2×c5.xlarge at 100/s → 2.78 h × $0.34/h = $0.94.
        let observations =
            vec![obs(InstanceType::P2Xlarge, 10, 500.0), obs(InstanceType::C5Xlarge, 2, 100.0)];
        let deadline = Scenario::CheapestWithDeadline(SimDuration::from_hours(4.0));
        let best =
            pick_incumbent(&observations, &deadline, 1e6, SimDuration::ZERO, Money::ZERO, true)
                .unwrap();
        assert_eq!(best.deployment.itype, InstanceType::C5Xlarge);
        // Tighten the deadline below 2.78 h: only the GPU option finishes.
        let tight = Scenario::CheapestWithDeadline(SimDuration::from_hours(1.0));
        let best = pick_incumbent(&observations, &tight, 1e6, SimDuration::ZERO, Money::ZERO, true)
            .unwrap();
        assert_eq!(best.deployment.itype, InstanceType::P2Xlarge);
    }

    #[test]
    fn scenario2_accounts_for_elapsed_profiling() {
        let observations = vec![obs(InstanceType::C5Xlarge, 2, 100.0)]; // 2.78 h to train
        let deadline = Scenario::CheapestWithDeadline(SimDuration::from_hours(3.0));
        // 0 h used: feasible.
        assert!(pick_incumbent(
            &observations,
            &deadline,
            1e6,
            SimDuration::ZERO,
            Money::ZERO,
            true
        )
        .is_some());
        // 2.5 h of profiling used: 2.78 h no longer fits; falls back to the
        // fastest (same single observation) — still Some, but the caller can
        // see the constraint is blown via the experiment runner.
        let fallback = pick_incumbent(
            &observations,
            &deadline,
            1e6,
            SimDuration::from_hours(2.5),
            Money::ZERO,
            true,
        );
        assert!(fallback.is_some());
    }

    #[test]
    fn scenario3_budget_filter() {
        // Training costs at 1e6 samples: 10×p2 (500/s): $5.0; 2×c5 (100/s): $0.94.
        let observations =
            vec![obs(InstanceType::P2Xlarge, 10, 500.0), obs(InstanceType::C5Xlarge, 2, 100.0)];
        let budget = Scenario::FastestWithBudget(Money::from_dollars(2.0));
        let best =
            pick_incumbent(&observations, &budget, 1e6, SimDuration::ZERO, Money::ZERO, true)
                .unwrap();
        assert_eq!(best.deployment.itype, InstanceType::C5Xlarge);
        let rich = Scenario::FastestWithBudget(Money::from_dollars(50.0));
        let best = pick_incumbent(&observations, &rich, 1e6, SimDuration::ZERO, Money::ZERO, true)
            .unwrap();
        assert_eq!(best.deployment.itype, InstanceType::P2Xlarge);
    }

    #[test]
    fn oblivious_ranking_ignores_constraints() {
        let observations =
            vec![obs(InstanceType::P2Xlarge, 10, 500.0), obs(InstanceType::C5Xlarge, 2, 100.0)];
        let budget = Scenario::FastestWithBudget(Money::from_dollars(2.0));
        // Constraint-oblivious: picks the fast GPU even though it blows the
        // budget — the ConvBO failure mode.
        let best =
            pick_incumbent(&observations, &budget, 1e6, SimDuration::ZERO, Money::ZERO, false)
                .unwrap();
        assert_eq!(best.deployment.itype, InstanceType::P2Xlarge);
    }

    #[test]
    fn empty_observations_give_none() {
        assert!(pick_incumbent(
            &[],
            &Scenario::FastestUnlimited,
            1e6,
            SimDuration::ZERO,
            Money::ZERO,
            true
        )
        .is_none());
    }
}
