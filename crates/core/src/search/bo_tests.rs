//! Behavioural tests for the BO searchers (child module of `bo.rs` so it
//! can reach private fields like `HeterBo::0`).

use super::*;
use crate::deployment::{Deployment, SearchSpace};
use crate::env::SyntheticEnv;
use crate::observation::{Observation, StopReason};
use crate::search::policies::pruning::update_pruning;
use crate::search::trace::SearchTrace;
use mlcd_cloudsim::{Money, SimDuration};
use mlcd_perfmodel::{ThroughputModel, TrainingJob};
use std::collections::BTreeMap;

/// Concave single-type response surface peaking at n = 20.
fn concave_speed(d: &Deployment) -> f64 {
    let base = match d.itype {
        InstanceType::C54xlarge => 1.0,
        InstanceType::C5Xlarge => 0.4,
        InstanceType::P2Xlarge => 0.5,
        _ => 0.3,
    };
    base * (500.0 - 0.9 * (d.n as f64 - 20.0).powi(2)).max(20.0)
}

fn make_env() -> SyntheticEnv<fn(&Deployment) -> f64> {
    let job = TrainingJob::resnet_cifar10();
    let space = SearchSpace::new(
        &[InstanceType::C5Xlarge, InstanceType::C54xlarge, InstanceType::P2Xlarge],
        50,
        &job,
        &ThroughputModel::default(),
    );
    SyntheticEnv::new(space, 5e6, concave_speed as fn(&Deployment) -> f64)
}

#[test]
fn builder_configs_match_the_pre_refactor_literals() {
    // The builder-made constructor configs must equal the exact structs
    // the searchers shipped with before the policy split (field for
    // field — a silent default drift here would un-pin every golden
    // snapshot).
    let expect_heterbo = BoConfig {
        init: InitStrategy::TypeSweep,
        ei_rel_threshold: 0.10,
        ci_stop: true,
        cost_penalty: true,
        constraint_aware: true,
        reserve_protection: true,
        concave_prior: true,
        max_steps: 8,
        min_obs_before_stop: 6,
        account_sunk: true,
        parallel_init: false,
        acquisition: AcquisitionKind::ExpectedImprovement,
        gp_refit_every: 1,
        seed: 42,
    };
    assert_eq!(*HeterBo::seeded(42).core().config(), expect_heterbo);

    let expect_convbo = BoConfig {
        init: InitStrategy::RandomPoints(2),
        ei_rel_threshold: 0.001,
        ci_stop: false,
        cost_penalty: false,
        constraint_aware: false,
        reserve_protection: false,
        concave_prior: false,
        max_steps: 28,
        min_obs_before_stop: 12,
        account_sunk: false,
        parallel_init: false,
        acquisition: AcquisitionKind::ExpectedImprovement,
        gp_refit_every: 1,
        seed: 42,
    };
    assert_eq!(ConvBo::base_config(42), expect_convbo);

    let expect_cherrypick = BoConfig {
        init: InitStrategy::RandomPoints(3),
        ei_rel_threshold: 0.10,
        max_steps: 27,
        min_obs_before_stop: 10,
        seed: 42,
        ..expect_convbo.clone()
    };
    assert_eq!(*CherryPick::seeded(42).0.config(), expect_cherrypick);

    // Budget-aware variants flip exactly the three guard flags.
    let imprd = ConvBo::budget_aware(42);
    let expect_imprd = BoConfig {
        reserve_protection: true,
        constraint_aware: true,
        account_sunk: true,
        ..expect_convbo
    };
    assert_eq!(*imprd.config(), expect_imprd);
}

#[test]
fn heterbo_finds_near_optimal_deployment() {
    let mut env = make_env();
    let out = HeterBo::seeded(1).search(&mut env, &Scenario::FastestUnlimited);
    let best = out.best.expect("should find something");
    // True optimum: c5.4xlarge n=20 at 500 samples/s.
    assert_eq!(best.deployment.itype, InstanceType::C54xlarge);
    assert!(best.speed > 450.0, "found {} at {}, want near 500", best.speed, best.deployment);
}

#[test]
fn heterbo_initialises_with_single_nodes() {
    let mut env = make_env();
    let out = HeterBo::seeded(2).search(&mut env, &Scenario::FastestUnlimited);
    // First three probes are the three types at n=1, cheapest first.
    assert!(out.steps.len() >= 3);
    for step in &out.steps[..3] {
        assert_eq!(step.observation.deployment.n, 1, "init probe {:?}", step.observation);
    }
    assert_eq!(out.steps[0].observation.deployment.itype, InstanceType::C5Xlarge);
}

#[test]
fn heterbo_respects_budget() {
    let mut env = make_env();
    let budget = Money::from_dollars(60.0);
    let out = HeterBo::seeded(3).search(&mut env, &Scenario::FastestWithBudget(budget));
    let best = out.best.expect("should find something");
    let train_cost = Scenario::training_cost(&best.deployment, 5e6, best.speed);
    let total = out.profile_cost + train_cost;
    assert!(
        total.dollars() <= budget.dollars() + 1e-6,
        "HeterBO blew the budget: profiling {} + training {} > {}",
        out.profile_cost,
        train_cost,
        budget
    );
}

#[test]
fn heterbo_respects_deadline() {
    let mut env = make_env();
    let deadline = SimDuration::from_hours(6.0);
    let out = HeterBo::seeded(4).search(&mut env, &Scenario::CheapestWithDeadline(deadline));
    let best = out.best.expect("should find something");
    let train_t = Scenario::training_time(5e6, best.speed);
    assert!(
        (out.profile_time + train_t).as_hours() <= deadline.as_hours() + 1e-9,
        "HeterBO blew the deadline: profiling {:.2} h + training {:.2} h",
        out.profile_time.as_hours(),
        train_t.as_hours()
    );
}

#[test]
fn heterbo_cheaper_profiling_than_convbo() {
    // The headline claim, on the synthetic surface, in the scenario
    // where it is structural: under a budget, HeterBO's cost-penalised
    // acquisition and protective reserve keep probing spend low while
    // ConvBO probes wherever EI points. Averaged over seeds to avoid
    // single-draw luck.
    let scenario = Scenario::FastestWithBudget(Money::from_dollars(150.0));
    let (mut h_cost, mut c_cost, mut h_speed, mut c_speed) = (0.0, 0.0, 0.0, 0.0);
    for seed in 0..3 {
        let mut env_h = make_env();
        let h = HeterBo::seeded(seed).search(&mut env_h, &scenario);
        let mut env_c = make_env();
        let c = ConvBo::seeded(seed).search(&mut env_c, &scenario);
        h_cost += h.profile_cost.dollars();
        c_cost += c.profile_cost.dollars();
        h_speed += h.best.unwrap().speed;
        c_speed += c.best.unwrap().speed;
    }
    assert!(
        h_cost < c_cost,
        "HeterBO mean profiling ${:.2} vs ConvBO ${:.2}",
        h_cost / 3.0,
        c_cost / 3.0
    );
    // And it still finds comparable deployments on average.
    assert!(h_speed >= c_speed * 0.8, "HeterBO {h_speed} vs ConvBO {c_speed}");
}

#[test]
fn concave_prior_prunes_scale_out() {
    // After observing a decline, no probe of that type goes further out.
    let mut env = make_env();
    let out = HeterBo::seeded(6).search(&mut env, &Scenario::FastestUnlimited);
    // Find, per type, the first adjacent-observed decline; later steps
    // must not exceed it.
    let mut decline_at: BTreeMap<InstanceType, u32> = BTreeMap::new();
    let mut seen: Vec<Observation> = Vec::new();
    for step in &out.steps {
        let o = step.observation;
        if let Some(&cap) = decline_at.get(&o.deployment.itype) {
            assert!(
                o.deployment.n <= cap,
                "probed {} beyond pruned cap {} (step {})",
                o.deployment,
                cap,
                step.index
            );
        }
        seen.push(o);
        let mut map = BTreeMap::new();
        update_pruning(&seen, &mut map);
        decline_at = map;
    }
}

#[test]
fn convbo_ignores_constraints_and_can_violate() {
    // With a tiny budget, ConvBO happily profiles expensive clusters.
    let mut env = make_env();
    let budget = Money::from_dollars(5.0);
    let out = ConvBo::seeded(7).search(&mut env, &Scenario::FastestWithBudget(budget));
    // ConvBO still returns its objective-best; its profiling spend alone
    // may exceed the budget.
    assert!(out.best.is_some());
    let total = out.profile_cost;
    // (Not asserting violation must happen for every seed — but the
    // search must NOT have stopped due to reserve protection.)
    assert_ne!(out.stop_reason, StopReason::ReserveProtection);
    let _ = total;
}

#[test]
fn budget_aware_variants_stop_in_time() {
    let budget = Money::from_dollars(40.0);
    let scenario = Scenario::FastestWithBudget(budget);
    for core in [ConvBo::budget_aware(8), CherryPick::budget_aware(8, None)] {
        let mut env = make_env();
        let out = core.search(&mut env, &scenario);
        if let Some(best) = out.best {
            let train = Scenario::training_cost(&best.deployment, 5e6, best.speed);
            assert!(
                (out.profile_cost + train).dollars() <= budget.dollars() + 1e-6,
                "{}: profiling {} + training {}",
                core.name(),
                out.profile_cost,
                train
            );
        }
    }
}

#[test]
fn cherrypick_sticks_to_coarse_grid_and_trimmed_types() {
    let mut env = make_env();
    let cp = CherryPick::with_experience(9, vec![InstanceType::C54xlarge]);
    let out = cp.search(&mut env, &Scenario::FastestUnlimited);
    for step in &out.steps {
        let d = step.observation.deployment;
        assert_eq!(d.itype, InstanceType::C54xlarge);
        assert!(CherryPick::DEFAULT_NODE_GRID.contains(&d.n), "off-grid probe {d}");
    }
    assert!(out.best.is_some());
}

#[test]
fn ucb_and_poi_acquisitions_also_find_the_optimum() {
    // The acquisition choice is pluggable; on the easy synthetic
    // surface every standard kind should land near the peak.
    for kind in [
        AcquisitionKind::UpperConfidenceBound { kappa: 2.0 },
        AcquisitionKind::ProbabilityOfImprovement { margin_frac: 0.02 },
    ] {
        let mut cfg = HeterBo::seeded(21).core().config().clone();
        cfg.acquisition = kind;
        let core = BoCore::new("acq-variant", cfg);
        let mut env = make_env();
        let out = core.search(&mut env, &Scenario::FastestUnlimited);
        let best = out.best.expect("found something");
        assert!(best.speed > 430.0, "{kind:?} found only {} at {}", best.speed, best.deployment);
    }
}

#[test]
fn parallel_init_probes_the_same_points() {
    // On the synthetic env (no concurrency support → sequential
    // fallback) parallel-init must behave identically.
    let mut env_a = make_env();
    let a = HeterBo::seeded(13).search(&mut env_a, &Scenario::FastestUnlimited);
    let mut env_b = make_env();
    let b = HeterBo::with_parallel_init(13).search(&mut env_b, &Scenario::FastestUnlimited);
    let firsts = |o: &SearchOutcome| {
        o.steps.iter().take(3).map(|s| s.observation.deployment).collect::<Vec<_>>()
    };
    assert_eq!(firsts(&a), firsts(&b));
    assert_eq!(a.best.unwrap().deployment, b.best.unwrap().deployment);
}

#[test]
fn searches_are_deterministic_per_seed() {
    let run = |seed| {
        let mut env = make_env();
        let out = HeterBo::seeded(seed).search(&mut env, &Scenario::FastestUnlimited);
        (out.best.map(|b| b.deployment), out.steps.len())
    };
    assert_eq!(run(11), run(11));
}

#[test]
fn traced_search_is_bit_identical_to_untraced() {
    // The trace layer is pure observation: running the same searcher with
    // a collecting sink must reproduce the silent run bit for bit, for
    // every searcher family.
    let scenario = Scenario::FastestWithBudget(Money::from_dollars(120.0));
    let searchers: Vec<Box<dyn Searcher>> = vec![
        Box::new(HeterBo::seeded(23)),
        Box::new(ConvBo::seeded(23)),
        Box::new(CherryPick::seeded(23)),
    ];
    for s in searchers {
        let mut env_a = make_env();
        let silent = s.search(&mut env_a, &scenario);
        let mut env_b = make_env();
        let mut trace = SearchTrace::default();
        let traced = s.search_traced(&mut env_b, &scenario, &mut trace);
        assert_eq!(silent.steps.len(), traced.steps.len(), "{}", s.name());
        for (x, y) in silent.steps.iter().zip(&traced.steps) {
            assert_eq!(x.observation.deployment, y.observation.deployment);
            assert_eq!(x.observation.speed.to_bits(), y.observation.speed.to_bits());
            assert_eq!(x.cum_profile_cost, y.cum_profile_cost);
        }
        assert_eq!(silent.stop_reason, traced.stop_reason);
        assert_eq!(trace.probes().count(), traced.steps.len(), "{}", s.name());
        assert_eq!(trace.stop_reason(), Some(traced.stop_reason));
    }
}

#[test]
fn empty_space_yields_nothing_feasible() {
    // A pool emptied by type restriction.
    let mut env = make_env();
    let core =
        BoCore::new("empty", ConvBo::base_config(0)).with_types(vec![InstanceType::C5n9xlarge]);
    let out = core.search(&mut env, &Scenario::FastestUnlimited);
    assert!(out.best.is_none());
    assert_eq!(out.stop_reason, StopReason::NothingFeasible);
}

#[test]
fn max_steps_is_respected() {
    let mut env = make_env();
    let mut cfg = ConvBo::base_config(1);
    cfg.ei_rel_threshold = 0.0; // never converge
    cfg.max_steps = 5;
    let out = BoCore::new("capped", cfg).search(&mut env, &Scenario::FastestUnlimited);
    // max_steps caps BO-loop probes; the 2 random init probes are extra.
    assert_eq!(out.steps.len(), 2 + 5);
    assert_eq!(out.stop_reason, StopReason::MaxSteps);
}

/// Wraps an env and refuses every launch of one deployment, counting the
/// attempts.
struct RefusingEnv<E> {
    inner: E,
    refused: Deployment,
    attempts: usize,
}

impl<E: ProfilingEnv> ProfilingEnv for RefusingEnv<E> {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }
    fn total_samples(&self) -> f64 {
        self.inner.total_samples()
    }
    fn quote(&self, d: &Deployment) -> (SimDuration, Money) {
        self.inner.quote(d)
    }
    fn profile(&mut self, d: &Deployment) -> Result<Observation, crate::env::ProfileError> {
        if *d == self.refused {
            self.attempts += 1;
            return Err(crate::env::ProfileError::Failed("capacity refused".into()));
        }
        self.inner.profile(d)
    }
    fn elapsed(&self) -> SimDuration {
        self.inner.elapsed()
    }
    fn spent(&self) -> Money {
        self.inner.spent()
    }
}

#[test]
fn a_refused_probe_is_retired_not_retried() {
    // Under a 6 h deadline the infeasible-incumbent frontier chases
    // c5.4xlarge x4. A refused launch takes no simulated time, so a
    // search that left the refused candidate in the pool re-picked it
    // forever with the clock frozen. The search must end, and must ask
    // for the refused deployment exactly once.
    let refused = Deployment::new(InstanceType::C54xlarge, 4);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut env = RefusingEnv { inner: make_env(), refused, attempts: 0 };
        let deadline = Scenario::CheapestWithDeadline(SimDuration::from_hours(6.0));
        let out = HeterBo::seeded(1).search(&mut env, &deadline);
        let _ = tx.send((env.attempts, out.steps.len()));
    });
    let (attempts, steps) = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("search livelocked on a refused probe");
    assert_eq!(attempts, 1, "the refused deployment must be retired after one attempt");
    assert!(steps > 0);
}
