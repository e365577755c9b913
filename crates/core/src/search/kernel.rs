//! The policy-driven search kernel: one BO loop, five swappable stages.
//!
//! [`SearchKernel`] owns a composition of
//! [`InitPolicy`] + [`CandidatePruner`]s + [`FeasibilityGate`] +
//! [`AcquisitionPolicy`] + [`StopPolicy`] and runs the loop that used to
//! live inside `BoCore::run`. The searchers in [`crate::search::bo`] are
//! declarative compositions built by [`crate::search::bo::BoCore::kernel`];
//! custom variants compose their own via [`SearchKernel::builder`] (see
//! `examples/custom_searcher.rs`).
//!
//! Every decision the kernel takes is narrated into a [`TraceSink`]; the
//! trace is pure observation and never perturbs the search (pinned by the
//! golden snapshot tests).

use crate::deployment::Deployment;
use crate::env::{ProfileError, ProfilingEnv};
use crate::observation::{Observation, SearchOutcome, SearchStep, StopReason};
use crate::scenario::{Objective, Scenario};
use crate::search::pick_incumbent;
use crate::search::policies::{
    incumbent_feasible, AcquisitionPolicy, CandidatePruner, ConvergenceStop,
    CostPenalisedAcquisition, FeasibilityGate, FrontierContext, InitPolicy, RandomInit,
    StopContext, StopPolicy, TeiReserveGate,
};
use crate::search::surrogate::Surrogate;
use crate::search::trace::{PruneReason, TraceEvent, TraceSink};
use mlcd_cloudsim::{Money, SimDuration};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::RefCell;

use super::policies::feasibility::TEI_SIGMAS;

/// The cold-start exploration fallback may burn at most this fraction of
/// the deadline/budget before conceding that the constraint is lost.
pub const HATCH_FRACTION: f64 = 0.5;

/// Probe one deployment and record it: observation list, step log and
/// trace. The deployment is retired from the pool either way: a refused
/// launch takes no simulated time, so leaving it in the pool would let
/// the next step re-pick it forever with the clock frozen. On failure
/// only a [`TraceEvent::ProbeFailed`] is traced.
#[allow(clippy::too_many_arguments)]
fn probe_once(
    d: &Deployment,
    env: &mut dyn ProfilingEnv,
    observations: &mut Vec<Observation>,
    steps: &mut Vec<SearchStep>,
    probed: &mut Vec<Deployment>,
    sink: &mut dyn TraceSink,
    init: bool,
) -> Result<(), ProfileError> {
    probed.push(*d);
    match env.profile(d) {
        Ok(obs) => {
            observations.push(obs);
            steps.push(SearchStep {
                index: steps.len() + 1,
                observation: obs,
                cum_profile_time: env.elapsed(),
                cum_profile_cost: env.spent(),
            });
            let (cum_profile_time, cum_profile_cost) = (env.elapsed(), env.spent());
            sink.record(if init {
                TraceEvent::InitProbe { observation: obs, cum_profile_time, cum_profile_cost }
            } else {
                TraceEvent::Probe { observation: obs, cum_profile_time, cum_profile_cost }
            });
            Ok(())
        }
        Err(e) => {
            sink.record(TraceEvent::ProbeFailed { deployment: *d, error: e.to_string() });
            Err(e)
        }
    }
}

/// A complete, runnable composition of the five stage policies.
///
/// Consumed by [`SearchKernel::run`] — pruners carry mutable state (the
/// concave prior's caps), so a kernel runs exactly one search; build a
/// fresh one per search.
pub struct SearchKernel {
    name: &'static str,
    seed: u64,
    account_sunk: bool,
    constraint_aware: bool,
    refit_every: usize,
    init: Box<dyn InitPolicy>,
    pruners: Vec<Box<dyn CandidatePruner>>,
    gate: Box<dyn FeasibilityGate>,
    acquisition: Box<dyn AcquisitionPolicy>,
    stop: Box<dyn StopPolicy>,
}

impl SearchKernel {
    /// Start composing a kernel. The defaults are a plain
    /// constraint-oblivious BO (random 3-point init, no pruning, EI, 10 %
    /// stop) — override stages as needed.
    pub fn builder(name: &'static str) -> SearchKernelBuilder {
        SearchKernelBuilder {
            kernel: SearchKernel {
                name,
                seed: 0,
                account_sunk: false,
                constraint_aware: false,
                refit_every: 1,
                init: Box::new(RandomInit { k: 3, parallel: false }),
                pruners: Vec::new(),
                gate: Box::new(TeiReserveGate {
                    reserve_protection: false,
                    constraint_aware: false,
                    min_obs_before_stop: 10,
                }),
                acquisition: Box::new(CostPenalisedAcquisition {
                    kind: crate::acquisition::AcquisitionKind::ExpectedImprovement,
                    cost_penalty: false,
                }),
                stop: Box::new(ConvergenceStop {
                    ei_rel_threshold: 0.10,
                    ci_stop: false,
                    max_steps: 27,
                    min_obs_before_stop: 10,
                }),
            },
        }
    }

    /// The kernel's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Run the search, narrating every decision into `sink`.
    pub fn run(
        mut self,
        env: &mut dyn ProfilingEnv,
        scenario: &Scenario,
        sink: &mut dyn TraceSink,
    ) -> SearchOutcome {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut pool: Vec<Deployment> = env.space().candidates().to_vec();
        for p in &self.pruners {
            p.trim_pool(&mut pool);
        }
        if pool.is_empty() {
            sink.record(TraceEvent::Stopped { reason: StopReason::NothingFeasible });
            return SearchOutcome::empty(StopReason::NothingFeasible);
        }
        let total_samples = env.total_samples();

        let mut observations: Vec<Observation> = Vec::new();
        let mut steps: Vec<SearchStep> = Vec::new();
        let mut probed: Vec<Deployment> = Vec::new();

        // ----- Initialisation -----
        let init_points = self.init.points(&pool, &mut rng);
        // Ranking totals: HeterBO counts profiling spend against the
        // constraint; the oblivious baselines rank as if profiling were
        // free (and then pay for it in the executed total).
        let account_sunk = self.account_sunk;
        let rank_totals = move |env: &dyn ProfilingEnv| {
            if account_sunk {
                (env.elapsed(), env.spent())
            } else {
                (SimDuration::ZERO, Money::ZERO)
            }
        };

        if self.init.parallel() {
            let affordable = self.gate.filter_init_batch(env, scenario, &init_points);
            for (d, result) in affordable.iter().zip(env.profile_batch(&affordable)) {
                match result {
                    Ok(obs) => {
                        observations.push(obs);
                        probed.push(*d);
                        steps.push(SearchStep {
                            index: steps.len() + 1,
                            observation: obs,
                            cum_profile_time: env.elapsed(),
                            cum_profile_cost: env.spent(),
                        });
                        sink.record(TraceEvent::InitProbe {
                            observation: obs,
                            cum_profile_time: env.elapsed(),
                            cum_profile_cost: env.spent(),
                        });
                    }
                    Err(e) => sink
                        .record(TraceEvent::ProbeFailed { deployment: *d, error: e.to_string() }),
                }
            }
        } else {
            for d in &init_points {
                let (re, rs) = rank_totals(env);
                let guard_ok = match pick_incumbent(
                    &observations,
                    scenario,
                    total_samples,
                    re,
                    rs,
                    self.constraint_aware,
                ) {
                    Some(inc) => {
                        let inc = *inc;
                        self.gate.probe_respects_reserve(env, scenario, d, &inc)
                    }
                    None => self.gate.probe_fits_raw(env, scenario, d),
                };
                if !guard_ok {
                    sink.record(TraceEvent::ReserveBlocked { deployment: *d });
                    continue;
                }
                let _ = probe_once(d, env, &mut observations, &mut steps, &mut probed, sink, true);
            }
        }
        if observations.is_empty() {
            sink.record(TraceEvent::Stopped { reason: StopReason::NothingFeasible });
            return SearchOutcome::empty(StopReason::NothingFeasible);
        }
        for p in self.pruners.iter_mut() {
            p.observe(&observations, sink);
        }

        // ----- BO loop -----
        let init_count = steps.len();
        let mut surrogate_state: Option<Surrogate> = None;
        // One scoring workspace and one set of acquisition buffers for the
        // whole search, sized up front so the per-step batched posterior
        // and acquisition below never reallocate: the model can grow to
        // at most init_count + max_steps observations and a scoring batch
        // is at most the whole pool.
        let mut score_ws = mlcd_gp::ScoreWorkspace::new();
        score_ws.reserve(
            crate::deployment::SearchSpace::FEATURE_DIM,
            init_count + self.stop.max_steps() + 1,
            pool.len(),
        );
        let mut acq_bufs = crate::acquisition::AcquisitionBuffers::default();
        acq_bufs.reserve(pool.len());
        let mut best_traced_utility = f64::NEG_INFINITY;
        let stop_reason = loop {
            if steps.len() >= init_count + self.stop.max_steps() {
                break StopReason::MaxSteps;
            }
            let (re, rs) = rank_totals(env);
            let incumbent = match pick_incumbent(
                &observations,
                scenario,
                total_samples,
                re,
                rs,
                self.constraint_aware,
            ) {
                Some(i) => *i,
                None => break StopReason::NothingFeasible,
            };
            let inc_utility =
                scenario.utility(&incumbent.deployment, total_samples, incumbent.speed);
            if inc_utility > best_traced_utility {
                best_traced_utility = inc_utility;
                sink.record(TraceEvent::IncumbentChanged {
                    observation: incumbent,
                    utility: inc_utility,
                });
            }
            let threshold = self.stop.ei_threshold(inc_utility);

            let mut unprobed: Vec<Deployment> = Vec::new();
            for d in pool.iter().filter(|d| !probed.contains(d)) {
                if self.pruners.iter().all(|p| p.admits(d)) {
                    unprobed.push(*d);
                } else {
                    sink.record(TraceEvent::CandidatePruned {
                        deployment: *d,
                        reason: PruneReason::ConcavePrior,
                    });
                }
            }
            if unprobed.is_empty() {
                break StopReason::SpaceExhausted;
            }

            surrogate_state = Surrogate::update(
                surrogate_state.take(),
                env.space(),
                &observations,
                self.seed,
                self.refit_every,
            );
            let Some(ref surrogate) = surrogate_state else {
                // Not enough data for a model yet: explore a random
                // reserve-respecting candidate.
                let mut shuffled = unprobed.clone();
                shuffled.shuffle(&mut rng);
                let pick = shuffled
                    .iter()
                    .find(|d| self.gate.probe_respects_reserve(env, scenario, d, &incumbent));
                match pick {
                    Some(d) => {
                        let d = *d;
                        let _ = probe_once(
                            &d,
                            env,
                            &mut observations,
                            &mut steps,
                            &mut probed,
                            sink,
                            false,
                        );
                        for p in self.pruners.iter_mut() {
                            p.observe(&observations, sink);
                        }
                        continue;
                    }
                    None => break StopReason::ReserveProtection,
                }
            };

            // One batched GP posterior over the whole pool per step —
            // shared by the acquisition scoring, the frontier filter and
            // the CI-stop scan below, so each candidate costs exactly one
            // prediction per step.
            surrogate.predict_batch_into(env.space(), &unprobed, &mut score_ws);
            let preds = score_ws.predictions();
            let bufs = &mut acq_bufs;
            let pred_of =
                |d: &Deployment| unprobed.iter().position(|u| u == d).and_then(|i| preds.get(i));
            let incumbent_ok = incumbent_feasible(env, scenario, &incumbent);
            // Budget-rescue mode: see `TeiReserveGate::tei_feasible` — an
            // infeasible budget incumbent turns the TEI filter on
            // regardless of how young the surrogate is.
            let budget_rescue = !incumbent_ok && matches!(scenario, Scenario::FastestWithBudget(_));

            // Score every candidate, in three passes that take today's
            // decisions in today's order: the gates in candidate order,
            // one batched acquisition over the admitted candidates, then
            // the events and the running best in candidate order.
            let mut any_reserve_blocked = false;
            // Candidates that pass the reserve but fail TEI — kept around
            // for the cold-start exploration fallback below.
            let mut tei_blocked: Vec<(Deployment, f64 /*optimistic speed*/)> = Vec::new();
            let rates = crate::search::policies::pruning::per_type_speed_rate(&observations);
            bufs.admitted.clear();
            for (i, (d, pred)) in unprobed.iter().zip(preds).enumerate() {
                if !self.gate.probe_respects_reserve(env, scenario, d, &incumbent) {
                    any_reserve_blocked = true;
                } else if !self.gate.tei_feasible(
                    env,
                    scenario,
                    d,
                    pred,
                    observations.len(),
                    &rates,
                    budget_rescue,
                ) {
                    tei_blocked.push((*d, pred.mean + TEI_SIGMAS * pred.stddev()));
                } else {
                    bufs.admitted.push(i);
                }
            }
            self.acquisition.utility_ei_batch(
                scenario,
                total_samples,
                &unprobed,
                preds,
                &incumbent,
                bufs,
            );
            // Each scored candidate's POI only feeds its trace event; a
            // sink that keeps nothing does not pay for it.
            bufs.poi.clear();
            if sink.keeps_events() {
                self.acquisition.utility_poi_batch(
                    scenario,
                    total_samples,
                    &unprobed,
                    preds,
                    &incumbent,
                    threshold,
                    bufs,
                );
            }
            let mut best: Option<(Deployment, f64 /*score*/, f64 /*ei*/)> = None;
            let mut scored = bufs.admitted.iter().zip(&bufs.ei).peekable();
            let mut pois = bufs.poi.iter();
            let mut pruned = tei_blocked.iter().map(|b| b.0).peekable();
            for (i, d) in unprobed.iter().enumerate() {
                let Some((_, &ei)) = scored.next_if(|&(&at, _)| at == i) else {
                    sink.record(if pruned.next_if_eq(d).is_some() {
                        TraceEvent::CandidatePruned {
                            deployment: *d,
                            reason: PruneReason::TeiInfeasible,
                        }
                    } else {
                        TraceEvent::ReserveBlocked { deployment: *d }
                    });
                    continue;
                };
                let poi = pois.next().copied().unwrap_or(f64::NAN);
                let score = ei / self.acquisition.penalty(env, scenario, d);
                sink.record(TraceEvent::CandidateScored { deployment: *d, ei, poi, score });
                if best.as_ref().is_none_or(|b| score > b.1) {
                    best = Some((*d, score, ei));
                }
            }

            // Frontier exploration from the concave prior's rising branch:
            // un-bent types whose next scale-out step could still pay.
            // When a deadline incumbent is infeasible, the frontier chases
            // raw speed (feasibility first); its bonus then lives in speed
            // units and must pre-empt the cost-unit EI comparison rather
            // than join it.
            let chase_speed = !incumbent_ok && scenario.objective() == Objective::MinCost;
            let fctx = FrontierContext {
                unprobed: &unprobed,
                observations: &observations,
                rates: &rates,
                scenario,
                incumbent: &incumbent,
                chase_speed,
            };
            let frontier: Vec<(Deployment, f64)> =
                self.pruners.iter().flat_map(|p| p.frontier(&fctx)).collect();
            let mut max_frontier_bonus = 0.0_f64;
            let mut forced_frontier: Option<(Deployment, f64)> = None;
            for (d, bonus) in &frontier {
                if !self.gate.probe_respects_reserve(env, scenario, d, &incumbent) {
                    any_reserve_blocked = true;
                    sink.record(TraceEvent::ReserveBlocked { deployment: *d });
                    continue;
                }
                // While rescuing a busted budget, a frontier step whose own
                // completion cannot fit is as useless as any other — apply
                // the same TEI filter the scored candidates went through.
                if budget_rescue {
                    if let Some(pred) = pred_of(d) {
                        if !self.gate.tei_feasible(
                            env,
                            scenario,
                            d,
                            pred,
                            observations.len(),
                            &rates,
                            budget_rescue,
                        ) {
                            tei_blocked.push((*d, pred.mean + TEI_SIGMAS * pred.stddev()));
                            sink.record(TraceEvent::CandidatePruned {
                                deployment: *d,
                                reason: PruneReason::TeiInfeasible,
                            });
                            continue;
                        }
                    }
                }
                max_frontier_bonus = max_frontier_bonus.max(*bonus);
                let score = bonus / self.acquisition.penalty(env, scenario, d);
                sink.record(TraceEvent::CandidateScored {
                    deployment: *d,
                    ei: *bonus,
                    poi: 1.0,
                    score,
                });
                if chase_speed {
                    if forced_frontier.as_ref().is_none_or(|f| score > f.1) {
                        forced_frontier = Some((*d, score));
                    }
                } else if best.as_ref().is_none_or(|b| score > b.1) {
                    best = Some((*d, score, *bonus));
                }
            }
            if let Some((d_force, _)) = forced_frontier {
                let _ = probe_once(
                    &d_force,
                    env,
                    &mut observations,
                    &mut steps,
                    &mut probed,
                    sink,
                    false,
                );
                for p in self.pruners.iter_mut() {
                    p.observe(&observations, sink);
                }
                continue;
            }

            let Some((d_next, _, best_ei)) = best else {
                // Cold-start escape hatch: TEI judged every candidate
                // hopeless, but the judgment rests on a near-empty model
                // and we hold no feasible incumbent to retreat to. The
                // constraint may well still be reachable at scales the GP
                // knows nothing about — explore the most optimistic
                // blocked candidate (raw guard already vetted) instead of
                // giving up with an infeasible answer.
                let hatch_open = match scenario {
                    Scenario::FastestUnlimited => true,
                    Scenario::CheapestWithDeadline(tmax) => {
                        env.elapsed().as_secs() < HATCH_FRACTION * tmax.as_secs()
                    }
                    Scenario::FastestWithBudget(cmax) => {
                        env.spent().dollars() < HATCH_FRACTION * cmax.dollars()
                    }
                };
                if hatch_open && !incumbent_ok && !tei_blocked.is_empty() {
                    let (d_explore, _) = tei_blocked
                        .iter()
                        .max_by(|a, b| a.1.total_cmp(&b.1))
                        .copied()
                        // lint: allow(hot-panic) — guarded by !tei_blocked.is_empty() above
                        .expect("non-empty");
                    let _ = probe_once(
                        &d_explore,
                        env,
                        &mut observations,
                        &mut steps,
                        &mut probed,
                        sink,
                        false,
                    );
                    for p in self.pruners.iter_mut() {
                        p.observe(&observations, sink);
                    }
                    continue;
                }
                break if any_reserve_blocked {
                    StopReason::ReserveProtection
                } else {
                    StopReason::SpaceExhausted
                };
            };

            // Stop tests: the policy sees this step's statistics; the POI
            // scan over the batched posterior stays lazy — only a CI-aware
            // policy pays for it, through one batch over every candidate.
            let bufs = RefCell::new(bufs);
            let max_poi = || {
                let mut bufs = bufs.borrow_mut();
                bufs.admitted.clear();
                bufs.admitted.extend(0..unprobed.len());
                self.acquisition.utility_poi_batch(
                    scenario,
                    total_samples,
                    &unprobed,
                    preds,
                    &incumbent,
                    threshold,
                    &mut bufs,
                );
                bufs.poi.iter().copied().fold(0.0_f64, f64::max)
            };
            let ctx = StopContext {
                n_obs: observations.len(),
                threshold,
                best_ei,
                max_frontier_bonus,
                max_poi: &max_poi,
            };
            if let Some(reason) = self.stop.should_stop(&ctx) {
                break reason;
            }

            if probe_once(&d_next, env, &mut observations, &mut steps, &mut probed, sink, false)
                .is_err()
            {
                continue; // nothing new for the pruners to observe
            }
            for p in self.pruners.iter_mut() {
                p.observe(&observations, sink);
            }
        };

        let (re, rs) = rank_totals(env);
        let best = pick_incumbent(&observations, scenario, total_samples, re, rs, true).copied();
        sink.record(TraceEvent::Stopped { reason: stop_reason });
        SearchOutcome {
            best,
            steps,
            profile_time: env.elapsed(),
            profile_cost: env.spent(),
            stop_reason,
        }
    }
}

/// Composes a [`SearchKernel`] stage by stage.
pub struct SearchKernelBuilder {
    kernel: SearchKernel,
}

impl SearchKernelBuilder {
    /// RNG seed (init points, tie-breaks, GP restarts).
    pub fn seed(mut self, seed: u64) -> Self {
        self.kernel.seed = seed;
        self
    }

    /// Whether profiling time/money already spent counts against the
    /// deadline/budget when ranking deployments.
    pub fn account_sunk(mut self, on: bool) -> Self {
        self.kernel.account_sunk = on;
        self
    }

    /// Rank incumbents with the scenario's feasibility filter.
    pub fn constraint_aware(mut self, on: bool) -> Self {
        self.kernel.constraint_aware = on;
        self
    }

    /// Refit GP hyperparameters every k-th observation, extending the
    /// posterior incrementally in between (see [`Surrogate::update`]).
    pub fn refit_every(mut self, k: usize) -> Self {
        self.kernel.refit_every = k;
        self
    }

    /// The initialisation stage.
    pub fn init(mut self, init: Box<dyn InitPolicy>) -> Self {
        self.kernel.init = init;
        self
    }

    /// Add a pruning stage (applied in insertion order).
    pub fn pruner(mut self, pruner: Box<dyn CandidatePruner>) -> Self {
        self.kernel.pruners.push(pruner);
        self
    }

    /// The feasibility-gating stage.
    pub fn gate(mut self, gate: Box<dyn FeasibilityGate>) -> Self {
        self.kernel.gate = gate;
        self
    }

    /// The acquisition-scoring stage.
    pub fn acquisition(mut self, acquisition: Box<dyn AcquisitionPolicy>) -> Self {
        self.kernel.acquisition = acquisition;
        self
    }

    /// The stopping stage.
    pub fn stop(mut self, stop: Box<dyn StopPolicy>) -> Self {
        self.kernel.stop = stop;
        self
    }

    /// Finish the composition.
    pub fn build(self) -> SearchKernel {
        self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::SearchSpace;
    use crate::env::SyntheticEnv;
    use crate::experiment::ExperimentRunner;
    use crate::search::trace::{NullSink, SearchTrace};
    use crate::search::{CherryPick, ConvBo, HeterBo};
    use mlcd_cloudsim::InstanceType;
    use mlcd_perfmodel::{ThroughputModel, TrainingJob};
    use std::cell::Cell;
    use std::rc::Rc;

    fn make_env() -> SyntheticEnv<fn(&Deployment) -> f64> {
        let job = TrainingJob::resnet_cifar10();
        let space = SearchSpace::new(
            &[InstanceType::C5Xlarge, InstanceType::C54xlarge],
            50,
            &job,
            &ThroughputModel::default(),
        );
        fn f(d: &Deployment) -> f64 {
            (400.0 - 0.8 * (d.n as f64 - 18.0).powi(2)).max(15.0)
        }
        SyntheticEnv::new(space, 5e6, f as fn(&Deployment) -> f64)
    }

    fn kernel() -> SearchKernel {
        SearchKernel::builder("test-kernel").seed(5).build()
    }

    /// Delegates to the kernel's own acquisition, and checks every batched
    /// value against the one-candidate method as it goes: each EI against
    /// `utility_ei`, each POI against `utility_poi`, bit for bit. The POIs
    /// of the batch that follows each EI batch (the scored candidates'
    /// trace values; the CI stop's scan comes later) are logged in order
    /// for comparison with the trace.
    struct CheckedBatches {
        inner: Box<dyn AcquisitionPolicy>,
        pois: Rc<RefCell<Vec<(Deployment, u64)>>>,
        traced_next: Cell<bool>,
    }

    impl AcquisitionPolicy for CheckedBatches {
        fn utility_ei(
            &self,
            scenario: &Scenario,
            total_samples: f64,
            d: &Deployment,
            pred: &mlcd_gp::Prediction,
            incumbent: &Observation,
        ) -> f64 {
            self.inner.utility_ei(scenario, total_samples, d, pred, incumbent)
        }

        fn utility_poi(
            &self,
            scenario: &Scenario,
            total_samples: f64,
            d: &Deployment,
            pred: &mlcd_gp::Prediction,
            incumbent: &Observation,
            threshold: f64,
        ) -> f64 {
            self.inner.utility_poi(scenario, total_samples, d, pred, incumbent, threshold)
        }

        fn penalty(&self, env: &dyn ProfilingEnv, scenario: &Scenario, d: &Deployment) -> f64 {
            self.inner.penalty(env, scenario, d)
        }

        fn utility_ei_batch(
            &self,
            scenario: &Scenario,
            total_samples: f64,
            ds: &[Deployment],
            preds: &[mlcd_gp::Prediction],
            incumbent: &Observation,
            bufs: &mut crate::acquisition::AcquisitionBuffers,
        ) {
            self.inner.utility_ei_batch(scenario, total_samples, ds, preds, incumbent, bufs);
            self.traced_next.set(true);
            assert_eq!(bufs.ei.len(), bufs.admitted.len());
            for (&i, ei) in bufs.admitted.iter().zip(&bufs.ei) {
                let want =
                    self.inner.utility_ei(scenario, total_samples, &ds[i], &preds[i], incumbent);
                assert_eq!(ei.to_bits(), want.to_bits(), "EI of {}", ds[i]);
            }
        }

        fn utility_poi_batch(
            &self,
            scenario: &Scenario,
            total_samples: f64,
            ds: &[Deployment],
            preds: &[mlcd_gp::Prediction],
            incumbent: &Observation,
            threshold: f64,
            bufs: &mut crate::acquisition::AcquisitionBuffers,
        ) {
            let inner = &self.inner;
            inner.utility_poi_batch(scenario, total_samples, ds, preds, incumbent, threshold, bufs);
            assert_eq!(bufs.poi.len(), bufs.admitted.len());
            let traced = self.traced_next.replace(false);
            for (&i, poi) in bufs.admitted.iter().zip(&bufs.poi) {
                let want = inner.utility_poi(
                    scenario,
                    total_samples,
                    &ds[i],
                    &preds[i],
                    incumbent,
                    threshold,
                );
                assert_eq!(poi.to_bits(), want.to_bits(), "POI of {}", ds[i]);
                if traced {
                    self.pois.borrow_mut().push((ds[i], want.to_bits()));
                }
            }
        }
    }

    /// The golden searchers of `tests/golden_search.rs`, as kernels.
    fn golden_kernels(seed: u64) -> [SearchKernel; 3] {
        [
            HeterBo::seeded(seed).core().kernel(),
            ConvBo::seeded(seed).core().kernel(),
            CherryPick::seeded(seed).core().kernel(),
        ]
    }

    #[test]
    fn tracing_does_not_perturb_the_search() {
        let scenario = Scenario::FastestUnlimited;
        let mut env_a = make_env();
        let silent = kernel().run(&mut env_a, &scenario, &mut NullSink);
        let mut env_b = make_env();
        let mut trace = SearchTrace::default();
        let traced = kernel().run(&mut env_b, &scenario, &mut trace);
        assert_eq!(silent.digest(), traced.digest());
        // And the trace actually narrates the run.
        assert_eq!(traced.steps.len(), trace.probes().count());
        assert_eq!(trace.stop_reason(), Some(traced.stop_reason));

        // Every golden searcher × scenario × seed: an untraced run (which
        // skips the trace-only POIs) and a traced one end bit-identical,
        // and every traced GP-scored candidate's POI is `utility_poi`'s.
        let job = TrainingJob::resnet_cifar10();
        let runner = |seed| {
            ExperimentRunner::new(seed).with_types(vec![
                InstanceType::C5Xlarge,
                InstanceType::C54xlarge,
                InstanceType::C5n4xlarge,
                InstanceType::P2Xlarge,
            ])
        };
        let scenarios = [
            Scenario::FastestUnlimited,
            Scenario::CheapestWithDeadline(SimDuration::from_hours(12.0)),
            Scenario::FastestWithBudget(Money::from_dollars(150.0)),
        ];
        let mut checked = 0;
        for scenario in &scenarios {
            for seed in [1, 2, 3] {
                for (silent, mut traced) in
                    golden_kernels(seed).into_iter().zip(golden_kernels(seed))
                {
                    let name = silent.name();
                    let silent =
                        silent.run(&mut runner(seed).profiler_for(&job), scenario, &mut NullSink);
                    let pois = Rc::new(RefCell::new(Vec::new()));
                    traced.acquisition = Box::new(CheckedBatches {
                        inner: traced.acquisition,
                        pois: pois.clone(),
                        traced_next: Cell::new(false),
                    });
                    let mut trace = SearchTrace::default();
                    let outcome =
                        traced.run(&mut runner(seed).profiler_for(&job), scenario, &mut trace);
                    let cell = format!("{name} / {scenario} / seed {seed}");
                    assert_eq!(silent.digest(), outcome.digest(), "{cell}");
                    // The logged POIs appear among the traced scores in
                    // order (frontier scores, POI 1.0, sit between them).
                    let pois = pois.borrow();
                    let mut want = pois.iter().peekable();
                    for e in &trace.events {
                        if let TraceEvent::CandidateScored { deployment, poi, .. } = e {
                            want.next_if(|w| **w == (*deployment, poi.to_bits()));
                        }
                    }
                    assert!(want.next().is_none(), "{cell}: a traced POI differs from utility_poi");
                    checked += pois.len();
                }
            }
        }
        assert!(checked > 1000, "only {checked} POIs checked");
    }

    #[test]
    fn trace_cumulative_spend_matches_outcome_spend() {
        let mut env = make_env();
        let mut trace = SearchTrace::default();
        let out = kernel().run(&mut env, &Scenario::FastestUnlimited, &mut trace);
        assert_eq!(trace.final_probe_spend(), Some(out.profile_cost));
    }
}
