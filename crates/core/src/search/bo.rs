//! The three BO searchers as declarative policy compositions: HeterBO
//! (the paper's contribution), ConvBO and CherryPick (the baselines),
//! plus the Fig 18 budget-aware "improved" baseline variants.
//!
//! One kernel ([`crate::search::kernel::SearchKernel`]) runs all of them;
//! the paper's mechanisms are independent switches on [`BoConfig`] (see
//! the table in [`crate::search`]) that [`BoCore::kernel`] translates
//! into stage policies. This keeps the comparison honest — the baselines
//! differ from HeterBO by exactly the mechanisms the paper claims matter,
//! nothing else — and gives the ablation study its knobs for free.

use crate::acquisition::AcquisitionKind;
use crate::env::ProfilingEnv;
use crate::observation::SearchOutcome;
use crate::scenario::Scenario;
use crate::search::kernel::SearchKernel;
use crate::search::policies::{
    ConcaveScaleOutPrior, ConvergenceStop, CostPenalisedAcquisition, InitPolicy, RandomInit,
    SpaceTrim, TeiReserveGate, TypeSweepInit,
};
use crate::search::trace::{NullSink, TraceSink};
use crate::search::Searcher;
use mlcd_cloudsim::InstanceType;

/// How the first probes are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// Conventional BO: `k` uniformly random candidates — which can land
    /// on a 50-node GPU cluster and burn a large slice of the budget
    /// before the model knows anything.
    RandomPoints(usize),
    /// HeterBO (§III-C "Initial points"): one single-node probe of each
    /// instance type, cheapest first — bounded cost, full scale-up
    /// coverage.
    TypeSweep,
}

/// Switches for the paper's mechanisms.
///
/// Construct via [`BoConfig::builder`] — the struct is `#[non_exhaustive]`
/// so future policy knobs are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct BoConfig {
    /// Initialisation strategy.
    pub init: InitStrategy,
    /// Relative expected-improvement stop threshold (fraction of the
    /// incumbent's utility).
    pub ei_rel_threshold: f64,
    /// HeterBO's confidence-aware stop: stop only when *no* candidate has
    /// ≥5 % probability of improving by more than the threshold (the
    /// paper's "95 % confidence interval of the expected improvement").
    pub ci_stop: bool,
    /// Divide each candidate's EI by its own probing cost (paper
    /// eqs. 7–8).
    pub cost_penalty: bool,
    /// Constraint-aware acquisition: discard candidates whose TEI
    /// (paper eqs. 5–6) says they can never pay off, and rank incumbents
    /// with the scenario's feasibility filter.
    pub constraint_aware: bool,
    /// Protective mechanism: never start a probe that would eat the
    /// reserve needed to finish training on the current best.
    pub reserve_protection: bool,
    /// Concave scale-out prior: once two neighbouring probes of a type
    /// show declining speed, prune all larger scale-outs of that type.
    pub concave_prior: bool,
    /// Cap on BO-loop probes *after* initialisation (the init sweep is
    /// budgeted separately — a 19-type sweep must not starve the loop).
    pub max_steps: usize,
    /// Minimum observations before a convergence-based stop may fire —
    /// guards against declaring victory off a 2-point surrogate.
    pub min_obs_before_stop: usize,
    /// Whether profiling time/money already spent counts against the
    /// deadline/budget when ranking deployments. HeterBO: yes — that is
    /// the paper's whole point. ConvBO/CherryPick: no — they pick a
    /// deployment whose *training alone* fits the constraint and then
    /// overrun by roughly their profiling overhead, exactly the violation
    /// the paper measures in Figs 10–11 and 14.
    pub account_sunk: bool,
    /// Run the initial probes as one concurrent batch (the type sweep is
    /// embarrassingly parallel): same money, wall-clock of the slowest
    /// probe only. An extension beyond the paper, off by default.
    pub parallel_init: bool,
    /// Which acquisition function ranks candidates. The paper (and every
    /// searcher here by default) uses EI; UCB and POI are selectable for
    /// the acquisition-choice comparison.
    pub acquisition: AcquisitionKind,
    /// Refit GP hyperparameters every k-th observation and extend the
    /// posterior incrementally (`O(n²)`) in between. 1 = refit every step
    /// (the default; exact but `O(n³)` per step).
    pub gp_refit_every: usize,
    /// RNG seed (init points, tie-breaks, GP restarts).
    pub seed: u64,
}

impl BoConfig {
    /// Start from the conventional-BO baseline defaults (CherryPick's
    /// base: 3 random init points, plain EI, 10 % stop, every paper
    /// mechanism off) and override what differs.
    pub fn builder() -> BoConfigBuilder {
        BoConfigBuilder {
            cfg: BoConfig {
                init: InitStrategy::RandomPoints(3),
                ei_rel_threshold: 0.10,
                ci_stop: false,
                cost_penalty: false,
                constraint_aware: false,
                reserve_protection: false,
                concave_prior: false,
                max_steps: 27,
                min_obs_before_stop: 10,
                account_sunk: false,
                parallel_init: false,
                acquisition: AcquisitionKind::ExpectedImprovement,
                gp_refit_every: 1,
                seed: 0,
            },
        }
    }
}

/// Builds a [`BoConfig`] field by field — the one place the searcher
/// constructors (and ablation variants) derive their configs from.
#[derive(Debug, Clone)]
pub struct BoConfigBuilder {
    cfg: BoConfig,
}

impl BoConfigBuilder {
    /// Initialisation strategy.
    pub fn init(mut self, v: InitStrategy) -> Self {
        self.cfg.init = v;
        self
    }

    /// Relative EI stop threshold.
    pub fn ei_rel_threshold(mut self, v: f64) -> Self {
        self.cfg.ei_rel_threshold = v;
        self
    }

    /// Confidence-aware stop.
    pub fn ci_stop(mut self, v: bool) -> Self {
        self.cfg.ci_stop = v;
        self
    }

    /// Probing-cost EI penalty.
    pub fn cost_penalty(mut self, v: bool) -> Self {
        self.cfg.cost_penalty = v;
        self
    }

    /// Constraint-aware acquisition (TEI filter + feasibility ranking).
    pub fn constraint_aware(mut self, v: bool) -> Self {
        self.cfg.constraint_aware = v;
        self
    }

    /// Protective deadline/budget reserve.
    pub fn reserve_protection(mut self, v: bool) -> Self {
        self.cfg.reserve_protection = v;
        self
    }

    /// Concave scale-out prior.
    pub fn concave_prior(mut self, v: bool) -> Self {
        self.cfg.concave_prior = v;
        self
    }

    /// Cap on BO-loop probes after initialisation.
    pub fn max_steps(mut self, v: usize) -> Self {
        self.cfg.max_steps = v;
        self
    }

    /// Minimum observations before a convergence stop may fire.
    pub fn min_obs_before_stop(mut self, v: usize) -> Self {
        self.cfg.min_obs_before_stop = v;
        self
    }

    /// Count sunk profiling spend when ranking deployments.
    pub fn account_sunk(mut self, v: bool) -> Self {
        self.cfg.account_sunk = v;
        self
    }

    /// Run the init probes as one concurrent batch.
    pub fn parallel_init(mut self, v: bool) -> Self {
        self.cfg.parallel_init = v;
        self
    }

    /// Acquisition function.
    pub fn acquisition(mut self, v: AcquisitionKind) -> Self {
        self.cfg.acquisition = v;
        self
    }

    /// GP refit cadence.
    pub fn gp_refit_every(mut self, v: usize) -> Self {
        self.cfg.gp_refit_every = v;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }

    /// The Fig 18 "improved baseline" bundle: protective reserve +
    /// constraint-aware ranking + sunk-cost accounting, as one switch.
    pub fn budget_guarded(self) -> Self {
        self.reserve_protection(true).constraint_aware(true).account_sunk(true)
    }

    /// Finish the configuration.
    pub fn build(self) -> BoConfig {
        self.cfg
    }
}

/// A named [`BoConfig`] plus optional space restrictions — the bridge
/// between the flag-style configuration and the policy-composed
/// [`SearchKernel`] that actually runs the search.
pub struct BoCore {
    name: &'static str,
    cfg: BoConfig,
    /// CherryPick's experience trimming: only search these types.
    restrict_types: Option<Vec<InstanceType>>,
    /// CherryPick's coarse scale-out grid.
    coarse_grid: Option<Vec<u32>>,
}

impl BoCore {
    /// Build a core with a display name.
    pub fn new(name: &'static str, cfg: BoConfig) -> Self {
        BoCore { name, cfg, restrict_types: None, coarse_grid: None }
    }

    /// Restrict candidates to the given types.
    pub fn with_types(mut self, types: Vec<InstanceType>) -> Self {
        self.restrict_types = Some(types);
        self
    }

    /// Restrict candidate node counts to a coarse grid.
    pub fn with_node_grid(mut self, grid: Vec<u32>) -> Self {
        self.coarse_grid = Some(grid);
        self
    }

    /// The configuration (for ablation reporting).
    pub fn config(&self) -> &BoConfig {
        &self.cfg
    }

    /// Translate the flag configuration into a runnable policy
    /// composition. Each call builds a fresh kernel — pruners carry
    /// per-search state.
    pub fn kernel(&self) -> SearchKernel {
        let cfg = &self.cfg;
        let init: Box<dyn InitPolicy> = match cfg.init {
            InitStrategy::TypeSweep => Box::new(TypeSweepInit { parallel: cfg.parallel_init }),
            InitStrategy::RandomPoints(k) => {
                Box::new(RandomInit { k, parallel: cfg.parallel_init })
            }
        };
        let mut b = SearchKernel::builder(self.name)
            .seed(cfg.seed)
            .account_sunk(cfg.account_sunk)
            .constraint_aware(cfg.constraint_aware)
            .refit_every(cfg.gp_refit_every)
            .init(init)
            .gate(Box::new(TeiReserveGate {
                reserve_protection: cfg.reserve_protection,
                constraint_aware: cfg.constraint_aware,
                min_obs_before_stop: cfg.min_obs_before_stop,
            }))
            .acquisition(Box::new(CostPenalisedAcquisition {
                kind: cfg.acquisition,
                cost_penalty: cfg.cost_penalty,
            }))
            .stop(Box::new(ConvergenceStop {
                ei_rel_threshold: cfg.ei_rel_threshold,
                ci_stop: cfg.ci_stop,
                max_steps: cfg.max_steps,
                min_obs_before_stop: cfg.min_obs_before_stop,
            }));
        if self.restrict_types.is_some() || self.coarse_grid.is_some() {
            b = b.pruner(Box::new(SpaceTrim {
                types: self.restrict_types.clone(),
                grid: self.coarse_grid.clone(),
            }));
        }
        if cfg.concave_prior {
            b = b.pruner(Box::new(ConcaveScaleOutPrior::new()));
        }
        b.build()
    }
}

impl Searcher for BoCore {
    fn name(&self) -> &'static str {
        self.name
    }

    fn search(&self, env: &mut dyn ProfilingEnv, scenario: &Scenario) -> SearchOutcome {
        self.search_traced(env, scenario, &mut NullSink)
    }

    fn search_traced(
        &self,
        env: &mut dyn ProfilingEnv,
        scenario: &Scenario,
        sink: &mut dyn TraceSink,
    ) -> SearchOutcome {
        self.kernel().run(env, scenario, sink)
    }
}

/// HeterBO — the paper's searcher: type-sweep init, cost-penalised
/// constraint-aware acquisition, protective reserve, concave prior,
/// CI-aware stop.
///
/// ```
/// use mlcd::prelude::*;
/// use mlcd::deployment::{Deployment, SearchSpace};
/// use mlcd::env::SyntheticEnv;
///
/// // A synthetic response surface: concave in n, peaking at n = 20.
/// let space = SearchSpace::new(
///     &[InstanceType::C54xlarge],
///     50,
///     &TrainingJob::resnet_cifar10(),
///     &ThroughputModel::default(),
/// );
/// let f = |d: &Deployment| (500.0 - 0.9 * (d.n as f64 - 20.0).powi(2)).max(20.0);
/// let mut env = SyntheticEnv::new(space, 5e6, f);
///
/// let outcome = HeterBo::seeded(1).search(&mut env, &Scenario::FastestUnlimited);
/// let best = outcome.best.unwrap();
/// assert!(best.speed > 450.0); // near the 500-samples/s optimum
/// ```
pub struct HeterBo(BoCore);

impl HeterBo {
    /// HeterBO with a seed.
    pub fn seeded(seed: u64) -> Self {
        HeterBo(BoCore::new(
            "HeterBO",
            BoConfig::builder()
                .init(InitStrategy::TypeSweep)
                .ei_rel_threshold(0.10)
                .ci_stop(true)
                .cost_penalty(true)
                .constraint_aware(true)
                .reserve_protection(true)
                .concave_prior(true)
                // HeterBO's whole design is probe economy; the paper's
                // trajectories finish in 7–9 probes total (type sweep +
                // a handful of BO steps). The CI stop and the reserve end
                // most searches before this cap.
                .max_steps(8)
                .min_obs_before_stop(6)
                .account_sunk(true)
                .seed(seed)
                .build(),
        ))
    }

    /// HeterBO with the initial type sweep run as one concurrent batch of
    /// clusters — same money, wall-clock of the slowest probe only. An
    /// extension beyond the paper (its sweep is sequential).
    pub fn with_parallel_init(seed: u64) -> Self {
        let mut h = HeterBo::seeded(seed);
        h.0.cfg.parallel_init = true;
        h
    }

    /// Access the underlying core (for ablation tweaks).
    pub fn core(self) -> BoCore {
        self.0
    }
}

impl Default for HeterBo {
    fn default() -> Self {
        HeterBo::seeded(0)
    }
}

impl Searcher for HeterBo {
    fn name(&self) -> &'static str {
        "HeterBO"
    }
    fn search(&self, env: &mut dyn ProfilingEnv, scenario: &Scenario) -> SearchOutcome {
        self.0.search(env, scenario)
    }
    fn search_traced(
        &self,
        env: &mut dyn ProfilingEnv,
        scenario: &Scenario,
        sink: &mut dyn TraceSink,
    ) -> SearchOutcome {
        self.0.search_traced(env, scenario, sink)
    }
}

/// Conventional BO: random init, plain EI, oblivious to cost and
/// constraints.
pub struct ConvBo(BoCore);

impl ConvBo {
    /// ConvBO with a seed.
    pub fn seeded(seed: u64) -> Self {
        ConvBo(BoCore::new("ConvBO", Self::base(seed).build()))
    }

    fn base(seed: u64) -> BoConfigBuilder {
        BoConfig::builder()
            .init(InitStrategy::RandomPoints(2))
            // Conventional BO keeps polishing until EI is truly exhausted —
            // this is the "over-exploration" the paper measures: its
            // profiling phase rivals the training run it is optimising.
            .ei_rel_threshold(0.001)
            .max_steps(28)
            .min_obs_before_stop(12)
            .seed(seed)
    }

    #[cfg(test)]
    fn base_config(seed: u64) -> BoConfig {
        Self::base(seed).build()
    }

    /// The Fig 18 "BO_imprd" variant: ConvBO plus the protective budget
    /// reserve (so it stops profiling in time) — but still cost-oblivious
    /// in *where* it probes.
    pub fn budget_aware(seed: u64) -> BoCore {
        BoCore::new("BO_imprd", Self::base(seed).budget_guarded().build())
    }

    /// Access the underlying core.
    pub fn core(self) -> BoCore {
        self.0
    }
}

impl Default for ConvBo {
    fn default() -> Self {
        ConvBo::seeded(0)
    }
}

impl Searcher for ConvBo {
    fn name(&self) -> &'static str {
        "ConvBO"
    }
    fn search(&self, env: &mut dyn ProfilingEnv, scenario: &Scenario) -> SearchOutcome {
        self.0.search(env, scenario)
    }
    fn search_traced(
        &self,
        env: &mut dyn ProfilingEnv,
        scenario: &Scenario,
        sink: &mut dyn TraceSink,
    ) -> SearchOutcome {
        self.0.search_traced(env, scenario, sink)
    }
}

/// CherryPick (NSDI'17): ConvBO plus experience-based space trimming, a
/// coarse scale-out grid, 3 random initial probes and the documented 10 %
/// EI stop rule.
pub struct CherryPick(BoCore);

impl CherryPick {
    /// The default coarse scale-out grid CherryPick samples.
    pub const DEFAULT_NODE_GRID: [u32; 11] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48];

    /// CherryPick with a seed, searching all types on the coarse grid.
    pub fn seeded(seed: u64) -> Self {
        CherryPick(
            BoCore::new("CherryPick", Self::base(seed).build())
                .with_node_grid(Self::DEFAULT_NODE_GRID.to_vec()),
        )
    }

    /// CherryPick with its search space trimmed "based on experience" to
    /// the given types (the paper grants it this prior knowledge to favour
    /// it).
    pub fn with_experience(seed: u64, types: Vec<InstanceType>) -> Self {
        CherryPick(
            BoCore::new("CherryPick", Self::base(seed).build())
                .with_node_grid(Self::DEFAULT_NODE_GRID.to_vec())
                .with_types(types),
        )
    }

    /// CherryPick's base config is exactly the builder's baseline
    /// defaults.
    fn base(seed: u64) -> BoConfigBuilder {
        BoConfig::builder().seed(seed)
    }

    /// The Fig 18 "CP_imprd" variant: CherryPick plus the protective
    /// reserve, optionally with trimmed types.
    pub fn budget_aware(seed: u64, types: Option<Vec<InstanceType>>) -> BoCore {
        let core = BoCore::new("CP_imprd", Self::base(seed).budget_guarded().build())
            .with_node_grid(Self::DEFAULT_NODE_GRID.to_vec());
        match types {
            Some(t) => core.with_types(t),
            None => core,
        }
    }

    /// Access the underlying core.
    pub fn core(self) -> BoCore {
        self.0
    }
}

impl Default for CherryPick {
    fn default() -> Self {
        CherryPick::seeded(0)
    }
}

impl Searcher for CherryPick {
    fn name(&self) -> &'static str {
        "CherryPick"
    }
    fn search(&self, env: &mut dyn ProfilingEnv, scenario: &Scenario) -> SearchOutcome {
        self.0.search(env, scenario)
    }
    fn search_traced(
        &self,
        env: &mut dyn ProfilingEnv,
        scenario: &Scenario,
        sink: &mut dyn TraceSink,
    ) -> SearchOutcome {
        self.0.search_traced(env, scenario, sink)
    }
}

#[cfg(test)]
#[path = "bo_tests.rs"]
mod tests;
