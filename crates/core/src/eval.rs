//! Searcher × scenario × seed evaluation grids.
//!
//! Examples, tests and the figure reproductions all run the same kind of
//! sweep: a set of searchers, over one or more scenarios, across several
//! seeds, with each cell one end-to-end [`ExperimentRunner`] run. This
//! module expresses that sweep declaratively ([`EvalGrid`]), fans the
//! cells out across threads, and aggregates the outcomes per
//! (searcher, scenario) pair into a rendered summary table
//! ([`EvalReport`]).
//!
//! Every cell derives all of its randomness from its own seed — the
//! runner, the simulated cloud, the platform noise and the searcher are
//! constructed inside the cell — so the grid is embarrassingly parallel
//! and its results are bit-identical whether it runs on one thread or
//! many (`RAYON_NUM_THREADS=1` forces sequential execution when
//! bisecting).

use crate::experiment::{ExperimentOutcome, ExperimentRunner};
use crate::scenario::Scenario;
use crate::search::{SearchTrace, Searcher};
use mlcd_linalg::stats::quartiles;
use mlcd_perfmodel::TrainingJob;
use rayon::prelude::*;
use serde::Serialize;

/// Builds a fresh searcher for a cell's seed.
type SearcherFactory = Box<dyn Fn(u64) -> Box<dyn Searcher> + Sync>;

/// Builds the runner (space, noise, physics, profiler config) for a seed.
type RunnerFactory = Box<dyn Fn(u64) -> ExperimentRunner + Sync>;

/// One completed cell of the grid.
#[derive(Debug, Clone, Serialize)]
pub struct EvalCell {
    /// Grid label of the searcher that ran (distinct configurations of
    /// the same searcher can carry distinct labels).
    pub searcher: String,
    /// The scenario the cell ran under.
    pub scenario: Scenario,
    /// The cell's seed.
    pub seed: u64,
    /// The full experiment outcome.
    pub outcome: ExperimentOutcome,
    /// The structured search trace, when the grid ran with
    /// [`EvalGrid::capture_traces`]. `None` otherwise — tracing is off by
    /// default to keep large sweeps lean.
    pub trace: Option<SearchTrace>,
}

/// Aggregate over one (searcher, scenario) pair of the grid.
#[derive(Debug, Clone, Serialize)]
pub struct EvalSummary {
    /// Searcher label.
    pub searcher: String,
    /// Scenario.
    pub scenario: Scenario,
    /// Number of seeds run.
    pub runs: usize,
    /// How many runs satisfied the scenario's constraints.
    pub satisfied: usize,
    /// Median total (profiling + training) hours across seeds.
    pub median_total_h: f64,
    /// Mean total hours across seeds.
    pub mean_total_h: f64,
    /// Mean total dollars across seeds.
    pub mean_total_usd: f64,
    /// Mean profiling hours across seeds.
    pub mean_profile_h: f64,
    /// Mean profiling dollars across seeds.
    pub mean_profile_usd: f64,
    /// Mean number of probes across seeds.
    pub mean_probes: f64,
}

/// The completed grid: every cell, in deterministic grid order
/// (scenario-major, then seed, then searcher).
#[derive(Debug, Clone, Serialize)]
pub struct EvalReport {
    /// All cells.
    pub cells: Vec<EvalCell>,
}

impl EvalReport {
    /// Cells of one (searcher, scenario) pair, in seed order.
    pub fn cells_for(&self, searcher: &str, scenario: &Scenario) -> Vec<&EvalCell> {
        self.cells.iter().filter(|c| c.searcher == searcher && c.scenario == *scenario).collect()
    }

    /// Aggregates per (searcher, scenario) pair, in first-seen order.
    pub fn summaries(&self) -> Vec<EvalSummary> {
        let mut keys: Vec<(String, Scenario)> = Vec::new();
        for c in &self.cells {
            if !keys.iter().any(|(s, sc)| *s == c.searcher && *sc == c.scenario) {
                keys.push((c.searcher.clone(), c.scenario));
            }
        }
        keys.into_iter()
            .map(|(searcher, scenario)| {
                let cells = self.cells_for(&searcher, &scenario);
                let totals: Vec<f64> = cells.iter().map(|c| c.outcome.total_hours()).collect();
                let n = cells.len() as f64;
                let mean =
                    |f: &dyn Fn(&EvalCell) -> f64| cells.iter().map(|c| f(c)).sum::<f64>() / n;
                EvalSummary {
                    runs: cells.len(),
                    satisfied: cells.iter().filter(|c| c.outcome.satisfied).count(),
                    median_total_h: quartiles(&totals).median,
                    mean_total_h: mean(&|c| c.outcome.total_hours()),
                    mean_total_usd: mean(&|c| c.outcome.total_cost.dollars()),
                    mean_profile_h: mean(&|c| c.outcome.search.profile_time.as_hours()),
                    mean_profile_usd: mean(&|c| c.outcome.search.profile_cost.dollars()),
                    mean_probes: mean(&|c| c.outcome.search.n_probes() as f64),
                    searcher,
                    scenario,
                }
            })
            .collect()
    }

    /// The aggregate for one (searcher, scenario) pair.
    pub fn summary_for(&self, searcher: &str, scenario: &Scenario) -> Option<EvalSummary> {
        self.summaries().into_iter().find(|s| s.searcher == searcher && s.scenario == *scenario)
    }

    /// Fixed-width summary table, one row per (searcher, scenario).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:<34} {:>3} {:>5} {:>8} {:>8} {:>9} {:>7} {:>8} {:>7}\n",
            "searcher",
            "scenario",
            "n",
            "ok",
            "med h",
            "mean h",
            "mean $",
            "prof h",
            "prof $",
            "probes"
        ));
        for s in self.summaries() {
            out.push_str(&format!(
                "{:<12} {:<34} {:>3} {:>5} {:>8.2} {:>8.2} {:>9.2} {:>7.2} {:>8.2} {:>7.1}\n",
                s.searcher,
                s.scenario.to_string(),
                s.runs,
                format!("{}/{}", s.satisfied, s.runs),
                s.median_total_h,
                s.mean_total_h,
                s.mean_total_usd,
                s.mean_profile_h,
                s.mean_profile_usd,
                s.mean_probes,
            ));
        }
        out
    }
}

/// A declarative searcher × scenario × seed sweep.
///
/// ```
/// use mlcd::eval::EvalGrid;
/// use mlcd::prelude::*;
///
/// let report = EvalGrid::new(TrainingJob::resnet_cifar10())
///     .searcher("HeterBO", |s| Box::new(HeterBo::seeded(s)))
///     .searcher("ConvBO", |s| Box::new(ConvBo::seeded(s)))
///     .scenario(Scenario::FastestUnlimited)
///     .seeds(0..2)
///     .with_runner(|s| {
///         ExperimentRunner::new(s)
///             .with_types(vec![InstanceType::C5Xlarge, InstanceType::C54xlarge])
///     })
///     .run();
/// assert_eq!(report.cells.len(), 4);
/// println!("{}", report.render());
/// ```
pub struct EvalGrid {
    job: TrainingJob,
    searchers: Vec<(String, SearcherFactory)>,
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
    runner: RunnerFactory,
    capture_traces: bool,
}

impl EvalGrid {
    /// A grid over `job` with the default runner (`ExperimentRunner::new`
    /// per seed: full type catalog, default noise and physics).
    pub fn new(job: TrainingJob) -> Self {
        EvalGrid {
            job,
            searchers: Vec::new(),
            scenarios: Vec::new(),
            seeds: Vec::new(),
            runner: Box::new(ExperimentRunner::new),
            capture_traces: false,
        }
    }

    /// Add a searcher column. The factory gets the cell's seed.
    pub fn searcher(
        mut self,
        name: impl Into<String>,
        factory: impl Fn(u64) -> Box<dyn Searcher> + Sync + 'static,
    ) -> Self {
        self.searchers.push((name.into(), Box::new(factory)));
        self
    }

    /// Add a scenario.
    pub fn scenario(mut self, s: Scenario) -> Self {
        self.scenarios.push(s);
        self
    }

    /// Set the seed axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Customise the per-seed runner (space, noise, physics, profiler).
    pub fn with_runner(mut self, f: impl Fn(u64) -> ExperimentRunner + Sync + 'static) -> Self {
        self.runner = Box::new(f);
        self
    }

    /// Collect the structured [`SearchTrace`] of every cell. Tracing is
    /// pure observation — cell outcomes stay bit-identical to an
    /// untraced grid — but the streams cost memory, so this is opt-in.
    pub fn capture_traces(mut self, on: bool) -> Self {
        self.capture_traces = on;
        self
    }

    /// Run every cell of the grid, fanned out across threads, and collect
    /// the report in grid order (scenario-major, then seed, then
    /// searcher). Each cell is self-seeded, so the report is identical to
    /// a sequential run.
    pub fn run(&self) -> EvalReport {
        let mut plan: Vec<(usize, Scenario, u64)> = Vec::new();
        for scenario in &self.scenarios {
            for &seed in &self.seeds {
                for si in 0..self.searchers.len() {
                    plan.push((si, *scenario, seed));
                }
            }
        }
        let cells: Vec<EvalCell> = plan
            .par_iter()
            .map(|&(si, scenario, seed)| {
                let (name, factory) = &self.searchers[si];
                let runner = (self.runner)(seed);
                let searcher = factory(seed);
                let (outcome, trace) = if self.capture_traces {
                    let (outcome, trace) =
                        runner.run_traced(searcher.as_ref(), &self.job, &scenario);
                    (outcome, Some(trace))
                } else {
                    (runner.run(searcher.as_ref(), &self.job, &scenario), None)
                };
                EvalCell { searcher: name.clone(), scenario, seed, outcome, trace }
            })
            .collect();
        EvalReport { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{ConvBo, HeterBo, RandomSearch};
    use mlcd_cloudsim::{InstanceType, Money};
    use mlcd_perfmodel::NoiseModel;

    fn small_grid() -> EvalGrid {
        EvalGrid::new(TrainingJob::resnet_cifar10())
            .searcher("HeterBO", |s| Box::new(HeterBo::seeded(s)))
            .searcher("Random", |s| Box::new(RandomSearch::new(4, s)))
            .scenario(Scenario::FastestUnlimited)
            .scenario(Scenario::FastestWithBudget(Money::from_dollars(100.0)))
            .seeds([3, 7])
            .with_runner(|s| {
                ExperimentRunner::new(s)
                    .with_types(vec![InstanceType::C5Xlarge, InstanceType::C54xlarge])
                    .with_noise(NoiseModel::noiseless())
            })
    }

    #[test]
    fn grid_covers_full_cross_product_in_order() {
        let report = small_grid().run();
        // 2 searchers × 2 scenarios × 2 seeds.
        assert_eq!(report.cells.len(), 8);
        // Scenario-major, then seed, then searcher.
        let labels: Vec<(String, u64)> =
            report.cells.iter().map(|c| (c.searcher.clone(), c.seed)).collect();
        assert_eq!(labels[0], ("HeterBO".into(), 3));
        assert_eq!(labels[1], ("Random".into(), 3));
        assert_eq!(labels[2], ("HeterBO".into(), 7));
        assert_eq!(labels[3], ("Random".into(), 7));
        assert_eq!(report.cells[0].scenario, report.cells[3].scenario);
        assert_ne!(report.cells[0].scenario, report.cells[4].scenario);
    }

    #[test]
    fn grid_is_deterministic() {
        let a = small_grid().run();
        let b = small_grid().run();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.outcome.total_cost, y.outcome.total_cost);
            assert_eq!(x.outcome.total_time, y.outcome.total_time);
            assert_eq!(x.outcome.plan.map(|p| p.deployment), y.outcome.plan.map(|p| p.deployment));
        }
    }

    #[test]
    fn cells_match_direct_runner_calls() {
        // A grid cell is exactly one ExperimentRunner run — the harness
        // adds bookkeeping, not behaviour.
        let report = EvalGrid::new(TrainingJob::resnet_cifar10())
            .searcher("ConvBO", |s| Box::new(ConvBo::seeded(s)))
            .scenario(Scenario::FastestUnlimited)
            .seeds([11])
            .with_runner(|s| {
                ExperimentRunner::new(s)
                    .with_types(vec![InstanceType::C54xlarge])
                    .with_noise(NoiseModel::noiseless())
            })
            .run();
        let direct = ExperimentRunner::new(11)
            .with_types(vec![InstanceType::C54xlarge])
            .with_noise(NoiseModel::noiseless())
            .run(&ConvBo::seeded(11), &TrainingJob::resnet_cifar10(), &Scenario::FastestUnlimited);
        let cell = &report.cells[0].outcome;
        assert_eq!(cell.total_cost, direct.total_cost);
        assert_eq!(cell.total_time, direct.total_time);
        assert_eq!(cell.plan.map(|p| p.deployment), direct.plan.map(|p| p.deployment));
    }

    #[test]
    fn parallel_grid_matches_sequential_runner_calls() {
        // The fan-out must be invisible in the numbers: every cell of a
        // parallel grid run is bit-identical to the same experiment
        // executed directly (sequentially), including the GP-backed
        // searcher with its workspace-cached fits.
        let report = small_grid().run();
        for cell in &report.cells {
            let searcher: Box<dyn Searcher> = match cell.searcher.as_str() {
                "HeterBO" => Box::new(HeterBo::seeded(cell.seed)),
                _ => Box::new(RandomSearch::new(4, cell.seed)),
            };
            let direct = ExperimentRunner::new(cell.seed)
                .with_types(vec![InstanceType::C5Xlarge, InstanceType::C54xlarge])
                .with_noise(NoiseModel::noiseless())
                .run(searcher.as_ref(), &TrainingJob::resnet_cifar10(), &cell.scenario);
            assert_eq!(cell.outcome.total_cost, direct.total_cost, "{} cell", cell.searcher);
            assert_eq!(cell.outcome.total_time, direct.total_time);
            assert_eq!(cell.outcome.plan.map(|p| p.deployment), direct.plan.map(|p| p.deployment));
            assert_eq!(cell.outcome.search.n_probes(), direct.search.n_probes());
        }
    }

    #[test]
    fn traced_grid_is_bit_identical_to_untraced() {
        let plain = small_grid().run();
        let traced = small_grid().capture_traces(true).run();
        assert_eq!(plain.cells.len(), traced.cells.len());
        for (p, t) in plain.cells.iter().zip(&traced.cells) {
            assert!(p.trace.is_none());
            assert_eq!(p.outcome.total_cost, t.outcome.total_cost);
            assert_eq!(p.outcome.total_time, t.outcome.total_time);
            assert_eq!(p.outcome.search.steps, t.outcome.search.steps);
            let trace = t.trace.as_ref().expect("traced grid collects streams");
            // Kernel-backed searchers narrate every probe; RandomSearch
            // has no instrumented loop and legitimately traces nothing.
            if t.searcher == "HeterBO" {
                assert_eq!(trace.probes().count(), t.outcome.search.n_probes());
                assert!(trace.stop_reason().is_some());
            }
        }
    }

    #[test]
    fn summaries_aggregate_correctly() {
        let report = small_grid().run();
        let summaries = report.summaries();
        // One row per (searcher, scenario) pair.
        assert_eq!(summaries.len(), 4);
        for s in &summaries {
            assert_eq!(s.runs, 2);
            assert!(s.satisfied <= s.runs);
            assert!(s.mean_total_h > 0.0);
            assert!(s.median_total_h > 0.0);
            assert!(s.mean_probes >= 1.0);
            // The mean must sit inside the cells' range.
            let cells = report.cells_for(&s.searcher, &s.scenario);
            let lo = cells.iter().map(|c| c.outcome.total_hours()).fold(f64::INFINITY, f64::min);
            let hi = cells.iter().map(|c| c.outcome.total_hours()).fold(0.0_f64, f64::max);
            assert!(s.mean_total_h >= lo - 1e-12 && s.mean_total_h <= hi + 1e-12);
        }
        // Render produces one line per summary plus the header.
        assert_eq!(report.render().lines().count(), 5);
    }
}
