//! Golden `SearchOutcome` snapshots: every searcher × scenario × seed in
//! the pinned set must reproduce its recorded outcome **bit for bit** —
//! deployments, speeds, costs and stop reasons, down to the last f64 bit.
//!
//! These snapshots were captured before the search kernel was split into
//! policy stages and pin the refactor: any change to probe order, scoring,
//! pruning, feasibility gating or stopping shows up here as a diff.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! MLCD_UPDATE_GOLDEN=1 cargo test --test golden_search
//! ```

use mlcd::prelude::*;
use mlcd::search::{CherryPick, ConvBo, Surrogate};
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN_PATH: &str = "tests/golden/search_outcomes.txt";

const SEEDS: [u64; 3] = [1, 2, 3];

fn scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        ("unconstrained", Scenario::FastestUnlimited),
        ("deadline-12h", Scenario::CheapestWithDeadline(SimDuration::from_hours(12.0))),
        ("budget-150", Scenario::FastestWithBudget(Money::from_dollars(150.0))),
    ]
}

fn searchers(seed: u64) -> Vec<(&'static str, Box<dyn Searcher>)> {
    vec![
        ("HeterBO", Box::new(HeterBo::seeded(seed))),
        ("ConvBO", Box::new(ConvBo::seeded(seed))),
        ("CherryPick", Box::new(CherryPick::seeded(seed))),
    ]
}

/// The paper's standard 4-type space (as the end-to-end tests use), with
/// the default (noisy) observation model — exercising the full profiling
/// stack, not a sanitised synthetic surface.
fn runner(seed: u64) -> ExperimentRunner {
    ExperimentRunner::new(seed).with_types(vec![
        InstanceType::C5Xlarge,
        InstanceType::C54xlarge,
        InstanceType::C5n4xlarge,
        InstanceType::P2Xlarge,
    ])
}

/// Render the whole pinned set as one text blob, cell by cell. The
/// per-cell digest is the canonical [`SearchOutcome::digest`] — the same
/// rendering the service layer's crash-resume tests compare against.
fn render_all() -> String {
    let mut out = String::new();
    for (scenario_name, scenario) in scenarios() {
        for seed in SEEDS {
            for (searcher_name, searcher) in searchers(seed) {
                let outcome =
                    runner(seed).run(searcher.as_ref(), &TrainingJob::resnet_cifar10(), &scenario);
                writeln!(out, "=== {searcher_name} / {scenario_name} / seed {seed} ===").unwrap();
                out.push_str(&outcome.search.digest());
            }
        }
    }
    out
}

fn golden_file() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

#[test]
fn golden_search_outcomes_are_bit_identical() {
    let actual = render_all();
    let path = golden_file();
    if std::env::var("MLCD_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("golden snapshots rewritten at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with MLCD_UPDATE_GOLDEN=1 to capture",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first diverging line so the failure is actionable.
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| {
                format!("first diff at line {}:\n  golden: {e}\n  actual: {a}", i + 1)
            })
            .unwrap_or_else(|| "one output is a prefix of the other".to_string());
        panic!(
            "search outcomes diverged from the golden snapshots \
             (behaviour-pinned refactors must be bit-identical)\n{mismatch}"
        );
    }
}

/// The GP refits along a golden HeterBO search, replayed through one
/// surrogate: every observation prefix the search grew, with its seed and
/// refit policy. The fit counters must account for every start's
/// evaluations, and the lockstep lanes must stay busy: soft-wall answers
/// take no lane, so only starts finishing at different times leave lanes
/// idle.
#[test]
fn golden_heterbo_refits_fill_their_lanes() {
    let seed = SEEDS[0];
    let job = TrainingJob::resnet_cifar10();
    let scenario = Scenario::CheapestWithDeadline(SimDuration::from_hours(12.0));
    let outcome = runner(seed).run(&HeterBo::seeded(seed), &job, &scenario);
    let space = runner(seed).space(&job);
    let observations: Vec<Observation> =
        outcome.search.steps.iter().map(|s| s.observation).collect();
    assert!(observations.len() >= 6, "{} probes", observations.len());
    // HeterBO's refit cadence: a full refit at every step.
    let refit_every = 1;
    let mut surrogate: Option<Surrogate> = None;
    let mut start_evals = 0;
    for k in 2..=observations.len() {
        surrogate = Surrogate::update(surrogate, &space, &observations[..k], seed, refit_every);
        let scratch = surrogate.as_ref().expect("two or more observations fit").fit_scratch();
        start_evals += scratch.last_fit().iter().map(|r| r.evals as u64).sum::<u64>();
    }
    let c = surrogate.expect("fitted").fit_scratch().counters();
    assert_eq!(c.fits, observations.len() as u64 - 1, "{c:?}");
    assert_eq!(c.evaluations, start_evals, "{c:?}");
    assert!(c.walls > 0 && c.walls < c.evaluations, "{c:?}");
    // Measured 0.892: lanes idle only while a group's other starts finish
    // (walls make the starts' real-evaluation counts unequal).
    assert!(c.occupancy() >= 0.85, "occupancy {} ({c:?})", c.occupancy());
}
