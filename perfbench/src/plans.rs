//! The `search` and `sweep` workloads: closed loops of full experiments
//! (`profiler_for` → `Searcher::search` → `complete`) on one thread.

use crate::trace::{CountingSink, Layer, TracedCloud, TracedEnv, Tracer};
use crate::util::{self, Fnv, Report, Rng};
use crate::Args;
use mlcd::experiment::{ExperimentOutcome, ExperimentRunner};
use mlcd::prelude::{InstanceType, Money, Scenario, SimDuration, TrainingJob};
use mlcd::search::{searcher_by_name, Searcher};
use mlcd::system::ProfilerConfig;
use mlcd_cloudsim::SimCloud;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The six CNN/RNN/BERT presets `search` plans for.
pub const SEARCH_JOBS: [&str; 6] = [
    "resnet-cifar10",
    "alexnet-cifar10",
    "char-rnn",
    "inception-imagenet",
    "bert-tf",
    "bert-mxnet",
];
/// `sweep` adds the two ZeRO presets.
const SWEEP_JOBS: [&str; 8] = [
    "resnet-cifar10",
    "alexnet-cifar10",
    "char-rnn",
    "inception-imagenet",
    "bert-tf",
    "bert-mxnet",
    "zero-8b",
    "zero-20b",
];
const SEARCH_SEARCHERS: [&str; 4] = ["heterbo", "heterbo-parallel", "convbo", "cherrypick"];
/// `exhaustive` is `ExhaustiveSearch::strided(10)`, `random` is
/// `RandomSearch::new(9, seed)` (see `searcher_by_name`).
const SWEEP_SEARCHERS: [&str; 2] = ["exhaustive", "random"];
/// The 3-type space: 3 types × 50 scale-outs = 150 candidates.
pub const THREE_TYPES: [InstanceType; 3] =
    [InstanceType::C5Xlarge, InstanceType::C54xlarge, InstanceType::P2Xlarge];

pub fn scenarios() -> [Scenario; 3] {
    [
        Scenario::FastestUnlimited,
        Scenario::FastestWithBudget(Money::from_dollars(300.0)),
        Scenario::CheapestWithDeadline(SimDuration::from_hours(12.0)),
    ]
}

/// One generated plan: every input the program sees.
struct Plan {
    searcher: Box<dyn Searcher + Send + Sync>,
    job: TrainingJob,
    scenario: Scenario,
    runner: ExperimentRunner,
    seed: u64,
    /// search: the 3-type space; sweep: spot probing.
    variant: bool,
}

/// The deck is a full factorial over the workload's axes, so every seed
/// plans the same mix; the seed picks each plan's searcher/platform seed
/// and the order the loop walks the deck in.
///
/// Plan times vary widely from plan to plan, so the deck is several
/// rounds of the factorial, each shuffled on its own: any whole number of
/// rounds has the same mix, and the mean of many independent plans moves
/// little from one workload seed to the next. A `search` round has a third
/// of its cells on the full catalog (950 candidates) and two thirds on the
/// 3-type space (150): the two spaces' plan times barely overlap, and with
/// an even split the median would fall in the gap between them and jump
/// from seed to seed. A `sweep` round probes half on demand and half on
/// the spot market.
fn deck(sweep: bool, seed: u64, smoke: bool) -> Vec<Plan> {
    let mut rng = Rng::new(seed);
    let (searchers, jobs): (&[&str], &[&str]) =
        if sweep { (&SWEEP_SEARCHERS, &SWEEP_JOBS) } else { (&SEARCH_SEARCHERS, &SEARCH_JOBS) };
    let variants: &[bool] = if sweep || smoke { &[false, true] } else { &[false, true, true] };
    let jobs = if smoke { &jobs[..1] } else { jobs };
    let scenarios = scenarios();
    let scenarios = if smoke { &scenarios[1..2] } else { &scenarios[..] };
    let mut plans = Vec::new();
    for _ in 0..rounds(sweep, smoke) {
        let mut round = Vec::new();
        for &name in searchers {
            for &job in jobs {
                for scenario in scenarios {
                    for &variant in variants {
                        let plan_seed = rng.next_u64() % 1_000_000;
                        let mut runner = ExperimentRunner::new(plan_seed);
                        if sweep {
                            runner = runner.with_profiler(ProfilerConfig {
                                use_spot: variant,
                                ..Default::default()
                            });
                        } else if variant {
                            runner = runner.with_types(THREE_TYPES.to_vec());
                        }
                        round.push(Plan {
                            searcher: searcher_by_name(name, plan_seed).expect("known searcher"),
                            job: TrainingJob::by_name(job).expect("known job preset"),
                            scenario: *scenario,
                            runner,
                            seed: plan_seed,
                            variant,
                        });
                    }
                }
            }
        }
        rng.shuffle(&mut round);
        plans.append(&mut round);
    }
    plans
}

/// Rounds in the deck: `search` 4 of 216 plans (about 24 s of work),
/// `sweep` 16 of 96 (under a second).
fn rounds(sweep: bool, smoke: bool) -> usize {
    match (sweep, smoke) {
        (_, true) => 1,
        (true, false) => 16,
        (false, false) => 4,
    }
}

/// Plans in the reference set: `search` its first two rounds (about 12 s),
/// `sweep` its whole deck.
fn prefix(sweep: bool, smoke: bool, deck_len: usize) -> usize {
    if sweep || smoke {
        deck_len
    } else {
        deck_len / rounds(sweep, smoke) * 2
    }
}

/// Deterministic outputs of one plan, compared across passes and between
/// the untraced and traced phases.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PlanOut {
    digest: u64,
    cost_bits: u64,
    missed: bool,
    extended: u64,
    revoked: u64,
}

#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct TraceCounts {
    sink: CountingSink,
    failures: u64,
}

fn digest(o: &ExperimentOutcome) -> u64 {
    let mut h = Fnv::new();
    h.f64(o.total_cost.dollars()).f64(o.total_time.as_secs()).f64(o.train_cost.dollars());
    h.u64(u64::from(o.satisfied));
    if let Some(p) = &o.plan {
        h.bytes(p.deployment.itype.name().as_bytes()).u64(u64::from(p.deployment.n));
        h.f64(p.observed_speed);
    }
    h.bytes(format!("{:?}", o.search.stop_reason).as_bytes());
    for s in &o.search.steps {
        let obs = &s.observation;
        h.bytes(obs.deployment.itype.name().as_bytes()).u64(u64::from(obs.deployment.n));
        h.f64(obs.speed).f64(obs.profile_time.as_secs()).f64(obs.profile_cost.dollars());
    }
    h.0
}

fn plan_out(o: &ExperimentOutcome, extended: usize, revoked: usize) -> PlanOut {
    PlanOut {
        digest: digest(o),
        cost_bits: o.total_cost.dollars().to_bits(),
        missed: !o.satisfied,
        extended: extended as u64,
        revoked: revoked as u64,
    }
}

fn run_untraced(p: &Plan) -> PlanOut {
    let mut profiler = p.runner.profiler_for(&p.job);
    let outcome = p.searcher.search(&mut profiler, &p.scenario);
    let (extended, revoked) = (profiler.n_extended(), profiler.n_revoked());
    let exp = p.runner.complete(profiler, outcome, p.searcher.name(), &p.scenario);
    plan_out(&exp, extended, revoked)
}

fn run_traced(p: &Plan, tracer: &Arc<Tracer>) -> (PlanOut, TraceCounts) {
    tracer.span(Layer::Plan, || {
        // `profiler_for` with the cloud wrapped: the same space and the same
        // seeded cloud (the runner's 50-node cap leaves quotas at default).
        let mut profiler = tracer.span(Layer::Setup, || {
            let space = p.runner.space(&p.job);
            let cloud = TracedCloud { inner: SimCloud::new(p.seed), tracer: tracer.clone() };
            p.runner.profiler_on_cloud(&p.job, space, cloud)
        });
        let mut sink = CountingSink::default();
        let mut failures = 0;
        let outcome = tracer.span(Layer::Search, || {
            let mut env = TracedEnv { inner: &mut profiler, tracer, failures: 0 };
            let out = p.searcher.search_traced(&mut env, &p.scenario, &mut sink);
            failures = env.failures;
            out
        });
        let (extended, revoked) = (profiler.n_extended(), profiler.n_revoked());
        let exp = tracer.span(Layer::Complete, || {
            p.runner.complete(profiler, outcome, p.searcher.name(), &p.scenario)
        });
        (plan_out(&exp, extended, revoked), TraceCounts { sink, failures })
    })
}

struct Phase {
    /// Processor ms per plan (see `util::cpu_ms`).
    latencies_ms: Vec<f64>,
    /// Plans per processor second over each whole round of the deck.
    round_rates: Vec<f64>,
    elapsed_s: f64,
    plans: u64,
    failed: u64,
    first: Vec<Option<PlanOut>>,
    first_counts: Vec<TraceCounts>,
    /// Simulator `(dispatched, cancelled)` over the reference plans.
    events: (u64, u64),
    /// Over the whole phase: candidates scored and events dispatched.
    scored_all: u64,
    dispatched_all: u64,
}

/// One timed closed-loop phase: walk the deck, wrapping around, until
/// `seconds` have passed and the first `prefix` plans have run. Those
/// plans are the reference set: their outputs feed the deterministic
/// metrics, and every later run of one of them must repeat them exactly.
impl Phase {
    /// Throughput: the median over whole rounds, which have the same mix,
    /// so a burst of host contention moves one round, not the result. The
    /// reference plans are whole rounds, so there is always one.
    fn rate(&self) -> f64 {
        util::median(&self.round_rates)
    }
}

fn run_phase(
    plans: &[Plan],
    round: usize,
    prefix: usize,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
    report: &mut Report,
    label: &str,
) -> Phase {
    let n = plans.len();
    let mut ph = Phase {
        latencies_ms: Vec::new(),
        round_rates: Vec::new(),
        elapsed_s: 0.0,
        plans: 0,
        failed: 0,
        first: Vec::with_capacity(n),
        first_counts: Vec::with_capacity(n),
        events: (0, 0),
        scored_all: 0,
        dispatched_all: 0,
    };
    let budget = Duration::from_secs_f64(seconds);
    let ev0 = util::sim_events();
    let start = Instant::now();
    let mut round_start = util::cpu_ms();
    let mut k = 0usize;
    while k < prefix || start.elapsed() < budget {
        let p = &plans[k % n];
        let t0 = util::cpu_ms();
        let res = catch_unwind(AssertUnwindSafe(|| match tracer {
            None => (run_untraced(p), TraceCounts::default()),
            Some(t) => {
                t.set_plan(k as u32);
                run_traced(p, t)
            }
        }));
        let done = util::cpu_ms();
        ph.latencies_ms.push(done - t0);
        ph.plans += 1;
        if (k + 1).is_multiple_of(round) {
            ph.round_rates.push(round as f64 * 1e3 / (done - round_start));
            round_start = done;
        }
        let res = res.ok();
        ph.failed += u64::from(res.is_none());
        ph.scored_all += res.map_or(0, |r| r.1.sink.scored);
        if k < prefix {
            ph.first.push(res.map(|r| r.0));
            ph.first_counts.push(res.map_or_else(TraceCounts::default, |r| r.1));
            if k + 1 == prefix {
                let ev1 = util::sim_events();
                ph.events = (ev1.0 - ev0.0, ev1.1 - ev0.1);
            }
        } else if k % n >= prefix {
            // Outside the reference set: timed only.
        } else if let (Some(got), Some(want)) = (res, ph.first[k % n]) {
            report.check(got.0 == want && got.1 == ph.first_counts[k % n], || {
                format!("{label}: plan {} differs from its first pass: {got:?} vs {want:?}", k % n)
            });
        }
        k += 1;
    }
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph.dispatched_all = util::sim_events().0 - ev0.0;
    ph
}

/// Set-up: generate the deck, then warm up every code path once. `search`
/// runs one plan per searcher and space; a `sweep` plan costs under a
/// millisecond, so `sweep` warms up with its first 192 plans.
fn setup(args: &Args, sweep: bool) -> (Vec<Plan>, f64) {
    let t0 = Instant::now();
    let plans = deck(sweep, args.seed, args.smoke);
    let mut seen: Vec<(&str, bool)> = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        let key = (p.searcher.name(), p.variant);
        if (sweep && i < 192) || (!sweep && !seen.contains(&key)) {
            seen.push(key);
            std::hint::black_box(run_untraced(p));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    (plans, secs)
}

pub fn run(args: &Args, sweep: bool) -> Report {
    let mut report = Report::default();
    let label = if sweep { "sweep" } else { "search" };
    let mut setups = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let (p, s) = setup(args, sweep);
        plans = p;
        setups.push(s);
    }
    let prefix = prefix(sweep, args.smoke, plans.len());
    let round = plans.len() / rounds(sweep, args.smoke);
    let plain = run_phase(&plans, round, prefix, args.seconds, None, &mut report, label);
    report.attempted = plain.plans;
    report.failed = plain.failed;
    report.check(plain.failed == 0, || format!("{label}: {} plans failed", plain.failed));
    let first: Vec<PlanOut> = plain.first.iter().flatten().copied().collect();
    let cost: f64 = first.iter().map(|o| f64::from_bits(o.cost_bits)).sum();
    let misses = first.iter().filter(|o| o.missed).count();
    let rate = plain.rate();

    if !args.trace {
        let lat = util::sorted(&plain.latencies_ms);
        let nlat = lat.len() as u64;
        report.put("setup_s", util::median(&setups), "s", setups.len() as u64);
        report.put("plans_per_s", rate, "1/s", plain.plans);
        report.put("plan_ms_p50", util::quantile(&lat, 0.5), "ms", nlat);
        report.note("plan_ms_p90", util::quantile(&lat, 0.9), "ms", nlat);
        let wall_rate = plain.plans as f64 / plain.elapsed_s;
        report.note("plans_per_wall_s", wall_rate, "1/s", plain.plans);
        report.note("plan_ms_p99", util::quantile(&lat, 0.99), "ms", nlat);
        report.put(
            "done_frac",
            1.0 - plain.failed as f64 / plain.plans as f64,
            "ratio",
            plain.plans,
        );
        report.put("sim_cost_usd", cost, "usd", first.len() as u64);
        report.put("constraint_misses", misses as f64, "count", first.len() as u64);
        report.put("rss_peak_mb", util::rss_peak_mb(), "MB", 1);
        return report;
    }

    let tracer = Tracer::new(crate::SPAN_CAP);
    let traced = run_phase(&plans, round, prefix, args.seconds, Some(&tracer), &mut report, label);
    report.attempted += traced.plans;
    report.failed += traced.failed;
    report.check(traced.first == plain.first, || {
        format!("{label}: traced first pass differs from the untraced one")
    });
    report.check(traced.events == plain.events, || {
        format!(
            "{label}: simulator events differ: traced {:?} vs untraced {:?}",
            traced.events, plain.events
        )
    });

    let plan = tracer.agg(Layer::Plan);
    let search = tracer.agg(Layer::Search);
    let profiler = tracer.agg(Layer::Profiler);
    let cloud = tracer.agg(Layer::Cloud);
    let np = plan.calls.max(1) as f64;
    let sum = |f: fn(&TraceCounts) -> u64| traced.first_counts.iter().map(f).sum::<u64>() as f64;
    let per = |num: f64, den: u64| if den > 0 { num / den as f64 } else { 0.0 };
    let layers = crate::LayerMetrics {
        search_self_ms: search.self_ms() / np,
        search_self_share: search.self_ns as f64 / plan.total_ns as f64,
        search_us_per_scored: per(search.self_ms() * 1e3, traced.scored_all),
        search_scored: sum(|c| c.sink.scored),
        search_pruned: sum(|c| c.sink.pruned),
        search_probes: sum(|c| c.sink.probes),
        profiler_self_ms: profiler.self_ms() / np,
        profiler_extended: first.iter().map(|o| o.extended).sum::<u64>() as f64,
        profiler_revoked: first.iter().map(|o| o.revoked).sum::<u64>() as f64,
        profiler_failures: sum(|c| c.failures),
        cloud_ms: cloud.total_ms() / np,
        events_dispatched: plain.events.0 as f64,
        events_cancelled: plain.events.1 as f64,
        cloud_ns_per_event: per(cloud.total_ns as f64, traced.dispatched_all),
        setup_ms: tracer.agg(Layer::Setup).total_ms() / np,
        complete_ms: tracer.agg(Layer::Complete).total_ms() / np,
        overhead_pct: (rate - traced.rate()) / rate * 100.0,
        samples: plan.calls,
        ..Default::default()
    };
    layers.put(&mut report);
    crate::write_spans(&tracer, args, &mut report);
    report
}
