//! The `fleet` workload: a closed loop of `FleetSim::run` over the
//! contended presets at levels 2 and 3 under every policy.

use crate::trace::{Layer, TracedPolicy, Tracer};
use crate::util::{self, Fnv, Report, Rng};
use crate::Args;
use mlcd_fleet::{per_job_greedy_cost, policy_by_name, FleetScenario, FleetSim, POLICY_NAMES};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Run {
    level: u8,
    scenario: FleetScenario,
    policy: &'static str,
}

fn deck(seed: u64, smoke: bool) -> Vec<Run> {
    let mut rng = Rng::new(seed);
    let levels: &[u8] = if smoke { &[2] } else { &[2, 3] };
    let policies: &[&str] = if smoke { &POLICY_NAMES[..1] } else { &POLICY_NAMES };
    let mut runs = Vec::new();
    for &level in levels {
        let scenario = FleetScenario::contended(level, rng.next_u64() % 1_000_000);
        for &policy in policies {
            runs.push(Run { level, scenario: scenario.clone(), policy });
        }
    }
    rng.shuffle(&mut runs);
    runs
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct RunOut {
    digest: u64,
    cost_bits: u64,
    jobs: u64,
    missed: u64,
    granted: u64,
    denied: u64,
}

/// A run longer than this is taken to be livelocked: a normal run of these
/// scenarios takes well under a second.
const STALL: Duration = Duration::from_secs(10);

/// One fleet run on a helper thread, so a run that never finishes is
/// reported instead of hanging the benchmark. On `Err` the helper thread
/// is still spinning; the caller must end the process.
fn run_one(r: &Run, tracer: Option<&Arc<Tracer>>) -> Result<RunOut, String> {
    let scenario = r.scenario.clone();
    let policy = policy_by_name(r.policy).expect("known policy");
    let tracer = tracer.cloned();
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let out = match tracer {
            None => FleetSim::new(scenario, policy).run(),
            Some(t) => {
                let policy = Box::new(TracedPolicy { inner: policy, tracer: t.clone() });
                t.span(Layer::FleetRun, || FleetSim::new(scenario, policy).run())
            }
        };
        let _ = tx.send(());
        out
    });
    match rx.recv_timeout(STALL) {
        Ok(()) => {}
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            return Err(format!(
                "fleet run did not finish in {} s (livelock): contended level {} seed {} \
                 policy {}; reproduce with `mlcd-fleet run --level {} --policy {} --seed {}`",
                STALL.as_secs(),
                r.level,
                r.scenario.seed,
                r.policy,
                r.level,
                r.policy,
                r.scenario.seed
            ))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {}
    }
    let out = helper.join().map_err(|_| "fleet run panicked".to_string())?;
    Ok(RunOut {
        digest: Fnv::new().bytes(out.digest().as_bytes()).0,
        cost_bits: out.agg.total_cost.dollars().to_bits(),
        jobs: u64::from(out.agg.jobs),
        missed: u64::from(out.agg.missed),
        granted: out.agg.granted,
        denied: out.agg.denied,
    })
}

struct Phase {
    /// Processor ms per run (see `util::cpu_ms`).
    run_ms: Vec<f64>,
    /// The same, by deck index.
    by_run: Vec<Vec<f64>>,
    /// Processor seconds over the phase.
    cpu_s: f64,
    runs: u64,
    jobs: u64,
    failed: u64,
    first: Vec<Option<RunOut>>,
    /// `decide` calls per run of the first pass (traced phase only).
    decisions: Vec<u64>,
    events: (u64, u64),
    /// A run livelocked and the phase stopped early.
    stalled: bool,
}

fn run_phase(
    deck: &[Run],
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
    report: &mut Report,
) -> Phase {
    let n = deck.len();
    let mut ph = Phase {
        run_ms: Vec::new(),
        by_run: vec![Vec::new(); n],
        cpu_s: 0.0,
        runs: 0,
        jobs: 0,
        failed: 0,
        first: Vec::new(),
        decisions: Vec::new(),
        events: (0, 0),
        stalled: false,
    };
    let budget = Duration::from_secs_f64(seconds);
    let ev0 = util::sim_events();
    let start = Instant::now();
    let cpu0 = util::cpu_ms();
    let mut k = 0usize;
    while k < n || start.elapsed() < budget {
        let calls = || tracer.map_or(0, |t| t.agg(Layer::Decide).calls);
        let d0 = calls();
        let t0 = util::cpu_ms();
        if let Some(t) = tracer {
            t.set_plan(k as u32);
        }
        let res = match run_one(&deck[k % n], tracer) {
            Ok(out) => Some(out),
            Err(e) => {
                // The run counts as failed and its jobs as attempted; the
                // phase cannot go on beside a spinning run.
                report.errors.push(e);
                ph.failed += 1;
                ph.runs += 1;
                ph.stalled = true;
                break;
            }
        };
        let ms = util::cpu_ms() - t0;
        let decisions = calls() - d0;
        ph.run_ms.push(ms);
        ph.by_run[k % n].push(ms);
        ph.runs += 1;
        ph.failed += u64::from(res.is_none());
        ph.jobs += res.map_or(0, |r| r.jobs);
        if k < n {
            ph.first.push(res);
            ph.decisions.push(decisions);
            if k + 1 == n {
                let ev1 = util::sim_events();
                ph.events = (ev1.0 - ev0.0, ev1.1 - ev0.1);
            }
        } else if let (Some(got), Some(want)) = (res, ph.first[k % n]) {
            report.check(got == want && decisions == ph.decisions[k % n], || {
                format!("fleet: run {} differs from its first pass: {got:?} vs {want:?}", k % n)
            });
        }
        k += 1;
    }
    ph.cpu_s = (util::cpu_ms() - cpu0) / 1e3;
    ph
}

/// Set-up: generate the deck and warm up with one run per level.
fn setup(args: &Args) -> Result<(Vec<Run>, f64), String> {
    let t0 = Instant::now();
    let runs = deck(args.seed, args.smoke);
    let mut seen = Vec::new();
    for r in &runs {
        if !seen.contains(&r.level) {
            seen.push(r.level);
            run_one(r, None)?;
        }
    }
    Ok((runs, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        match setup(args) {
            Ok((r, s)) => {
                runs = r;
                setups.push(s);
            }
            Err(e) => {
                report.errors.push(e);
                report.attempted = 1;
                report.failed = 1;
                return report;
            }
        }
    }
    let plain = run_phase(&runs, args.seconds, None, &mut report);
    // Jobs are the unit of work: every job of a run counts as attempted.
    let jobs_per_run = plain.first.iter().flatten().map(|r| r.jobs).max().unwrap_or(1);
    report.attempted = plain.jobs + plain.failed * jobs_per_run;
    report.failed = plain.failed * jobs_per_run;
    report.check(plain.failed == 0, || format!("fleet: {} runs failed", plain.failed));
    let first: Vec<RunOut> = plain.first.iter().flatten().copied().collect();
    let cost: f64 = first.iter().map(|r| f64::from_bits(r.cost_bits)).sum();
    let misses: u64 = first.iter().map(|r| r.missed).sum();
    let rate = plain.jobs as f64 / plain.cpu_s;

    if !args.trace {
        let lat = util::sorted(&plain.run_ms);
        let nlat = lat.len() as u64;
        report.put("setup_s", util::median(&setups), "s", setups.len() as u64);
        report.put("plans_per_s", rate, "1/s", plain.jobs);
        report.put("plan_ms_p50", util::quantile(&lat, 0.5), "ms", nlat);
        report.note("plan_ms_p90", util::quantile(&lat, 0.9), "ms", nlat);
        report.note("plan_ms_p99", util::quantile(&lat, 0.99), "ms", nlat);
        let done = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.put("done_frac", done, "ratio", report.attempted);
        report.put("sim_cost_usd", cost, "usd", first.len() as u64);
        report.put("constraint_misses", misses as f64, "count", first.len() as u64);
        report.put("rss_peak_mb", util::rss_peak_mb(), "MB", 1);
        return report;
    }

    if plain.stalled {
        return report;
    }
    let tracer = Tracer::new(crate::SPAN_CAP);
    let traced = run_phase(&runs, args.seconds, Some(&tracer), &mut report);
    if traced.stalled {
        return report;
    }
    report.attempted += traced.jobs;
    report.failed += traced.failed * jobs_per_run;
    report.check(traced.first == plain.first, || {
        "fleet: traced first pass differs from the untraced one".to_string()
    });
    report.check(traced.events == plain.events, || {
        format!(
            "fleet: simulator events differ: traced {:?} vs untraced {:?}",
            traced.events, plain.events
        )
    });

    // Per-job greedy baseline on the same scenarios, once per level.
    let mut ratios = Vec::new();
    let mut isolated = Vec::new();
    for level in [2u8, 3] {
        let idx: Vec<usize> = (0..runs.len()).filter(|&i| runs[i].level == level).collect();
        let Some(&i0) = idx.first() else { continue };
        let ms = tracer.span(Layer::Isolated, || {
            let t0 = util::cpu_ms();
            std::hint::black_box(per_job_greedy_cost(&runs[i0].scenario));
            util::cpu_ms() - t0
        });
        isolated.push(ms);
        let run_ms: Vec<f64> = idx.iter().flat_map(|&i| traced.by_run[i].iter().copied()).collect();
        ratios.push(util::median(&run_ms) / ms);
    }

    let decide = tracer.agg(Layer::Decide);
    let layers = crate::LayerMetrics {
        events_dispatched: plain.events.0 as f64,
        events_cancelled: plain.events.1 as f64,
        overhead_pct: (rate - traced.jobs as f64 / traced.cpu_s) / rate * 100.0,
        samples: traced.runs,
        ..Default::default()
    };
    layers.put(&mut report);
    let n = traced.runs;
    let r = &mut report;
    r.put("fleet.run_ms_p50", util::median(&traced.run_ms), "ms", n);
    r.put("fleet.isolated_ms", util::mean(&isolated), "ms", isolated.len() as u64);
    r.put("fleet.overhead_ratio", util::mean(&ratios), "ratio", n);
    let decide_us = decide.total_ns as f64 / 1e3 / decide.calls.max(1) as f64;
    r.put("fleet.decide_us", decide_us, "us", decide.calls);
    r.put("fleet.decisions", traced.decisions.iter().sum::<u64>() as f64, "count", n);
    r.put("fleet.granted", first.iter().map(|r| r.granted).sum::<u64>() as f64, "count", n);
    r.put("fleet.denied", first.iter().map(|r| r.denied).sum::<u64>() as f64, "count", n);
    crate::write_spans(&tracer, args, &mut report);
    report
}
