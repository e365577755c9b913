//! The planner's benchmark: one seeded workload per process.
//!
//! ```text
//! perfbench --workload search|sweep|serve|fleet --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` runs the workload untraced and prints every end-to-end
//! metric. `--trace 1` runs it untraced and then traced, checks that both
//! computed the same outcomes, and prints every per-layer metric. The last
//! line of standard output is the JSON result; the process exits non-zero
//! when any correctness check failed. `--smoke` shrinks every input for
//! the benchmark's own tests.

mod fleet;
mod plans;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use util::Report;

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 3;
/// Spans kept for the written trace (per-layer totals cover all spans).
const SPAN_CAP: usize = 200_000;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Scratch space inside the working directory (journals, span files).
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

fn write_spans(tracer: &trace::Tracer, args: &Args, report: &mut Report) {
    let path = work_dir().join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    match tracer.write_csv(&path) {
        Ok((kept, dropped)) => {
            println!("# spans: {kept} written to {}, {dropped} past the buffer", path.display())
        }
        Err(e) => report.errors.push(format!("writing spans to {}: {e}", path.display())),
    }
}

/// The per-layer metrics of `BENCHMARK.json`. A workload fills the layers
/// it exercises; the rest stay 0, which is the measured truth (that layer
/// does not run in that workload). The fleet workload adds its own.
#[derive(Default)]
pub struct LayerMetrics {
    search_self_ms: f64,
    search_self_share: f64,
    search_us_per_scored: f64,
    search_scored: f64,
    search_pruned: f64,
    search_probes: f64,
    profiler_self_ms: f64,
    profiler_extended: f64,
    profiler_revoked: f64,
    profiler_failures: f64,
    cloud_ms: f64,
    events_dispatched: f64,
    events_cancelled: f64,
    cloud_ns_per_event: f64,
    setup_ms: f64,
    complete_ms: f64,
    submit_rtt_ms_p50: f64,
    submit_rtt_ms_p99: f64,
    result_rtt_ms_p50: f64,
    result_bytes_mean: f64,
    gen_lag_ms_p99: f64,
    queued_mean: f64,
    queue_wait_ms: f64,
    rejected: f64,
    probe_hit_ratio: f64,
    probe_lookups: f64,
    grid_hit_ratio: f64,
    grid_lookups: f64,
    journal_records: f64,
    journal_groups: f64,
    journal_checkpoints: f64,
    journal_bytes_per_session: f64,
    journal_plan_ms_p50: f64,
    journal_plan_ms_p99: f64,
    max_rate_per_s: f64,
    overhead_pct: f64,
    /// Traced plans, sessions or runs behind the timings.
    samples: u64,
}

impl LayerMetrics {
    fn put(&self, r: &mut Report) {
        let n = self.samples;
        r.put("search.self_ms", self.search_self_ms, "ms", n);
        r.put("search.self_share", self.search_self_share, "ratio", n);
        r.put("search.us_per_scored", self.search_us_per_scored, "us", n);
        r.put("search.candidates_scored", self.search_scored, "count", n);
        r.put("search.candidates_pruned", self.search_pruned, "count", n);
        r.put("search.probes", self.search_probes, "count", n);
        r.put("profiler.self_ms", self.profiler_self_ms, "ms", n);
        r.put("profiler.extended", self.profiler_extended, "count", n);
        r.put("profiler.revoked", self.profiler_revoked, "count", n);
        r.put("profiler.probe_failures", self.profiler_failures, "count", n);
        r.put("cloudsim.ms", self.cloud_ms, "ms", n);
        r.put("cloudsim.events_dispatched", self.events_dispatched, "count", n);
        r.put("cloudsim.events_cancelled", self.events_cancelled, "count", n);
        r.put("cloudsim.ns_per_event", self.cloud_ns_per_event, "ns", n);
        r.put("experiment.setup_ms", self.setup_ms, "ms", n);
        r.put("experiment.complete_ms", self.complete_ms, "ms", n);
        r.put("net.submit_rtt_ms_p50", self.submit_rtt_ms_p50, "ms", n);
        r.put("net.submit_rtt_ms_p99", self.submit_rtt_ms_p99, "ms", n);
        r.put("net.result_rtt_ms_p50", self.result_rtt_ms_p50, "ms", n);
        r.put("net.result_bytes_mean", self.result_bytes_mean, "bytes", n);
        r.put("gen.lag_ms_p99", self.gen_lag_ms_p99, "ms", n);
        r.put("session.queued_mean", self.queued_mean, "count", n);
        r.put("session.queue_wait_ms", self.queue_wait_ms, "ms", n);
        r.put("session.rejected", self.rejected, "count", n);
        r.put("cache.probe_hit_ratio", self.probe_hit_ratio, "ratio", n);
        r.put("cache.probe_lookups", self.probe_lookups, "count", n);
        r.put("cache.grid_hit_ratio", self.grid_hit_ratio, "ratio", n);
        r.put("cache.grid_lookups", self.grid_lookups, "count", n);
        let per_group = self.journal_records / self.journal_groups.max(1.0);
        r.put("journal.records", self.journal_records, "count", n);
        r.put("journal.groups", self.journal_groups, "count", n);
        r.put("journal.records_per_group", per_group, "ratio", n);
        r.put("journal.checkpoints", self.journal_checkpoints, "count", n);
        r.put("journal.bytes_per_session", self.journal_bytes_per_session, "bytes", n);
        r.put("journal.plan_ms_p50", self.journal_plan_ms_p50, "ms", n);
        r.put("journal.plan_ms_p99", self.journal_plan_ms_p99, "ms", n);
        r.put("ladder.max_rate_per_s", self.max_rate_per_s, "1/s", n);
        r.put("trace.overhead_pct", self.overhead_pct, "%", n);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "search" => plans::run(&args, false),
        "sweep" => plans::run(&args, true),
        "serve" => serve::run(&args),
        "fleet" => fleet::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (search, sweep, serve, fleet)");
            std::process::exit(2);
        }
    };
    let header = format!(
        "workload={} seed={} seconds={} trace={} smoke={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.smoke
    );
    print!("{}", report.render(&header));
    if !report.correct() {
        std::process::exit(1);
    }
}
