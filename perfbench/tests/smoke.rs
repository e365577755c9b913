//! Smoke tests: every workload at a tiny size, untraced and traced, with
//! the benchmark's correctness checks on, and deterministic outputs equal
//! across two processes at one seed.

use std::process::Command;

/// Run one smoke-size workload; return the parsed last line of stdout.
fn run(workload: &str, seed: u64, trace: u8) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} trace={trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let v: serde_json::Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true), "{stdout}");
    assert!(v.get("attempted").and_then(|a| a.as_u64()).unwrap_or(0) >= 1);
    assert_eq!(v.get("failed").and_then(|f| f.as_u64()), Some(0));
    v
}

fn metric(v: &serde_json::Value, name: &str) -> f64 {
    v.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(|x| x.as_f64())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

const END_TO_END: [&str; 7] = [
    "setup_s",
    "plans_per_s",
    "plan_ms_p50",
    "done_frac",
    "sim_cost_usd",
    "constraint_misses",
    "rss_peak_mb",
];

/// Per-layer counts that must repeat exactly at one seed.
const EXACT: [&str; 8] = [
    "search.candidates_scored",
    "search.candidates_pruned",
    "search.probes",
    "profiler.extended",
    "profiler.revoked",
    "profiler.probe_failures",
    "cloudsim.events_dispatched",
    "cloudsim.events_cancelled",
];
/// The fleet workload's own exact counts.
const FLEET_EXACT: [&str; 3] = ["fleet.decisions", "fleet.granted", "fleet.denied"];

fn check(workload: &str) {
    let plain = run(workload, 5, 0);
    for name in END_TO_END {
        assert!(metric(&plain, name).is_finite(), "{workload}: {name}");
    }
    assert!(metric(&plain, "plans_per_s") > 0.0);
    let again = run(workload, 5, 0);
    for name in ["sim_cost_usd", "constraint_misses"] {
        assert_eq!(metric(&plain, name), metric(&again, name), "{workload}: {name} repeats");
    }
    let traced = run(workload, 5, 1);
    let traced_again = run(workload, 5, 1);
    let fleet = if workload == "fleet" { &FLEET_EXACT[..] } else { &[] };
    for &name in EXACT.iter().chain(fleet) {
        assert_eq!(metric(&traced, name), metric(&traced_again, name), "{workload}: {name}");
    }
    assert!(metric(&traced, "trace.overhead_pct").is_finite());
}

#[test]
fn search_smoke() {
    check("search");
}

#[test]
fn sweep_smoke() {
    check("sweep");
}

#[test]
fn serve_smoke() {
    check("serve");
}

#[test]
fn fleet_smoke() {
    check("fleet");
}

#[test]
fn bad_arguments_exit_non_zero() {
    for args in [&["--workload", "nope"][..], &["--seed", "1"][..], &["--trace", "2"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
