//! Fixture-driven tests for each rule family: every rule has at least
//! one fixture proving it fires, and one proving the allowlist (or an
//! exemption) silences it. Fixtures live under `tests/fixtures/`, which
//! the workspace walker deliberately skips, and are linted under
//! *virtual* paths so crate/hot-path scoping applies.

use mlcd_lint::{lint_source, Rule};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint a fixture as if it lived at `virtual_path`; return the fired
/// rule names in order.
fn fired(virtual_path: &str, name: &str) -> Vec<&'static str> {
    lint_source(virtual_path, &fixture(name)).iter().map(|v| v.rule.name()).collect()
}

#[test]
fn hash_iter_fires_on_both_iteration_forms() {
    let v = lint_source("crates/core/src/search/policies/example.rs", &fixture("hash_iter_bad.rs"));
    let hash: Vec<_> = v.iter().filter(|v| v.rule == Rule::HashIter).collect();
    assert_eq!(hash.len(), 2, "for-loop + .values(): {v:?}");
    assert!(hash.iter().any(|v| v.message.contains("for .. in by_type")));
    assert!(hash.iter().any(|v| v.message.contains("by_type.values()")));
}

#[test]
fn hash_iter_is_scoped_to_ordered_crates() {
    // Same source under the bench crate (free to iterate) and under a
    // test target of an ordered crate: both clean.
    assert_eq!(fired("crates/bench/src/report.rs", "hash_iter_bad.rs"), Vec::<&str>::new());
    assert_eq!(fired("crates/core/tests/golden.rs", "hash_iter_bad.rs"), Vec::<&str>::new());
}

#[test]
fn hash_iter_allow_annotation_silences_the_line() {
    assert_eq!(
        fired("crates/core/src/search/policies/example.rs", "hash_iter_allowed.rs"),
        Vec::<&str>::new()
    );
}

#[test]
fn nondet_source_fires_in_core() {
    let rules = fired("crates/core/src/sim/clock.rs", "nondet_bad.rs");
    assert_eq!(rules, vec!["nondet-source", "nondet-source"]);
    let v = lint_source("crates/core/src/sim/clock.rs", &fixture("nondet_bad.rs"));
    assert!(v[0].message.contains("Instant::now()"));
    assert!(v[1].message.contains("thread_rng"));
}

#[test]
fn nondet_source_fires_in_bench_crate() {
    // The figure harness gets no carve-out: its output must be as
    // reproducible as the searches it reports.
    assert_eq!(
        fired("crates/bench/src/timing.rs", "nondet_bad.rs"),
        vec!["nondet-source", "nondet-source"]
    );
}

#[test]
fn nondet_source_exemption_covers_only_the_service_net_layer() {
    // The connection layer may stamp log lines with the wall clock …
    assert_eq!(fired("crates/service/src/net/mod.rs", "net_clock.rs"), Vec::<&str>::new());
    assert_eq!(fired("crates/service/src/net/server.rs", "nondet_bad.rs"), Vec::<&str>::new());
    // … but the session path — everything that can feed a SearchOutcome —
    // stays under the full rule, as does the rest of the service crate.
    assert_eq!(
        fired("crates/service/src/net_clock_lookalike.rs", "net_clock.rs"),
        vec!["nondet-source"]
    );
    for session_path in [
        "crates/service/src/session.rs",
        "crates/service/src/journal.rs",
        "crates/service/src/cache.rs",
    ] {
        assert_eq!(
            fired(session_path, "nondet_bad.rs"),
            vec!["nondet-source", "nondet-source"],
            "{session_path} must stay under R2"
        );
    }
}

#[test]
fn float_cmp_fires_on_eq_and_partial_cmp_unwrap() {
    let rules = fired("crates/gp/src/kernels.rs", "float_cmp_bad.rs");
    assert_eq!(rules, vec!["float-cmp", "float-cmp"]);
}

#[test]
fn float_cmp_allow_and_test_module_exemption() {
    assert_eq!(fired("crates/gp/src/kernels.rs", "float_cmp_allowed.rs"), Vec::<&str>::new());
    assert_eq!(fired("crates/gp/src/kernels.rs", "float_cmp_testmod.rs"), Vec::<&str>::new());
}

#[test]
fn unsafe_without_safety_comment_fires_everywhere() {
    // Even the bench crate (outside the R1 and R3 scopes) is held to
    // unsafe hygiene.
    assert_eq!(fired("crates/bench/src/mem.rs", "unsafe_bad.rs"), vec!["unsafe-hygiene"]);
    assert_eq!(fired("crates/bench/src/mem.rs", "unsafe_good.rs"), Vec::<&str>::new());
}

#[test]
fn core_crate_roots_must_keep_forbid_unsafe() {
    // A crate root missing `#![forbid(unsafe_code)]` is a violation …
    let v = lint_source("crates/core/src/lib.rs", "pub fn x() {}\n");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::UnsafeHygiene);
    assert!(v[0].message.contains("forbid(unsafe_code)"));
    // … and the attribute satisfies it.
    let ok = lint_source("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\npub fn x() {}\n");
    assert!(ok.is_empty(), "{ok:?}");
    // Crates outside the pinned list are not required to carry it.
    let bench = lint_source("crates/bench/src/lib.rs", "pub fn x() {}\n");
    assert!(bench.is_empty(), "{bench:?}");
}

#[test]
fn hot_panic_fires_only_in_hot_paths() {
    assert_eq!(fired("crates/core/src/search/kernel.rs", "hot_panic_bad.rs"), vec!["hot-panic"]);
    // The same code one module over is fine.
    assert_eq!(fired("crates/core/src/search/trace.rs", "hot_panic_bad.rs"), Vec::<&str>::new());
}

#[test]
fn hot_index_fires_in_every_pinned_hot_path() {
    for hot in [
        "crates/core/src/search/kernel.rs",
        "crates/gp/src/fit.rs",
        "crates/linalg/src/chol.rs",
        "crates/linalg/src/fastpath.rs",
        "crates/linalg/src/fastpath/lanes.rs",
        "crates/linalg/src/fastpath/log.rs",
        "crates/linalg/src/fastpath/normal.rs",
        "crates/linalg/src/fastpath/posterior.rs",
        "crates/linalg/src/fastpath/vector.rs",
        "crates/linalg/src/optimize.rs",
        "crates/cloudsim/src/sim.rs",
    ] {
        let rules = fired(hot, "hot_index_bad.rs");
        assert_eq!(rules, vec!["hot-index", "hot-index"], "{hot}");
    }
    // A non-pinned module in the same crate stays out of the discipline.
    assert_eq!(fired("crates/linalg/src/qr.rs", "hot_index_bad.rs"), Vec::<&str>::new());
}

#[test]
fn fn_scoped_allow_covers_the_whole_body() {
    assert_eq!(fired("crates/gp/src/fit.rs", "hot_allowed_fn.rs"), Vec::<&str>::new());
}

#[test]
fn file_scoped_allow_covers_every_site() {
    assert_eq!(fired("crates/linalg/src/chol.rs", "hot_allowed_file.rs"), Vec::<&str>::new());
}

#[test]
fn malformed_annotations_are_violations() {
    let v = lint_source("crates/core/src/anywhere.rs", &fixture("bad_annotation.rs"));
    let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec![Rule::BadAnnotation, Rule::BadAnnotation, Rule::BadAnnotation], "{v:?}");
    assert!(v[0].message.contains("no reason"), "{}", v[0].message);
    assert!(v[1].message.contains("unknown rule"), "{}", v[1].message);
    assert!(v[2].message.contains("unknown scope"), "{}", v[2].message);
}

#[test]
fn stale_allows_are_flagged() {
    let v = lint_source("crates/gp/src/kernels.rs", &fixture("unused_allow.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::UnusedAllow);
}

// --- R6: guard-across-blocking ---------------------------------------------

#[test]
fn guard_blocking_fires_on_the_rebroadened_submit_shape() {
    let v = lint_source("crates/core/src/queue.rs", &fixture("guard_bad.rs"));
    assert!(v.iter().all(|f| f.rule == Rule::GuardBlocking), "{v:?}");
    assert_eq!(v.len(), 4, "{v:?}");
    // The deliberately re-broadened PR 5 submit(): the queue guard is
    // live across the journal write and the fsync.
    assert!(
        v[0].message.contains("`queue`") && v[0].message.contains("write_all"),
        "{}",
        v[0].message
    );
    assert!(
        v[1].message.contains("`queue`") && v[1].message.contains("sync_data"),
        "{}",
        v[1].message
    );
    // A read guard held across file IO counts too.
    assert!(v[2].message.contains("`snapshot`"), "{}", v[2].message);
    // A second guard sleeping through a condvar wait (the wait only
    // consumes the guard it is handed).
    assert!(v[3].message.contains("`stats`") && v[3].message.contains("wait"), "{}", v[3].message);
}

#[test]
fn guard_blocking_is_silent_on_disciplined_sections() {
    // Scoped staging, drop(guard), shadowing, condvar loops, and a
    // Mutex<File> serializing its own IO are all sanctioned shapes.
    assert_eq!(fired("crates/core/src/queue.rs", "guard_good.rs"), Vec::<&str>::new());
}

#[test]
fn guard_blocking_allows_cover_line_fn_and_file_scopes() {
    assert_eq!(fired("crates/core/src/queue.rs", "guard_allowed.rs"), Vec::<&str>::new());
    assert_eq!(fired("crates/core/src/queue.rs", "guard_allowed_file.rs"), Vec::<&str>::new());
}

// --- R7: lock-order --------------------------------------------------------

#[test]
fn lock_order_fires_on_inversion_alias_shard_family_and_reentry() {
    let v = lint_source("crates/core/src/svc.rs", &fixture("lock_order_bad.rs"));
    assert!(v.iter().all(|f| f.rule == Rule::LockOrder), "{v:?}");
    assert_eq!(v.len(), 4, "{v:?}");
    assert!(v[0].message.contains("inversion") && v[0].message.contains("`control < state`"));
    // `registry_shards` canonicalises to `registry` via the declaration's
    // alias group.
    assert!(v[1].message.contains("`control < registry`"), "{}", v[1].message);
    assert!(v[2].message.contains("shards of one family"), "{}", v[2].message);
    assert!(v[3].message.contains("self-deadlocks"), "{}", v[3].message);
}

#[test]
fn lock_order_respects_declared_nesting() {
    assert_eq!(fired("crates/core/src/svc.rs", "lock_order_good.rs"), Vec::<&str>::new());
}

// --- R8: sim-handler purity ------------------------------------------------

#[test]
fn sim_handler_purity_is_scoped_to_handler_fns_in_handler_files() {
    let v = lint_source("crates/cloudsim/src/sim.rs", &fixture("handler_bad.rs"));
    let sim: Vec<_> = v.iter().filter(|f| f.rule == Rule::SimHandler).collect();
    assert_eq!(sim.len(), 3, "{v:?}");
    assert!(sim[0].message.contains("console IO"), "{}", sim[0].message);
    assert!(sim[1].message.contains("lock acquisition"), "{}", sim[1].message);
    assert!(sim[2].message.contains("wall-clock time"), "{}", sim[2].message);
    // The same source outside the pinned handler files carries no purity
    // contract.
    let away = lint_source("crates/core/src/sim.rs", &fixture("handler_bad.rs"));
    assert!(away.iter().all(|f| f.rule != Rule::SimHandler), "{away:?}");
}

#[test]
fn sim_handler_ignores_pure_handlers_and_effectful_non_handlers() {
    let v = lint_source("crates/cloudsim/src/sim.rs", &fixture("handler_good.rs"));
    assert!(v.iter().all(|f| f.rule != Rule::SimHandler), "{v:?}");
}

// --- R9: lock-unwrap discipline --------------------------------------------

#[test]
fn lock_unwrap_fires_only_in_service_outside_the_boundary() {
    let v = lint_source("crates/service/src/metrics.rs", &fixture("lock_unwrap_bad.rs"));
    let rules: Vec<_> = v.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![Rule::LockUnwrap; 4], "{v:?}");
    // The designated boundary file may unwrap poison: that is its job.
    assert_eq!(fired("crates/service/src/sync.rs", "lock_unwrap_bad.rs"), Vec::<&str>::new());
    // Crates outside mlcd-service fall outside the discipline.
    assert_eq!(fired("crates/core/src/metrics.rs", "lock_unwrap_bad.rs"), Vec::<&str>::new());
}

#[test]
fn lock_unwrap_accepts_boundary_helpers_and_test_code() {
    assert_eq!(fired("crates/service/src/metrics.rs", "lock_unwrap_good.rs"), Vec::<&str>::new());
}
