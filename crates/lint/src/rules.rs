//! The determinism / numeric-safety / concurrency-discipline rule
//! families and the allowlist annotation machinery. See DESIGN.md
//! §"Determinism lint" for the full rationale of each rule.
//!
//! Everything operates on the token stream + comment list produced by
//! [`crate::lexer`]; the concurrency rules (R6–R9) additionally use the
//! scope facts recovered by [`crate::syntax`]. String literals and
//! comments can never trigger a rule. Detection is deliberately lexical
//! (no type information): each rule is written so its false-negative
//! modes are understood and its false positives can be silenced only
//! through a reasoned `// lint: allow(..)` annotation.

use crate::lexer::{lex, Comment, LexOut, Tok, Token};
use crate::syntax::{acquisitions, blocking_sites, is_terminal_in_stmt, Syntax};

/// The rules `mlcd-lint` enforces. R1–R9 refer to the ISSUE/DESIGN.md
/// numbering; the last two police the lint's own escape hatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1: no `HashMap`/`HashSet` iteration in outcome-feeding crates.
    HashIter,
    /// R2: no wall-clock or OS-entropy sources outside the service's
    /// net/ logging layer.
    NondetSource,
    /// R3: no float `==`/`!=`, no `partial_cmp(..).unwrap()/expect(..)`.
    FloatCmp,
    /// R4: `unsafe` needs `// SAFETY:`; core crates stay `forbid(unsafe_code)`.
    UnsafeHygiene,
    /// R5a: `unwrap()`/`expect()` in the kernel hot paths needs a reason.
    HotPanic,
    /// R5b: direct indexing in the kernel hot paths needs a reason.
    HotIndex,
    /// R6: a lock guard must not be live across a blocking call.
    GuardBlocking,
    /// R7: nested lock acquisitions must follow the declared lock order.
    LockOrder,
    /// R8: cloudsim event handlers must be pure — no IO, time, or locks.
    SimHandler,
    /// R9: lock poison handling in the service crate goes through one
    /// audited helper, not ad-hoc `.lock().unwrap()/.expect(..)`.
    LockUnwrap,
    /// A malformed `lint: allow` annotation (missing reason, unknown rule).
    BadAnnotation,
    /// An annotation that suppressed nothing — stale allows must go.
    UnusedAllow,
}

impl Rule {
    /// The kebab-case name used in diagnostics and `allow(..)` annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::NondetSource => "nondet-source",
            Rule::FloatCmp => "float-cmp",
            Rule::UnsafeHygiene => "unsafe-hygiene",
            Rule::HotPanic => "hot-panic",
            Rule::HotIndex => "hot-index",
            Rule::GuardBlocking => "guard-blocking",
            Rule::LockOrder => "lock-order",
            Rule::SimHandler => "sim-handler",
            Rule::LockUnwrap => "lock-unwrap",
            Rule::BadAnnotation => "bad-annotation",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// Every rule, in diagnostic order (used by `--explain` listings).
    pub const ALL: &'static [Rule] = &[
        Rule::HashIter,
        Rule::NondetSource,
        Rule::FloatCmp,
        Rule::UnsafeHygiene,
        Rule::HotPanic,
        Rule::HotIndex,
        Rule::GuardBlocking,
        Rule::LockOrder,
        Rule::SimHandler,
        Rule::LockUnwrap,
        Rule::BadAnnotation,
        Rule::UnusedAllow,
    ];

    /// Parse an `allow(<rule>)` rule name. Only R1–R9 can be allowed; the
    /// annotation-hygiene rules cannot be annotated away.
    pub fn from_allow_name(name: &str) -> Option<Rule> {
        match name {
            "hash-iter" => Some(Rule::HashIter),
            "nondet-source" => Some(Rule::NondetSource),
            "float-cmp" => Some(Rule::FloatCmp),
            "unsafe-hygiene" => Some(Rule::UnsafeHygiene),
            "hot-panic" => Some(Rule::HotPanic),
            "hot-index" => Some(Rule::HotIndex),
            "guard-blocking" => Some(Rule::GuardBlocking),
            "lock-order" => Some(Rule::LockOrder),
            "sim-handler" => Some(Rule::SimHandler),
            "lock-unwrap" => Some(Rule::LockUnwrap),
            _ => None,
        }
    }

    /// The rationale and allow-grammar shown by `mlcd-lint --explain` —
    /// the same text DESIGN.md §8's rule table summarises.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::HashIter => {
                "R1 hash-iter — no HashMap/HashSet iteration in outcome-feeding crates.\n\
                 Hash iteration order is randomized per process, so anything it feeds\n\
                 (posterior sums, schedules, digests) silently loses bit-determinism.\n\
                 Fix: BTreeMap/BTreeSet, or collect + sort before iterating.\n\
                 Allow: `// lint: allow(hash-iter[, fn|file]) — <why order cannot leak>`"
            }
            Rule::NondetSource => {
                "R2 nondet-source — no wall clock or OS entropy outside the service\n\
                 net/ logging layer. Instant::now / SystemTime::now /\n\
                 thread_rng / from_entropy make a search non-reproducible.\n\
                 Fix: virtual time (SimClock) and SmallRng::seed_from_u64.\n\
                 Allow: `// lint: allow(nondet-source[, fn|file]) — <why this never feeds an outcome>`"
            }
            Rule::FloatCmp => {
                "R3 float-cmp — no float == / !=, no partial_cmp(..).unwrap()/expect(..).\n\
                 Exact float equality is representation-sensitive and NaN makes\n\
                 partial_cmp panic; both can differ across runs and platforms.\n\
                 Fix: f64::total_cmp, an epsilon, or the bit-pattern helpers.\n\
                 Allow: `// lint: allow(float-cmp[, fn|file]) — <why exactness is intended>`"
            }
            Rule::UnsafeHygiene => {
                "R4 unsafe-hygiene — every `unsafe` needs a `// SAFETY:` comment within\n\
                 three lines above it, and the core crate roots must keep\n\
                 #![forbid(unsafe_code)]. The forbid pins cannot be allowed away.\n\
                 Allow (SAFETY part only): `// lint: allow(unsafe-hygiene) — <reason>`"
            }
            Rule::HotPanic => {
                "R5a hot-panic — unwrap()/expect() in the kernel hot paths.\n\
                 A panic in the sampling/factorization kernels kills a whole search;\n\
                 return the error or prove the invariant.\n\
                 Allow: `// lint: allow(hot-panic[, fn|file]) — <why this cannot fail>`"
            }
            Rule::HotIndex => {
                "R5b hot-index — direct `[..]` indexing in the kernel hot paths can\n\
                 panic on a bad bound. Use get()/iterators, or justify the bound.\n\
                 Allow: `// lint: allow(hot-index[, fn|file]) — <why the bound holds>`"
            }
            Rule::GuardBlocking => {
                "R6 guard-blocking — a binding produced by .lock()/.read()/.write()\n\
                 (or the service's lock_or_die helpers) must not be live across a\n\
                 blocking call: fsync/write_all/flush, TcpStream/TcpListener ops,\n\
                 Condvar waits, channel recv*, thread::sleep, JoinHandle::join().\n\
                 Holding a mutex across IO serializes every other thread behind disk\n\
                 or network latency — the exact shape of the PR 5 submit() bug (queue\n\
                 mutex held across a journal create + fsync).\n\
                 Exemptions built in: a Condvar-style wait that *consumes* the guard\n\
                 (cv.wait(guard) — the transfer is the protocol), and blocking calls\n\
                 whose receiver chain starts at the guard itself (f.write_all(..) on a\n\
                 Mutex<File> — the lock exists to serialize that IO).\n\
                 Liveness ends at the enclosing block's `}`, an explicit drop(guard),\n\
                 or a shadowing `let guard` in the same block.\n\
                 Allow: `// lint: allow(guard-blocking[, fn|file]) — <why the hold is sound>`"
            }
            Rule::LockOrder => {
                "R7 lock-order — nested lock acquisitions must follow the declared\n\
                 per-crate lock order, and two locks of the same shard family must not\n\
                 nest without an explicit ordering argument. Orders come from the\n\
                 lint's built-in manifest plus in-file declarations:\n\
                 `// lint: lock-order: control < terminal < session_shard|session_shards < state`\n\
                 (`<` = must-acquire-before; `|` separates aliases of one lock).\n\
                 Acquiring a lock that is declared *earlier* than one already held is\n\
                 an inversion (deadlock risk); nesting two acquisitions of the same\n\
                 name is either a self-deadlock (std Mutex) or an unordered\n\
                 shard-family pair.\n\
                 Allow: `// lint: allow(lock-order[, fn|file]) — <the ordering argument>`"
            }
            Rule::SimHandler => {
                "R8 sim-handler — cloudsim event handlers (`on_event`, `on_*`,\n\
                 `handle*` fns in sim.rs / provider.rs) must be pure: no IO, no wall\n\
                 time, no locks, no threads. The event engine's determinism guarantee\n\
                 (identical digests for identical seeds, merge-order independence)\n\
                 only holds if a handler is a function of (state, event) alone.\n\
                 Fix: mutate component state and schedule follow-up events; do IO at\n\
                 the driver layer outside the engine.\n\
                 Allow: `// lint: allow(sim-handler[, fn|file]) — <why determinism survives>`"
            }
            Rule::LockUnwrap => {
                "R9 lock-unwrap — in crates/service, `.lock().unwrap()`,\n\
                 `.lock().expect(..)` and Condvar-wait unwraps must go through the\n\
                 audited poison boundary (crate::sync::lock_or_die / wait_or_die)\n\
                 instead of being scattered ad hoc. One site decides what lock poison\n\
                 means for the service (die loudly), so the policy can be changed —\n\
                 or audited — in one place.\n\
                 Allow: `// lint: allow(lock-unwrap[, fn|file]) — <why this site is special>`"
            }
            Rule::BadAnnotation => {
                "bad-annotation — a `// lint: ..` comment that does not parse: unknown\n\
                 rule name, missing mandatory `— <reason>`, bad scope word, or a\n\
                 malformed lock-order declaration. Annotation hygiene cannot be\n\
                 allowed away; fix the annotation."
            }
            Rule::UnusedAllow => {
                "unused-allow — a `// lint: allow(..)` that suppressed nothing. Stale\n\
                 escape hatches hide real regressions behind dead reasons; delete the\n\
                 annotation. Cannot be allowed away."
            }
        }
    }
}

/// One diagnostic: `file:line:col: [rule] message`.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation of the finding.
    pub message: String,
}

/// Crates whose non-test code must not iterate `HashMap`/`HashSet` (their
/// outputs feed `SearchOutcome` digests and figure numbers).
const ORDERED_CRATES: &[&str] =
    &["mlcd", "mlcd-cloudsim", "mlcd-fleet", "mlcd-gp", "mlcd-linalg", "mlcd-service"];

/// Crates whose non-test code must not compare floats with `==`/`!=`.
const FLOAT_CRATES: &[&str] = &[
    "mlcd",
    "mlcd-gp",
    "mlcd-linalg",
    "mlcd-cloudsim",
    "mlcd-fleet",
    "mlcd-perfmodel",
    "mlcd-service",
];

/// Crates whose `src/lib.rs` must carry `#![forbid(unsafe_code)]`.
const FORBID_UNSAFE_LIBS: &[(&str, &str)] = &[
    ("crates/core/src/lib.rs", "mlcd"),
    ("crates/gp/src/lib.rs", "mlcd-gp"),
    ("crates/perfmodel/src/lib.rs", "mlcd-perfmodel"),
    ("crates/cloudsim/src/lib.rs", "mlcd-cloudsim"),
    ("crates/fleet/src/lib.rs", "mlcd-fleet"),
    ("crates/service/src/lib.rs", "mlcd-service"),
];

/// The one carve-out from R2: the service's TCP connection layer may
/// stamp its *log lines* with the wall clock. Nothing under this prefix
/// feeds a `SearchOutcome` — the session/journal/cache path stays under
/// the full rule, and `crates/lint/tests/rules.rs` pins both sides.
const NONDET_EXEMPT_PREFIXES: &[&str] = &["crates/service/src/net/"];

/// The kernel hot paths under the R5 panic/indexing discipline.
const HOT_PATHS: &[&str] = &[
    "crates/cloudsim/src/sim.rs",
    "crates/core/src/search/kernel.rs",
    "crates/gp/src/fit.rs",
    "crates/gp/src/workspace.rs",
    "crates/linalg/src/chol.rs",
    "crates/linalg/src/fastpath.rs",
    "crates/linalg/src/fastpath/lanes.rs",
    "crates/linalg/src/fastpath/log.rs",
    "crates/linalg/src/fastpath/normal.rs",
    "crates/linalg/src/fastpath/posterior.rs",
    "crates/linalg/src/fastpath/vector.rs",
    "crates/linalg/src/mat.rs",
    "crates/linalg/src/optimize.rs",
];

/// R8: files whose `on_event` / `on_*` / `handle*` fns are sim event
/// handlers and must stay pure.
const SIM_HANDLER_FILES: &[&str] = &[
    "crates/cloudsim/src/sim.rs",
    "crates/cloudsim/src/provider.rs",
    "crates/fleet/src/policy.rs",
    "crates/fleet/src/arbiter.rs",
];

/// R9: the one designated poison boundary — the only file in
/// `crates/service` allowed to unwrap lock/wait poison results.
const POISON_BOUNDARY_FILES: &[&str] = &["crates/service/src/sync.rs"];

/// R7: the built-in per-crate lock-order manifest. Each entry is an
/// acquire-before chain; an inner `&[..]` groups aliases of the same
/// logical lock (field vs. accessor-fn spellings). In-file
/// `// lint: lock-order:` declarations merge with this.
const LOCK_ORDER_MANIFEST: &[(&str, &[&[&str]])] = &[(
    "mlcd-service",
    &[
        &["control"],
        &["terminal"],
        &["session_shard", "session_shards"],
        &["queue_shard", "queue_shards"],
        &["state"],
    ],
)];

/// What a file's path says about which rules apply to it.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Cargo package the file belongs to (`mlcd`, `mlcd-gp`, …);
    /// `mlcd-repro` for the facade's `src/`, `tests/`, `examples/`.
    pub crate_name: String,
    /// Whole file is test/example code (integration tests, example
    /// binaries, `*_tests.rs` siblings).
    pub is_test_file: bool,
    /// File is one of the R5 kernel hot paths.
    pub is_hot_path: bool,
}

impl FileCtx {
    /// Classify a workspace-relative path.
    pub fn from_path(rel: &str) -> FileCtx {
        let path = rel.replace('\\', "/");
        let crate_name = if let Some(rest) = path.strip_prefix("crates/") {
            let dir = rest.split('/').next().unwrap_or("");
            match dir {
                "core" => "mlcd",
                "gp" => "mlcd-gp",
                "linalg" => "mlcd-linalg",
                "cloudsim" => "mlcd-cloudsim",
                "fleet" => "mlcd-fleet",
                "perfmodel" => "mlcd-perfmodel",
                "bench" => "mlcd-bench",
                "lint" => "mlcd-lint",
                "service" => "mlcd-service",
                other => other,
            }
            .to_string()
        } else {
            "mlcd-repro".to_string()
        };
        let file_name = path.rsplit('/').next().unwrap_or("");
        let is_test_file = path.contains("/tests/")
            || path.starts_with("tests/")
            || path.contains("/examples/")
            || path.starts_with("examples/")
            || file_name == "tests.rs"
            || file_name.ends_with("_tests.rs")
            || file_name.starts_with("test_");
        let is_hot_path = HOT_PATHS.contains(&path.as_str());
        FileCtx { path, crate_name, is_test_file, is_hot_path }
    }
}

/// A parsed `// lint: allow(<rule>[, <scope>]) — <reason>` annotation.
#[derive(Debug)]
struct Allow {
    rule: Rule,
    scope: AllowScope,
    line: u32,
    col: u32,
    /// Set when a finding was suppressed by this annotation.
    used: std::cell::Cell<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum AllowScope {
    /// One source line (the annotated line itself).
    Line(u32),
    /// An inclusive line range (a whole `fn` body).
    Range(u32, u32),
    /// The whole file.
    File,
}

/// Lint a single file's source text under its path-derived context.
/// `rel_path` decides which rules apply; `source` is the file body.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let ctx = FileCtx::from_path(rel_path);
    let lexed = lex(source);
    let test_mask = test_region_mask(&lexed.tokens);
    // Annotations are parsed up front: the R7 lock-order declarations they
    // carry feed the rule pass, and the allow filter runs after it.
    let (allows, chains, mut bad) = parse_allows(&lexed, rel_path);

    let mut findings: Vec<Violation> = Vec::new();
    let v = |line: u32, col: u32, rule: Rule, message: String| Violation {
        file: rel_path.to_string(),
        line,
        col,
        rule,
        message,
    };

    // R1 — HashMap/HashSet iteration in ordered crates.
    if ORDERED_CRATES.contains(&ctx.crate_name.as_str()) && !ctx.is_test_file {
        for (line, col, msg) in hash_iteration_sites(&lexed.tokens, &test_mask) {
            findings.push(v(line, col, Rule::HashIter, msg));
        }
    }

    // R2 — wall-clock / OS entropy outside the service's
    // connection-logging layer.
    if !NONDET_EXEMPT_PREFIXES.iter().any(|p| ctx.path.starts_with(p)) {
        for (line, col, msg) in nondet_sources(&lexed.tokens) {
            findings.push(v(line, col, Rule::NondetSource, msg));
        }
    }

    // R3 — float equality and panicking float comparisons.
    if FLOAT_CRATES.contains(&ctx.crate_name.as_str()) && !ctx.is_test_file {
        for (line, col, msg) in float_cmp_sites(&lexed.tokens, &test_mask) {
            findings.push(v(line, col, Rule::FloatCmp, msg));
        }
    }

    // R4 — unsafe hygiene (everywhere), plus the forbid attribute pins.
    for (line, col, msg) in unsafe_without_safety(&lexed.tokens, &lexed.comments) {
        findings.push(v(line, col, Rule::UnsafeHygiene, msg));
    }
    if let Some((_, name)) = FORBID_UNSAFE_LIBS.iter().find(|(p, _)| *p == ctx.path) {
        if !has_forbid_unsafe(&lexed.tokens) {
            findings.push(v(
                1,
                1,
                Rule::UnsafeHygiene,
                format!("`{name}` must keep `#![forbid(unsafe_code)]` in its crate root"),
            ));
        }
    }

    // R5 — panics and direct indexing in the kernel hot paths.
    if ctx.is_hot_path {
        for (line, col, msg) in hot_panic_sites(&lexed.tokens, &test_mask) {
            findings.push(v(line, col, Rule::HotPanic, msg));
        }
        for (line, col, msg) in hot_index_sites(&lexed.tokens, &test_mask) {
            findings.push(v(line, col, Rule::HotIndex, msg));
        }
    }

    // R6–R9 — the scope-aware concurrency rules, built on crate::syntax.
    if !ctx.is_test_file {
        let syn = Syntax::build(&lexed.tokens);
        for (line, col, msg) in guard_blocking_findings(&lexed.tokens, &syn, &test_mask) {
            findings.push(v(line, col, Rule::GuardBlocking, msg));
        }
        for (line, col, msg) in
            lock_order_findings(&lexed.tokens, &syn, &test_mask, &ctx.crate_name, &chains)
        {
            findings.push(v(line, col, Rule::LockOrder, msg));
        }
        if SIM_HANDLER_FILES.contains(&ctx.path.as_str()) {
            for (line, col, msg) in sim_handler_findings(&lexed.tokens, &syn, &test_mask) {
                findings.push(v(line, col, Rule::SimHandler, msg));
            }
        }
        if ctx.crate_name == "mlcd-service" && !POISON_BOUNDARY_FILES.contains(&ctx.path.as_str()) {
            for (line, col, msg) in lock_unwrap_findings(&lexed.tokens, &test_mask) {
                findings.push(v(line, col, Rule::LockUnwrap, msg));
            }
        }
    }

    // Resolve annotations: drop suppressed findings, then report
    // annotation hygiene problems.
    findings.retain(|f| {
        !allows.iter().any(|a| {
            let hit = a.rule == f.rule
                && match a.scope {
                    AllowScope::Line(l) => f.line == l,
                    AllowScope::Range(lo, hi) => (lo..=hi).contains(&f.line),
                    AllowScope::File => true,
                };
            if hit {
                a.used.set(true);
            }
            hit
        })
    });
    for a in &allows {
        if !a.used.get() {
            bad.push(v(
                a.line,
                a.col,
                Rule::UnusedAllow,
                format!(
                    "allow({}) suppresses nothing — remove the stale annotation",
                    a.rule.name()
                ),
            ));
        }
    }
    findings.append(&mut bad);
    findings.sort_by(|a, b| {
        a.line
            .cmp(&b.line)
            .then_with(|| a.col.cmp(&b.col))
            .then_with(|| a.rule.name().cmp(b.rule.name()))
    });
    findings
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Mark token indices that live inside `#[cfg(test)] mod .. { .. }` or
/// `#[test] fn .. { .. }` regions. The repo convention keeps unit tests in
/// a trailing `#[cfg(test)] mod tests`, so brace-matching from those
/// attributes covers in-file test code; whole-file test targets are
/// classified by path in [`FileCtx`].
fn test_region_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if let Some(after_attr) = match_test_attr(toks, i) {
            if let Some((open, close)) = first_brace_block(toks, after_attr) {
                for m in mask.iter_mut().take(close + 1).skip(open) {
                    *m = true;
                }
                i = after_attr;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// If `toks[i..]` starts a `#[cfg(test)]` or `#[test]` attribute, return
/// the index just past `]`.
fn match_test_attr(toks: &[Token], i: usize) -> Option<usize> {
    if !toks.get(i)?.kind.is_punct("#") || !toks.get(i + 1)?.kind.is_punct("[") {
        return None;
    }
    let t2 = &toks.get(i + 2)?.kind;
    if t2.is_ident("test") && toks.get(i + 3)?.kind.is_punct("]") {
        return Some(i + 4);
    }
    if t2.is_ident("cfg")
        && toks.get(i + 3)?.kind.is_punct("(")
        && toks.get(i + 4)?.kind.is_ident("test")
        && toks.get(i + 5)?.kind.is_punct(")")
        && toks.get(i + 6)?.kind.is_punct("]")
    {
        return Some(i + 7);
    }
    None
}

/// Find the first `{ .. }` block at or after `start`, skipping further
/// attributes, and return (open index, close index). Gives up at `;`
/// before any `{` (an out-of-line `mod name;` — the referenced file is
/// classified by path instead).
fn first_brace_block(toks: &[Token], start: usize) -> Option<(usize, usize)> {
    let mut i = start;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct("{") => {
                let mut depth = 0usize;
                let open = i;
                while i < toks.len() {
                    match &toks[i].kind {
                        Tok::Punct("{") => depth += 1,
                        Tok::Punct("}") => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((open, i));
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return Some((open, toks.len() - 1));
            }
            Tok::Punct(";") => return None,
            _ => i += 1,
        }
    }
    None
}

// ---------------------------------------------------------------------------
// R1: HashMap/HashSet iteration
// ---------------------------------------------------------------------------

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "into_keys",
    "into_values",
];

fn hash_iteration_sites(toks: &[Token], test_mask: &[bool]) -> Vec<(u32, u32, String)> {
    // Pass 1 — names bound to a hash type, by declaration-site patterns:
    //   `name : [&|&'a|mut]* HashMap`   (let ascription, field, fn param)
    //   `let [mut] name = HashMap::<ctor>(..)`
    let mut names: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.kind.ident() else { continue };
        if !HASH_TYPES.contains(&id) {
            continue;
        }
        // Walk back over type-position noise to a `:`.
        let mut j = i;
        while j > 0
            && (matches!(
                &toks[j - 1].kind,
                Tok::Punct("&") | Tok::Punct("<") | Tok::Punct(",") | Tok::Lifetime
            ) || toks[j - 1].kind.is_ident("mut")
                || toks[j - 1].kind.is_ident("dyn"))
        {
            j -= 1;
        }
        if j >= 2 && toks[j - 1].kind.is_punct(":") {
            if let Some(name) = toks[j - 2].kind.ident() {
                names.push(name.to_string());
            }
        }
        // `let [mut] name = HashMap::ctor(..)`.
        if i >= 2 && toks[i - 1].kind.is_punct("=") {
            if let Some(name) = toks[i - 2].kind.ident() {
                let let_pos = if i >= 3 && toks[i - 3].kind.is_ident("mut") { 4 } else { 3 };
                if i >= let_pos && toks[i - let_pos].kind.is_ident("let") {
                    names.push(name.to_string());
                }
            }
        }
    }
    names.sort();
    names.dedup();

    // Pass 2 — iteration over a tracked name.
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(id) = t.kind.ident() else { continue };
        // `name.iter()` / `name.keys()` / …
        if names.iter().any(|n| n == id)
            && toks.get(i + 1).is_some_and(|n| n.kind.is_punct("."))
            && toks
                .get(i + 2)
                .is_some_and(|m| m.kind.ident().is_some_and(|m| ITER_METHODS.contains(&m)))
        {
            let method = toks[i + 2].kind.ident().unwrap_or("");
            out.push((
                t.line,
                t.col,
                format!(
                    "`{id}.{method}()` iterates a HashMap/HashSet in arbitrary order — \
                     use BTreeMap/BTreeSet or sort an explicit view first"
                ),
            ));
        }
        // `for pat in [&|&mut] name {` / `for (..) in &name {`.
        if id == "for" {
            if let Some((line, col, name)) = for_loop_over(toks, i, &names) {
                out.push((
                    line,
                    col,
                    format!(
                        "`for .. in {name}` iterates a HashMap/HashSet in arbitrary order — \
                         use BTreeMap/BTreeSet or sort an explicit view first"
                    ),
                ));
            }
        }
    }
    out
}

/// If the `for` loop at token `i` iterates directly over one of `names`,
/// return (line, col, name). Looks for `in [&] [mut] <name> {`.
fn for_loop_over(toks: &[Token], i: usize, names: &[String]) -> Option<(u32, u32, String)> {
    // Find the `in` belonging to this `for` (before the body `{`, outside
    // any pattern parens).
    let mut depth = 0i32;
    let mut j = i + 1;
    while j < toks.len() {
        match &toks[j].kind {
            Tok::Punct("(") | Tok::Punct("[") => depth += 1,
            Tok::Punct(")") | Tok::Punct("]") => depth -= 1,
            Tok::Punct("{") if depth == 0 => return None,
            Tok::Ident(s) if s == "in" && depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let mut k = j + 1;
    while k < toks.len() && (toks[k].kind.is_punct("&") || toks[k].kind.is_ident("mut")) {
        k += 1;
    }
    // `for .. in &self.field` — skip the `self.` prefix.
    if toks.get(k).is_some_and(|t| t.kind.is_ident("self"))
        && toks.get(k + 1).is_some_and(|t| t.kind.is_punct("."))
    {
        k += 2;
    }
    let name = toks.get(k)?.kind.ident()?;
    if names.iter().any(|n| n == name) && toks.get(k + 1).is_some_and(|t| t.kind.is_punct("{")) {
        return Some((toks[k].line, toks[k].col, name.to_string()));
    }
    None
}

// ---------------------------------------------------------------------------
// R2: wall-clock / OS entropy
// ---------------------------------------------------------------------------

fn nondet_sources(toks: &[Token]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.kind.ident() else { continue };
        match id {
            "Instant" | "SystemTime"
                if toks.get(i + 1).is_some_and(|n| n.kind.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|m| m.kind.is_ident("now")) =>
            {
                out.push((
                    t.line,
                    t.col,
                    format!(
                        "`{id}::now()` reads the wall clock — searches must be a pure \
                         function of their seed; use SimClock / virtual time"
                    ),
                ));
            }
            "thread_rng" | "from_entropy" => {
                out.push((
                    t.line,
                    t.col,
                    format!(
                        "`{id}` draws OS entropy — all randomness must flow from an \
                         explicit u64 seed (SmallRng::seed_from_u64)"
                    ),
                ));
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R3: float comparisons
// ---------------------------------------------------------------------------

fn float_cmp_sites(toks: &[Token], test_mask: &[bool]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        match &t.kind {
            Tok::Punct(op @ ("==" | "!=")) => {
                let float_lhs = i > 0 && matches!(toks[i - 1].kind, Tok::Float);
                let float_rhs = toks.get(i + 1).is_some_and(|n| matches!(n.kind, Tok::Float));
                if float_lhs || float_rhs {
                    out.push((
                        t.line,
                        t.col,
                        format!(
                            "float `{op}` comparison — exact float equality is \
                             representation-sensitive; use `total_cmp`, an epsilon, or the \
                             bit-pattern helpers (`mlcd_linalg::is_exact_zero`)"
                        ),
                    ));
                }
            }
            Tok::Ident(id) if id == "partial_cmp" => {
                // `partial_cmp( .. ).unwrap()` / `.expect(..)`: skip the
                // balanced argument list, then look for the panic.
                let Some(open) = toks.get(i + 1).filter(|t| t.kind.is_punct("(")) else {
                    continue;
                };
                let _ = open;
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < toks.len() {
                    match &toks[j].kind {
                        Tok::Punct("(") => depth += 1,
                        Tok::Punct(")") => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if toks.get(j + 1).is_some_and(|d| d.kind.is_punct("."))
                    && toks
                        .get(j + 2)
                        .is_some_and(|m| m.kind.is_ident("unwrap") || m.kind.is_ident("expect"))
                {
                    out.push((
                        t.line,
                        t.col,
                        "`partial_cmp(..).unwrap()` panics on NaN — a NaN posterior must \
                         order deterministically, use `f64::total_cmp`"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R4: unsafe hygiene
// ---------------------------------------------------------------------------

fn unsafe_without_safety(toks: &[Token], comments: &[Comment]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for t in toks {
        if !t.kind.is_ident("unsafe") {
            continue;
        }
        // A `// SAFETY:` comment must sit on the same line or within the
        // three lines above the `unsafe` keyword.
        let justified = comments.iter().any(|c| {
            c.text.trim_start().starts_with("SAFETY:") && c.line <= t.line && t.line - c.line <= 3
        });
        if !justified {
            out.push((
                t.line,
                t.col,
                "`unsafe` without a `// SAFETY:` comment directly above — state the \
                 invariant that makes this sound"
                    .to_string(),
            ));
        }
    }
    out
}

fn has_forbid_unsafe(toks: &[Token]) -> bool {
    toks.windows(7).any(|w| {
        w[0].kind.is_punct("#")
            && w[1].kind.is_punct("!")
            && w[2].kind.is_punct("[")
            && w[3].kind.is_ident("forbid")
            && w[4].kind.is_punct("(")
            && w[5].kind.is_ident("unsafe_code")
            && w[6].kind.is_punct(")")
    })
}

// ---------------------------------------------------------------------------
// R5: hot-path panics and indexing
// ---------------------------------------------------------------------------

fn hot_panic_sites(toks: &[Token], test_mask: &[bool]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(id) = t.kind.ident() else { continue };
        if (id == "unwrap" || id == "expect")
            && i > 0
            && toks[i - 1].kind.is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.kind.is_punct("("))
        {
            out.push((
                t.line,
                t.col,
                format!(
                    "`.{id}(..)` in a kernel hot path — return the error or justify why \
                     this cannot fail"
                ),
            ));
        }
    }
    out
}

fn hot_index_sites(toks: &[Token], test_mask: &[bool]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !t.kind.is_punct("[") || i == 0 {
            continue;
        }
        // Indexing = `[` directly after an expression tail: an identifier,
        // `)`, or `]`. Array types/literals, slices in types, attributes
        // (`#[..]`, `![..]`) and `vec![..]` all have other predecessors.
        let prev = &toks[i - 1].kind;
        let is_expr_tail = matches!(prev, Tok::Ident(_) | Tok::Punct(")") | Tok::Punct("]"));
        if !is_expr_tail {
            continue;
        }
        // `vec![`, `matches!(..)[` style macros: `ident !` precedes `[`,
        // so `prev` is `!` there — already excluded. But `ident` directly
        // before `[` can still be a macro name in `name![..]`; that form
        // always has `!` between, so no further check needed.
        out.push((
            t.line,
            t.col,
            "direct indexing in a kernel hot path can panic — use `get`/iterators or \
             justify the bound"
                .to_string(),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// R6: guard liveness across blocking calls
// ---------------------------------------------------------------------------

/// A `let` binding that holds a lock guard: its RHS ends in an
/// acquisition (optionally followed by `.unwrap()`/`.expect(..)`/`?`).
struct GuardBinding<'a> {
    name: &'a str,
    lock_name: Option<&'a str>,
    method: &'a str,
    /// Token range in which the guard is live: (stmt_end, live_end).
    live: (usize, usize),
    /// Token index of the acquisition itself (excluded from R7 nesting).
    acq_idx: usize,
}

/// Pair each tracked `let` binding with the acquisition that makes it a
/// guard, if any.
fn guard_bindings<'a>(
    toks: &[Token],
    syn: &'a Syntax,
    acqs: &'a [crate::syntax::Acquisition],
) -> Vec<GuardBinding<'a>> {
    let mut out = Vec::new();
    for b in &syn.lets {
        let Some(acq) = acqs.iter().find(|a| a.idx >= b.rhs_start && a.idx < b.stmt_end) else {
            continue;
        };
        if !is_terminal_in_stmt(toks, acq, b.stmt_end) {
            continue;
        }
        out.push(GuardBinding {
            name: &b.name,
            lock_name: acq.lock_name.as_deref(),
            method: &acq.method,
            live: (b.stmt_end, b.live_end),
            acq_idx: acq.idx,
        });
    }
    out
}

fn guard_blocking_findings(
    toks: &[Token],
    syn: &Syntax,
    test_mask: &[bool],
) -> Vec<(u32, u32, String)> {
    let acqs = acquisitions(toks);
    let guards = guard_bindings(toks, syn, &acqs);
    let blocking = blocking_sites(toks);
    let mut out = Vec::new();
    for g in &guards {
        for bs in &blocking {
            if bs.idx <= g.live.0 || bs.idx >= g.live.1 {
                continue;
            }
            if test_mask.get(bs.idx).copied().unwrap_or(false) {
                continue;
            }
            // Condvar protocol: the wait *consumes* the guard it is handed.
            if bs.is_wait && bs.args.iter().any(|a| a == g.name) {
                continue;
            }
            // Blocking IO on the guarded resource itself (Mutex<File> and
            // friends): the lock exists to serialize exactly this call.
            if bs.recv_head.as_deref() == Some(g.name) {
                continue;
            }
            let lock = g.lock_name.unwrap_or("<lock>");
            out.push((
                toks[bs.idx].line,
                toks[bs.idx].col,
                format!(
                    "guard `{}` (`{}` of `{}`) is still live across blocking `{}` — \
                     narrow the critical section: stage the data, `drop({})`, then block",
                    g.name, g.method, lock, bs.what, g.name
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R7: lock ordering
// ---------------------------------------------------------------------------

/// Flatten manifest + in-file chains into (earlier, later) pairs of
/// canonical names plus an alias → canonical map.
struct LockOrder {
    before: Vec<(String, String)>,
    canon: Vec<(String, String)>,
}

impl LockOrder {
    fn build(crate_name: &str, file_chains: &[Vec<Vec<String>>]) -> LockOrder {
        let mut chains: Vec<Vec<Vec<String>>> = Vec::new();
        for (c, chain) in LOCK_ORDER_MANIFEST {
            if *c == crate_name {
                chains.push(
                    chain.iter().map(|g| g.iter().map(|s| s.to_string()).collect()).collect(),
                );
            }
        }
        chains.extend(file_chains.iter().cloned());
        let mut before = Vec::new();
        let mut canon = Vec::new();
        for chain in &chains {
            for group in chain {
                let head = group[0].clone();
                for alias in group {
                    canon.push((alias.clone(), head.clone()));
                }
            }
            for i in 0..chain.len() {
                for j in (i + 1)..chain.len() {
                    before.push((chain[i][0].clone(), chain[j][0].clone()));
                }
            }
        }
        LockOrder { before, canon }
    }

    fn canonical<'a>(&'a self, name: &'a str) -> &'a str {
        self.canon.iter().find(|(a, _)| a == name).map(|(_, c)| c.as_str()).unwrap_or(name)
    }

    fn declared_before(&self, a: &str, b: &str) -> bool {
        self.before.iter().any(|(x, y)| x == a && y == b)
    }
}

/// Whether a lock name looks like one shard of a sharded family.
fn is_shard_family(name: &str) -> bool {
    name.ends_with("_shard") || name.ends_with("_shards") || name == "shard" || name == "shards"
}

fn lock_order_findings(
    toks: &[Token],
    syn: &Syntax,
    test_mask: &[bool],
    crate_name: &str,
    file_chains: &[Vec<Vec<String>>],
) -> Vec<(u32, u32, String)> {
    let order = LockOrder::build(crate_name, file_chains);
    let acqs = acquisitions(toks);
    let guards = guard_bindings(toks, syn, &acqs);
    let mut out = Vec::new();
    for g in &guards {
        let Some(outer_raw) = g.lock_name else { continue };
        let outer = order.canonical(outer_raw);
        for a in &acqs {
            if a.idx <= g.live.0 || a.idx >= g.live.1 || a.idx == g.acq_idx {
                continue;
            }
            if test_mask.get(a.idx).copied().unwrap_or(false) {
                continue;
            }
            let Some(inner_raw) = a.lock_name.as_deref() else { continue };
            let inner = order.canonical(inner_raw);
            let (line, col) = (toks[a.idx].line, toks[a.idx].col);
            if inner == outer {
                let msg = if is_shard_family(inner) {
                    format!(
                        "`{inner_raw}` acquired while guard `{}` already holds a \
                         `{outer_raw}` lock — two shards of one family must be taken in \
                         ascending shard index (state the ordering in an allow reason) \
                         or restructured",
                        g.name
                    )
                } else {
                    format!(
                        "`{inner_raw}` acquired while guard `{}` already holds it — \
                         nested acquisition of the same std Mutex self-deadlocks",
                        g.name
                    )
                };
                out.push((line, col, msg));
            } else if order.declared_before(inner, outer) {
                out.push((
                    line,
                    col,
                    format!(
                        "lock order inversion: `{inner_raw}` acquired while guard `{}` \
                         holds `{outer_raw}`, but the declared order is \
                         `{inner} < {outer}` — release `{outer_raw}` first or fix the \
                         declaration",
                        g.name
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R8: sim-handler purity
// ---------------------------------------------------------------------------

/// Identifiers whose appearance inside a sim event handler signals IO,
/// wall time, threading, or locking — each with its complaint.
const HANDLER_BANNED: &[(&str, &str)] = &[
    ("File", "filesystem IO"),
    ("OpenOptions", "filesystem IO"),
    ("TcpStream", "network IO"),
    ("TcpListener", "network IO"),
    ("UdpSocket", "network IO"),
    ("stdin", "console IO"),
    ("stdout", "console IO"),
    ("stderr", "console IO"),
    ("println", "console IO"),
    ("eprintln", "console IO"),
    ("print", "console IO"),
    ("eprint", "console IO"),
    ("write_all", "IO"),
    ("flush", "IO"),
    ("sync_all", "filesystem IO"),
    ("sync_data", "filesystem IO"),
    ("read_to_string", "filesystem IO"),
    ("create_dir_all", "filesystem IO"),
    ("remove_file", "filesystem IO"),
    ("Instant", "wall-clock time"),
    ("SystemTime", "wall-clock time"),
    ("sleep", "wall-clock time"),
    ("spawn", "threading"),
    ("recv", "channel blocking"),
    ("Mutex", "locking"),
    ("RwLock", "locking"),
    ("Condvar", "locking"),
];

/// Is the `fn` name a sim event handler under the R8 purity contract?
fn is_handler_name(name: &str) -> bool {
    name == "on_event" || name == "handle" || name.starts_with("on_") || name.starts_with("handle_")
}

fn sim_handler_findings(
    toks: &[Token],
    syn: &Syntax,
    test_mask: &[bool],
) -> Vec<(u32, u32, String)> {
    let acqs = acquisitions(toks);
    let mut out = Vec::new();
    for f in &syn.fns {
        if !is_handler_name(&f.name) {
            continue;
        }
        for (i, t) in toks.iter().enumerate().take(f.close).skip(f.open + 1) {
            if test_mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some(id) = t.kind.ident() else { continue };
            if let Some((_, why)) = HANDLER_BANNED.iter().find(|(b, _)| *b == id) {
                out.push((
                    t.line,
                    t.col,
                    format!(
                        "`{id}` ({why}) inside sim handler `{}` — handlers must be a pure \
                         function of (state, event); move effects to the driver layer",
                        f.name
                    ),
                ));
            }
        }
        for a in acqs.iter().filter(|a| a.idx > f.open && a.idx < f.close) {
            if test_mask.get(a.idx).copied().unwrap_or(false) {
                continue;
            }
            out.push((
                toks[a.idx].line,
                toks[a.idx].col,
                format!(
                    "lock acquisition (`{}` of `{}`) inside sim handler `{}` — handlers \
                     must be pure; shared state belongs to the component itself",
                    a.method,
                    a.lock_name.as_deref().unwrap_or("<lock>"),
                    f.name
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R9: lock-unwrap discipline
// ---------------------------------------------------------------------------

/// Methods whose poison Result must not be unwrapped outside the
/// boundary: guard acquisitions plus condvar waits.
const POISONABLE_METHODS: &[&str] =
    &["lock", "read", "write", "wait", "wait_timeout", "wait_while"];

fn lock_unwrap_findings(toks: &[Token], test_mask: &[bool]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(id) = t.kind.ident() else { continue };
        if !POISONABLE_METHODS.contains(&id)
            || i == 0
            || !toks[i - 1].kind.is_punct(".")
            || !toks.get(i + 1).is_some_and(|t| t.kind.is_punct("("))
        {
            continue;
        }
        // `.lock()`/`.read()`/`.write()` must be empty-argument calls
        // (RwLock acquisition, not io::Read/Write); waits take arguments.
        let is_wait = id.starts_with("wait");
        let Some(close) = crate::syntax::call_close_paren(toks, i + 1) else { continue };
        if !is_wait && close != i + 2 {
            continue;
        }
        let unwrapper = toks.get(close + 1).is_some_and(|t| t.kind.is_punct("."))
            && toks
                .get(close + 2)
                .is_some_and(|t| t.kind.is_ident("unwrap") || t.kind.is_ident("expect"));
        if !unwrapper {
            continue;
        }
        let helper = if is_wait { "wait_or_die" } else { "lock_or_die" };
        let u = toks[close + 2].kind.ident().unwrap_or("unwrap");
        out.push((
            t.line,
            t.col,
            format!(
                "`.{id}(..).{u}(..)` unwraps lock poison ad hoc — route it through \
                 `crate::sync::{helper}` so the service's poison policy stays one \
                 audited site"
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Allowlist annotations
// ---------------------------------------------------------------------------

/// Parse every `lint:` annotation in the file. Returns the usable
/// allows, the `lock-order:` declaration chains (each chain a list of
/// alias groups, outermost-first), and violations for malformed ones.
fn parse_allows(
    lexed: &LexOut,
    rel_path: &str,
) -> (Vec<Allow>, Vec<Vec<Vec<String>>>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut chains: Vec<Vec<Vec<String>>> = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else { continue };
        let rest = rest.trim_start();
        let mut fail = |message: String| {
            bad.push(Violation {
                file: rel_path.to_string(),
                line: c.line,
                col: c.col,
                rule: Rule::BadAnnotation,
                message,
            });
        };
        // `lint: lock-order: a < b|b_alias < c` — an R7 order declaration.
        if let Some(decl) = rest.strip_prefix("lock-order") {
            let decl = decl.trim_start();
            let Some(decl) = decl.strip_prefix(':') else {
                fail(
                    "malformed lock-order declaration — expected `lint: lock-order: a < b < c`"
                        .into(),
                );
                continue;
            };
            let groups: Vec<Vec<String>> = decl
                .split('<')
                .map(|g| {
                    g.split('|')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect()
                })
                .collect();
            let well_formed = groups.len() >= 2
                && groups.iter().all(|g| {
                    !g.is_empty()
                        && g.iter().all(|n| {
                            !n.is_empty()
                                && n.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '_')
                        })
                });
            if !well_formed {
                fail(
                    "malformed lock-order declaration — expected `lint: lock-order: \
                     a < b|b_alias < c` with identifier lock names"
                        .into(),
                );
                continue;
            }
            chains.push(groups);
            continue;
        }
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            fail(
                "malformed lint annotation — expected `lint: allow(<rule>[, <scope>]) — <reason>`"
                    .into(),
            );
            continue;
        };
        let (inside, after) = args;
        let mut parts = inside.split(',').map(str::trim);
        let rule_name = parts.next().unwrap_or("");
        let Some(rule) = Rule::from_allow_name(rule_name) else {
            fail(format!("unknown rule `{rule_name}` in lint annotation"));
            continue;
        };
        let scope_word = parts.next();
        if parts.next().is_some() {
            fail(
                "too many arguments in lint annotation — expected `allow(<rule>[, fn|file])`"
                    .into(),
            );
            continue;
        }
        // The reason is mandatory: `— <why this is sound>` after the `)`.
        let reason = after
            .trim_start()
            .strip_prefix('—')
            .or_else(|| after.trim_start().strip_prefix("--"))
            .or_else(|| after.trim_start().strip_prefix('-'))
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            fail(format!(
                "allow({rule_name}) carries no reason — write `lint: allow({rule_name}) — <why>`"
            ));
            continue;
        }
        let scope = match scope_word {
            None => {
                if c.trailing {
                    AllowScope::Line(c.line)
                } else {
                    // Free-standing comment: annotates the next code line.
                    match lexed.tokens.iter().find(|t| t.line > c.line) {
                        Some(t) => AllowScope::Line(t.line),
                        None => {
                            fail("lint annotation at end of file annotates nothing".into());
                            continue;
                        }
                    }
                }
            }
            Some("file") => AllowScope::File,
            Some("fn") => match fn_body_range(&lexed.tokens, c.line) {
                Some((lo, hi)) => AllowScope::Range(lo, hi),
                None => {
                    fail("allow(.., fn) is not followed by a function".into());
                    continue;
                }
            },
            Some(other) => {
                fail(format!("unknown scope `{other}` in lint annotation — use `fn` or `file`"));
                continue;
            }
        };
        allows.push(Allow {
            rule,
            scope,
            line: c.line,
            col: c.col,
            used: std::cell::Cell::new(false),
        });
    }
    (allows, chains, bad)
}

/// Line range (signature line through closing brace) of the first `fn`
/// item starting after `line`.
fn fn_body_range(toks: &[Token], line: u32) -> Option<(u32, u32)> {
    let start = toks.iter().position(|t| t.line > line && t.kind.is_ident("fn"))?;
    let (open, close) = first_brace_block(toks, start)?;
    Some((toks[start].line, toks[close].line.max(toks[open].line)))
}
