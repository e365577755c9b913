//! End-to-end smoke test: the real `mlcd-serve` binary on an ephemeral
//! port, spoken to over TCP in the NDJSON protocol.
//!
//! The acceptance property: two jobs submitted *concurrently* to the
//! server produce outcomes bit-identical to two *sequential* in-process
//! searches — with the shared probe cache on AND off. The two jobs are
//! different presets, so no cache key collides and the cache cannot
//! (and must not) change either outcome.

use mlcd::experiment::ExperimentRunner;
use mlcd::search::{searcher_by_name, SearchTrace};
use mlcd_service::{Phase, Request, Response, ServiceConfig, SessionManager, SubmitSpec};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mlcd-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Two different presets: distinct jobs ⇒ no shared cache keys.
fn specs() -> [SubmitSpec; 2] {
    let mut a = SubmitSpec::new("resnet-cifar10", "random", 7);
    a.types = Some(vec!["c5.xlarge".into(), "p2.xlarge".into()]);
    a.max_nodes = 8;
    let mut b = SubmitSpec::new("char-rnn", "heterbo", 7);
    b.types = Some(vec!["c5.xlarge".into(), "p2.xlarge".into()]);
    b.max_nodes = 8;
    [a, b]
}

/// Spawn `mlcd-serve` on an ephemeral port; return the child and the
/// address it reports on its first stdout line.
fn spawn_server(tag: &str, cache: bool) -> (Child, String) {
    let jdir = dir(tag);
    let mut args = vec!["--workers", "2", "--journal-dir", jdir.to_str().expect("utf-8 dir")];
    if !cache {
        args.push("--no-probe-cache");
    }
    spawn_with(&args)
}

/// Spawn `mlcd-serve --listen 127.0.0.1:0` with `args`; return the child
/// and the address from its banner.
fn spawn_with(args: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mlcd-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mlcd-serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut line)
        .expect("read banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// One request / one response on a fresh connection.
fn roundtrip(addr: &str, req: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let line = serde_json::to_string(req).expect("encode request");
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    serde_json::from_str(&resp).unwrap_or_else(|e| panic!("decode {resp:?}: {e}"))
}

fn submit(addr: &str, spec: &SubmitSpec) -> u64 {
    match roundtrip(addr, &Request::Submit(spec.clone())) {
        Response::Submitted { id } => id,
        other => panic!("submit: {other:?}"),
    }
}

/// Block until the session is done and return its outcome digest.
fn result_digest(addr: &str, id: u64) -> String {
    match roundtrip(addr, &Request::Result { id, wait: true }) {
        Response::ResultReady { id: rid, result } => {
            assert_eq!(rid, id);
            result.search.digest()
        }
        other => panic!("result {id}: {other:?}"),
    }
}

/// The sequential ground truth: same two specs, one at a time, in
/// process, no journaling.
fn sequential_digests(cache: bool) -> [String; 2] {
    let mgr = SessionManager::new(ServiceConfig {
        workers: 1,
        probe_cache: cache,
        ..ServiceConfig::default()
    })
    .expect("manager");
    specs().map(|spec| {
        let id = mgr.submit(spec).expect("submit");
        match mgr.session(id).expect("session").wait_terminal() {
            Phase::Done(result) => result.search.digest(),
            other => panic!("sequential run ended {}", other.name()),
        }
    })
}

/// The trace events of an in-process `search_traced` run of `spec`, one
/// JSON line each, rendered as the server streams them to a watcher.
fn in_process_event_lines(spec: &SubmitSpec) -> Vec<String> {
    let job = spec.training_job().expect("job");
    let searcher = searcher_by_name(&spec.searcher, spec.seed).expect("searcher");
    let mut runner = ExperimentRunner::new(spec.seed).with_max_nodes(spec.max_nodes);
    if let Some(types) = spec.instance_types().expect("types") {
        runner = runner.with_types(types);
    }
    let mut trace = SearchTrace::default();
    let scenario = spec.scenario().expect("scenario");
    searcher.search_traced(&mut runner.profiler_for(&job), &scenario, &mut trace);
    trace.events.iter().map(|e| serde_json::to_string(e).expect("encode event")).collect()
}

/// Submit both jobs to the server back-to-back (they run concurrently
/// on its two workers), collect both digests, then exercise status /
/// watch / shutdown on the way out.
fn concurrent_digests(tag: &str, cache: bool) -> [String; 2] {
    let (mut child, addr) = spawn_server(tag, cache);
    let [a, b] = specs();
    let ida = submit(&addr, &a);
    let idb = submit(&addr, &b);
    assert_ne!(ida, idb);

    match roundtrip(&addr, &Request::Status { id: None }) {
        Response::StatusReport { sessions } => assert_eq!(sessions.len(), 2),
        other => panic!("status: {other:?}"),
    }

    let da = result_digest(&addr, ida);
    let db = result_digest(&addr, idb);

    // Watch on a finished session: full event replay, then WatchEnd. The
    // replayed events are the search's own, in order: batching them into
    // one write per poll must not change content or order.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let line = serde_json::to_string(&Request::Watch { id: ida }).unwrap();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        // The connection stays open for further requests after the
        // stream ends, so read up to WatchEnd rather than to EOF.
        let reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for l in reader.lines() {
            let l = l.expect("watch line");
            let done = matches!(serde_json::from_str(&l), Ok(Response::WatchEnd { .. }));
            lines.push(l);
            if done {
                break;
            }
        }
        assert!(lines.len() >= 3, "Watching + ≥1 event + WatchEnd, got {lines:?}");
        assert!(matches!(
            serde_json::from_str(&lines[0]),
            Ok(Response::Watching { id }) if id == ida
        ));
        let last: Response = serde_json::from_str(lines.last().unwrap()).expect("WatchEnd");
        match last {
            Response::WatchEnd { id, state } => {
                assert_eq!(id, ida);
                assert_eq!(state, "done");
            }
            other => panic!("watch tail: {other:?}"),
        }
        assert_eq!(lines[1..lines.len() - 1], in_process_event_lines(&a)[..]);
    }

    assert!(matches!(roundtrip(&addr, &Request::Shutdown), Response::ShuttingDown));
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited {status}");
    [da, db]
}

#[test]
fn concurrent_server_matches_sequential_in_process_with_cache_on() {
    assert_eq!(concurrent_digests("cache-on", true), sequential_digests(true));
}

#[test]
fn concurrent_server_matches_sequential_in_process_with_cache_off() {
    assert_eq!(concurrent_digests("cache-off", false), sequential_digests(false));
}

/// Cache on vs off must also agree with *each other* when no key
/// collides — the config switch is behaviour-neutral here by design.
#[test]
fn cache_switch_is_outcome_neutral_without_collisions() {
    assert_eq!(sequential_digests(true), sequential_digests(false));
}

/// The shared grid cache hands the second same-spec session the first
/// one's enumeration (one miss, then hits) and never changes outcomes:
/// the grid is a pure function of `(job, types, max_nodes)`, so digests
/// with the cache on and off are identical.
#[test]
fn grid_cache_shares_enumeration_and_is_outcome_neutral() {
    let run = |grid_cache: bool| {
        let mgr = SessionManager::new(ServiceConfig {
            workers: 1,
            grid_cache,
            ..ServiceConfig::default()
        })
        .expect("manager");
        let [spec, _] = specs();
        let digests: [String; 2] = [(), ()].map(|()| {
            let id = mgr.submit(spec.clone()).expect("submit");
            match mgr.session(id).expect("session").wait_terminal() {
                Phase::Done(result) => result.search.digest(),
                other => panic!("run ended {}", other.name()),
            }
        });
        (digests, mgr.grid_stats())
    };
    let (with_cache, stats_on) = run(true);
    assert_eq!(stats_on, (1, 1), "second session must reuse the first grid");
    let (without_cache, stats_off) = run(false);
    assert_eq!(stats_off, (0, 0), "disabled grid cache is never consulted");
    // Grid reuse is invisible in the outcomes (the probe cache, on in
    // both runs, is what makes the second session's probes free).
    assert_eq!(with_cache, without_cache);
}

/// The real binary in fleet mode: two concurrent sessions run as tenants
/// of one shared pool and both finish; `Stats` reports the fleet block.
/// Fleet mode refuses a journal directory at startup.
#[test]
fn fleet_mode_binary_serves_concurrent_sessions() {
    let (mut child, addr) = spawn_with(&[
        "--workers",
        "2",
        "--fleet",
        "fairshare",
        "--fleet-cpu-cap",
        "16",
        "--fleet-gpu-cap",
        "6",
    ]);
    let [a, b] = specs();
    let ids = [submit(&addr, &a), submit(&addr, &b)];
    for id in ids {
        result_digest(&addr, id);
    }
    match roundtrip(&addr, &Request::Stats) {
        Response::Stats { stats } => {
            let fleet = stats.fleet.expect("fleet mode reports the fleet block");
            assert_eq!(fleet.policy, "fairshare");
            assert!(fleet.admitted > 0, "both sessions launched clusters: {fleet:?}");
            assert_eq!(fleet.queue_depth, 0, "a drained pool has no waiting request");
        }
        other => panic!("stats: {other:?}"),
    }
    assert!(matches!(roundtrip(&addr, &Request::Shutdown), Response::ShuttingDown));
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited {status}");

    let out = Command::new(env!("CARGO_BIN_EXE_mlcd-serve"))
        .args(["--listen", "127.0.0.1:0", "--fleet", "fifo", "--journal-dir"])
        .arg(dir("fleet-journal"))
        .output()
        .expect("run mlcd-serve");
    assert!(!out.status.success(), "fleet mode with a journal must not start");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("incompatible"), "{stderr}");
}
