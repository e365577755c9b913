//! A finished session keeps only its journaled spine; `Watch` re-derives
//! the rest of its trace by replaying the search.
//!
//! * A `Watch` on a HeterBO session evicted to the journal streams the
//!   same lines as an in-process `search_traced` of its spec, and one on
//!   a session served entirely by the probe cache streams the lines of
//!   the same search through a warm cache.
//! * A watcher still mid-stream when its session ends gets the whole
//!   sequence, half live and half replayed.
//! * A session cancelled after its first watch batch replays exactly the
//!   events it emitted.
//! * A session resumed after a crash, and the same session restored by a
//!   later manager, replay the uninterrupted search.
//! * A fleet-mode session keeps its trace inline, and its `Watch` returns
//!   all of it.

use mlcd::prelude::{ExperimentRunner, ProfilingEnv, SearchTrace, TraceEvent};
use mlcd::search::searcher_by_name;
use mlcd_service::journal::{is_journaled, journal_file, read_journal};
use mlcd_service::{
    CachedEnv, FleetConfig, Phase, ProbeCache, ProvenanceLog, Request, Response, Server,
    ServiceConfig, Session, SessionManager, SubmitSpec,
};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A HeterBO search long enough to span several watch batches.
fn heterbo_spec(seed: u64) -> SubmitSpec {
    let mut spec = SubmitSpec::new("resnet-cifar10", "heterbo", seed);
    spec.types = Some(vec!["c5.xlarge".into(), "c5.4xlarge".into(), "p2.xlarge".into()]);
    spec.max_nodes = 32;
    spec
}

fn small_spec(seed: u64) -> SubmitSpec {
    let mut spec = SubmitSpec::new("resnet-cifar10", "random", seed);
    spec.types = Some(vec!["c5.xlarge".into(), "p2.xlarge".into()]);
    spec.max_nodes = 8;
    spec
}

fn lines_of(events: &[TraceEvent]) -> Vec<String> {
    events.iter().map(|e| serde_json::to_string(e).expect("encode event")).collect()
}

/// The trace of each spec searched in turn in process, each through the
/// same probe cache (`None`: straight on its own profiler).
fn in_process_lines(specs: &[&SubmitSpec], cache: Option<&ProbeCache>) -> Vec<Vec<String>> {
    specs
        .iter()
        .map(|spec| {
            let job = spec.training_job().expect("job");
            let searcher = searcher_by_name(&spec.searcher, spec.seed).expect("searcher");
            let mut runner = ExperimentRunner::new(spec.seed).with_max_nodes(spec.max_nodes);
            if let Some(types) = spec.instance_types().expect("types") {
                runner = runner.with_types(types);
            }
            let scenario = spec.scenario().expect("scenario");
            let mut profiler = runner.profiler_for(&job);
            let provenance = ProvenanceLog::new();
            let mut cached = CachedEnv::new(&mut profiler, cache, &spec.job, &provenance);
            let env: &mut dyn ProfilingEnv = &mut cached;
            let mut trace = SearchTrace::default();
            searcher.search_traced(env, &scenario, &mut trace);
            lines_of(&trace.events)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlcd-trace-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_done(m: &SessionManager, id: u64) {
    let phase = m.session(id).expect("session").wait_terminal();
    assert!(matches!(phase, Phase::Done(_)), "session {id} ended {}", phase.name());
}

/// Watch in process, through the same entry point the server uses.
fn watch(m: &SessionManager, session: &Session) -> (Vec<TraceEvent>, String) {
    let mut events = Vec::new();
    let state = m
        .watch(session, &mut |batch| {
            events.extend_from_slice(batch);
            Ok(())
        })
        .expect("watch");
    (events, state)
}

fn serve(manager: Arc<SessionManager>) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", manager).expect("bind");
    let addr = server.local_addr().expect("addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn send(stream: &mut TcpStream, request: &Request) {
    let mut line = serde_json::to_string(request).expect("encode request");
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("send");
}

/// `Watch` over the wire: the event lines between `Watching` and
/// `WatchEnd`, and the end state.
fn watch_over_wire(addr: SocketAddr, id: u64) -> (Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    send(&mut stream, &Request::Watch { id });
    let mut lines = BufReader::new(stream).lines().map(|l| l.expect("watch line"));
    let ack = lines.next().expect("Watching");
    assert!(matches!(serde_json::from_str(&ack), Ok(Response::Watching { id: w }) if w == id));
    let mut events = Vec::new();
    for line in lines {
        if let Ok(Response::WatchEnd { id: w, state }) = serde_json::from_str(&line) {
            assert_eq!(w, id);
            return (events, state);
        }
        events.push(line);
    }
    panic!("watch stream closed before WatchEnd");
}

fn stop(addr: SocketAddr, server: JoinHandle<std::io::Result<()>>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send(&mut stream, &Request::Shutdown);
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("shutdown ack");
    server.join().expect("server thread").expect("server run");
}

#[test]
fn watch_on_an_evicted_session_streams_the_whole_search() {
    let dir = temp_dir("evicted");
    let manager = Arc::new(
        SessionManager::new(ServiceConfig {
            workers: 1,
            journal_dir: Some(dir.clone()),
            retain_terminal: 1,
            ..ServiceConfig::default()
        })
        .expect("manager"),
    );
    let spec = heterbo_spec(7);
    // The same spec twice: the second session is served by the probe
    // cache, so its spine is all `CachedEvent`s. A third session evicts
    // both.
    let fresh = manager.submit(spec.clone()).expect("submit");
    wait_done(&manager, fresh);
    let cached = manager.submit(spec.clone()).expect("submit");
    wait_done(&manager, cached);
    wait_done(&manager, manager.submit(small_spec(1)).expect("submit"));
    let live = manager.status(None).expect("status");
    assert!(live.iter().all(|row| row.id != fresh && row.id != cached), "both evicted: {live:?}");

    let want = in_process_lines(&[&spec, &spec], Some(&ProbeCache::new()));
    assert_eq!(want[0], in_process_lines(&[&spec], None)[0], "a cold cache is neutral");
    assert_ne!(want[0], want[1], "cache hits are free, so the second trace differs");
    let (addr, server) = serve(manager);
    for (id, want) in [(fresh, &want[0]), (cached, &want[1])] {
        let (got, state) = watch_over_wire(addr, id);
        assert_eq!(state, "done");
        assert!(got.len() > 256, "the trace spans several watch batches");
        assert_eq!(&got, want, "session {id}: the replay is the search, line for line");
    }
    stop(addr, server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_watcher_behind_when_its_session_ends_gets_the_whole_sequence() {
    let m = Arc::new(
        SessionManager::new(ServiceConfig {
            workers: 1,
            start_paused: true,
            ..ServiceConfig::default()
        })
        .expect("manager"),
    );
    let spec = heterbo_spec(3);
    let id = m.submit(spec.clone()).expect("submit");
    let session = m.session(id).expect("session");
    // The worker stops after its first event until the watcher has read
    // it, so the first batch comes from the running session however fast
    // the search is.
    session.hold_after_first_event();
    // The watcher is parked on the queued session before the pool runs.
    let resume = {
        let m = m.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            m.resume_workers();
        })
    };
    let mut batches = Vec::new();
    let mut first_was_live = false;
    let state = m
        .watch(&session, &mut |batch| {
            assert!(!batch.is_empty() && batch.len() <= 256, "batch of {}", batch.len());
            if batches.is_empty() {
                // Read one batch, then fall behind until the session ends.
                first_was_live = !session.phase().is_terminal();
                session.release_hold();
                let _ = session.wait_terminal();
            }
            batches.push(batch.to_vec());
            Ok(())
        })
        .expect("watch");
    resume.join().unwrap();
    assert_eq!(state, "done");
    assert!(first_was_live, "the first batch must come from the running session");
    let got: Vec<TraceEvent> = batches.concat();
    assert!(batches[0].len() < got.len(), "the watcher must be mid-stream at the end");
    assert_eq!(lines_of(&got), in_process_lines(&[&spec], None)[0]);
    // A second watch, all replay, sees the same sequence.
    assert_eq!(watch(&m, &session).0, got);
}

#[test]
fn a_cancelled_session_replays_exactly_what_it_emitted() {
    let dir = temp_dir("cancel");
    let cfg = ServiceConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        start_paused: true,
        ..ServiceConfig::default()
    };
    let m = Arc::new(SessionManager::new(cfg.clone()).expect("manager"));
    let spec = heterbo_spec(5);
    let id = m.submit(spec.clone()).expect("submit");
    let session = m.session(id).expect("session");
    let resume = {
        let m = m.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            m.resume_workers();
        })
    };
    let mut first = None;
    let mut seen = Vec::new();
    let state = m
        .watch(&session, &mut |batch| {
            if first.is_none() {
                // Let the search run on past this batch, then cancel it
                // and fall behind until it has stopped.
                first = Some(batch.len());
                let (_, end) = session.next_events(batch.len() + 100);
                assert!(end.is_none(), "the search must still be running");
                assert!(m.cancel(id));
                let _ = session.wait_terminal();
            }
            seen.extend_from_slice(batch);
            Ok(())
        })
        .expect("watch");
    resume.join().unwrap();
    assert_eq!(state, "cancelled");
    assert!(seen.len() > first.unwrap() + 100, "the rest of the trace is replayed");

    let full = in_process_lines(&[&spec], None).remove(0);
    let seen_lines = lines_of(&seen);
    assert!(seen_lines.len() < full.len(), "the cancel must have cut the search short");
    assert_eq!(seen_lines[..], full[..seen_lines.len()], "the trace is the search's prefix");
    // Every journaled event it emitted is in the journal, and nothing else.
    let spine: Vec<TraceEvent> = seen.iter().filter(|e| is_journaled(e)).cloned().collect();
    let journal = read_journal(&journal_file(&dir, id)).expect("journal");
    assert_eq!(journal.events().into_iter().cloned().collect::<Vec<_>>(), spine);
    // A later watch replays the same events and stops at the same one.
    assert_eq!(watch(&m, &session), (seen.clone(), "cancelled".to_string()));
    drop(session);
    drop(m);

    // Restored from the journal, which does not record how many
    // unjournaled lines followed the last journaled event, the replay
    // stops at that event.
    let restored = SessionManager::new(cfg).expect("restart");
    let (replayed, state) = watch(&restored, &restored.session(id).expect("restored"));
    assert_eq!(state, "cancelled");
    let through_spine = seen.iter().rposition(is_journaled).map_or(0, |i| i + 1);
    assert_eq!(replayed, seen[..through_spine]);
    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resumed_session_replays_the_uninterrupted_search() {
    let dir = temp_dir("resumed");
    let cfg = ServiceConfig { workers: 1, journal_dir: Some(dir.clone()), ..Default::default() };
    let spec = heterbo_spec(11);
    let id = {
        let doomed =
            SessionManager::new(ServiceConfig { crash_after_records: Some(6), ..cfg.clone() })
                .expect("manager");
        let id = doomed.submit(spec.clone()).expect("submit");
        let phase = doomed.session(id).expect("session").wait_terminal();
        assert!(matches!(phase, Phase::Crashed), "ended {}", phase.name());
        id
    };
    let want = in_process_lines(&[&spec], None).remove(0);
    {
        let revived = SessionManager::new(cfg.clone()).expect("restart");
        wait_done(&revived, id);
        let (got, state) = watch(&revived, &revived.session(id).expect("resumed"));
        assert_eq!(state, "done");
        assert_eq!(lines_of(&got), want, "resumed and retained");
    }
    let restored = SessionManager::new(cfg).expect("second restart");
    let (got, _) = watch(&restored, &restored.session(id).expect("restored"));
    assert_eq!(lines_of(&got), want, "restored from the journal");
    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_finished_fleet_session_keeps_its_whole_trace() {
    let m = SessionManager::new(ServiceConfig {
        workers: 1,
        fleet: Some(FleetConfig { policy: "fairshare".into(), ..FleetConfig::default() }),
        ..ServiceConfig::default()
    })
    .expect("fleet manager");
    let id = m.submit(heterbo_spec(9)).expect("submit");
    wait_done(&m, id);
    let session = m.session(id).expect("session");
    let mut held = Vec::new();
    while let (batch, None) = session.next_events(held.len()) {
        held.extend(batch);
    }
    assert!(held.iter().any(|e| !is_journaled(e)), "candidate lines are kept inline");
    let (got, state) = watch(&m, &session);
    assert_eq!(state, "done");
    assert_eq!(got, held, "the watch is the held trace");
}
