//! The `serve` workload: an open loop over loopback NDJSON into an
//! in-process `mlcd_service::Server`.
//!
//! Sessions are drawn from a seeded deck of distinct specs (50% exhaustive,
//! 45% random, 5% heterbo, all on the 3-type space). Set-up starts the
//! manager (2 workers, probe and grid caches on, no journal) and replays
//! the deck until a pass makes no probe-cache miss, so the timed phases run
//! on warm caches and every served result is a pure function of its spec:
//! each one is checked against the warm-up's reference. The traced run
//! adds a phase against a journaled server.
//!
//! The client is the main thread plus two reader threads over two
//! connections. The main thread writes submits on connection A as they
//! fall due, without waiting for `Submitted`; the acknowledgement reader
//! turns each `Submitted` into a `Result{wait: true}` on connection B; the
//! result reader collects the results. Once a second the main thread also
//! sends `Status{id: null}`, `Stats` and a `Result{wait: false}` re-read of
//! a finished session on connection A. Latency runs from a submit's due
//! time to its result in hand, so a late generator or a stalled server
//! both show.

use crate::plans::{scenarios, SEARCH_JOBS, THREE_TYPES};
use crate::trace::{Layer, Tracer};
use crate::util::{self, Fnv, Report, Rng};
use crate::Args;
use mlcd::prelude::Scenario;
use mlcd_service::{Request, Response, ServiceConfig, ServiceStats, SessionManager, SubmitSpec};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rate of the fixed-rate phase, sessions per second.
const FIXED_RATE: f64 = 200.0;
/// Latency limit on `plan_ms_p99` for a ladder rung to pass.
const LIMIT_MS: f64 = 100.0;
/// Ladder rungs are `FIXED_RATE · 1.05^k`.
const RUNG: f64 = 1.05;
/// 200 · 1.05^48 ≈ 2100 sessions/s, past what two workers can serve.
const TOP_RUNG: i32 = 48;
/// Rungs a bisection over `0..=TOP_RUNG` measures.
const LADDER_STEPS: usize = 6;
/// The admission queue's bound. The library default (16) refuses work
/// whenever the host deschedules the workers for a few tens of
/// milliseconds, so capacity would measure host scheduling noise; with
/// room for a few hundred milliseconds of arrivals, a growing backlog shows
/// as latency past the limit instead.
const QUEUE_CAP: usize = 1024;
/// Warm-up passes over the deck before giving up on a miss-free pass.
const MAX_WARMUP_PASSES: usize = 8;

/// The mix: searcher and share of sessions. Each searcher's specs are a
/// full factorial over the six jobs and three scenarios with `seeds`
/// plan seeds per cell, so every seed draws from the same kinds of
/// sessions; the tail is set by the heterbo sessions, and covering every
/// heterbo cell keeps it from hanging on one or two specs.
const MIX: [(&str, f64, usize); 3] =
    [("exhaustive", 0.50, 8), ("random", 0.45, 8), ("heterbo", 0.05, 3)];

struct Deck {
    specs: Vec<SubmitSpec>,
    /// Indices into `specs` per searcher, in `MIX` order.
    by_kind: Vec<Vec<usize>>,
}

fn deck(seed: u64, smoke: bool) -> Deck {
    let mut rng = Rng::new(seed);
    let types: Vec<String> = THREE_TYPES.iter().map(|t| t.name().to_string()).collect();
    let jobs = if smoke { &SEARCH_JOBS[..1] } else { &SEARCH_JOBS[..] };
    let mut specs = Vec::new();
    let mut by_kind = Vec::new();
    for &(searcher, _, seeds) in &MIX {
        let mut idx = Vec::new();
        for job in jobs {
            for scenario in scenarios() {
                for _ in 0..seeds {
                    let mut spec = SubmitSpec::new(job, searcher, rng.next_u64() % 1_000_000);
                    spec.types = Some(types.clone());
                    match scenario {
                        Scenario::FastestWithBudget(b) => spec = spec.with_budget(b.dollars()),
                        Scenario::CheapestWithDeadline(d) => {
                            spec = spec.with_deadline_hours(d.as_hours())
                        }
                        Scenario::FastestUnlimited => {}
                    }
                    idx.push(specs.len());
                    specs.push(spec);
                }
            }
        }
        by_kind.push(idx);
    }
    Deck { specs, by_kind }
}

impl Deck {
    /// The seeded session sequence: the searcher by the mix, then a spec.
    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let mut acc = 0.0;
        for (k, &(_, share, _)) in MIX.iter().enumerate() {
            acc += share;
            if u < acc || k + 1 == MIX.len() {
                return self.by_kind[k][rng.below(self.by_kind[k].len())];
            }
        }
        unreachable!("the mix covers [0, 1)")
    }
}

fn line_of(req: &Request) -> String {
    let mut s = serde_json::to_string(req).expect("requests serialize");
    s.push('\n');
    s
}

/// Digest of a served result: the bytes of its `result` field.
fn result_digest(line: &str) -> Option<u64> {
    let at = line.find("\"result\":")?;
    Some(Fnv::new().bytes(line[at..].trim_end().as_bytes()).0)
}

/// A running server over a fresh working directory.
struct Service {
    addr: SocketAddr,
    handle: Option<JoinHandle<std::io::Result<()>>>,
    dir: PathBuf,
}

impl Service {
    /// With `journal`, sessions are journaled under `dir` with group commit
    /// (the default flush policy and checkpoint threshold).
    fn start(dir: PathBuf, journal: bool) -> std::io::Result<Service> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let cfg = ServiceConfig {
            workers: 2,
            queue_cap: QUEUE_CAP,
            journal_dir: journal.then(|| dir.join("journal")),
            probe_cache: true,
            grid_cache: true,
            group_commit: true,
            ..ServiceConfig::default()
        };
        let manager = Arc::new(SessionManager::new(cfg)?);
        let server = mlcd_service::Server::bind("127.0.0.1:0", manager)?;
        let addr = server.local_addr()?;
        let handle = std::thread::spawn(move || server.run());
        Ok(Service { addr, handle: Some(handle), dir })
    }

    fn stop(mut self) -> Result<(), String> {
        let res = (|| {
            let mut c = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
            c.write_all(line_of(&Request::Shutdown).as_bytes()).map_err(|e| e.to_string())?;
            let mut line = String::new();
            BufReader::new(c).read_line(&mut line).map_err(|e| e.to_string())?;
            Ok::<_, String>(())
        })();
        let joined = match self.handle.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server: {e}")),
            Some(Err(_)) => Err("server thread panicked".to_string()),
            None => Ok(()),
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        res.and(joined)
    }

    fn journal_bytes_per_session(&self) -> f64 {
        let Ok(rd) = std::fs::read_dir(self.dir.join("journal")) else { return f64::NAN };
        let sizes: Vec<f64> = rd
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("session-"))
            .filter_map(|e| e.metadata().ok().map(|m| m.len() as f64))
            .collect();
        util::mean(&sizes)
    }
}

/// Both client connections, with a buffered reader on each.
struct Client {
    a: TcpStream,
    a_rd: BufReader<TcpStream>,
    b: TcpStream,
    b_rd: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let a = TcpStream::connect(addr)?;
        let b = TcpStream::connect(addr)?;
        a.set_nodelay(true)?;
        b.set_nodelay(true)?;
        Ok(Client {
            a_rd: BufReader::new(a.try_clone()?),
            a,
            b_rd: BufReader::new(b.try_clone()?),
            b,
        })
    }

    /// One synchronous request on connection A.
    fn call(&mut self, req: &Request) -> Result<String, String> {
        self.a.write_all(line_of(req).as_bytes()).map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.a_rd.read_line(&mut line).map_err(|e| e.to_string())?;
        Ok(line)
    }

    fn stats(&mut self) -> Result<ServiceStats, String> {
        match serde_json::from_str::<Response>(self.call(&Request::Stats)?.trim()) {
            Ok(Response::Stats { stats }) => Ok(stats),
            other => Err(format!("Stats answered with {other:?}")),
        }
    }

    /// Submit and wait for one session; the raw `ResultReady` line.
    fn submit_wait(&mut self, spec: &SubmitSpec) -> Result<String, String> {
        let id = match serde_json::from_str::<Response>(
            self.call(&Request::Submit(spec.clone()))?.trim(),
        ) {
            Ok(Response::Submitted { id }) => id,
            other => return Err(format!("submit answered with {other:?}")),
        };
        let line = self.call(&Request::Result { id, wait: true })?;
        if line.starts_with("{\"ResultReady\"") {
            Ok(line)
        } else {
            Err(format!("session {id} ended with {}", line.trim()))
        }
    }
}

/// The deck's served results on warm caches.
struct Reference {
    digests: Vec<u64>,
    cost: f64,
    misses: u64,
}

/// Set-up: start the service and replay the deck until a pass makes no
/// probe-cache miss.
fn setup(dir: PathBuf, deck: &Deck, journal: bool) -> Result<(Service, Client, Reference), String> {
    let service = Service::start(dir, journal).map_err(|e| format!("starting the service: {e}"))?;
    let mut client = Client::connect(service.addr).map_err(|e| e.to_string())?;
    for _ in 0..MAX_WARMUP_PASSES {
        let before = client.stats()?;
        let mut reference = Reference { digests: Vec::new(), cost: 0.0, misses: 0 };
        for spec in &deck.specs {
            let line = client.submit_wait(spec)?;
            reference.digests.push(result_digest(&line).ok_or("result without a body")?);
            match serde_json::from_str::<Response>(line.trim()) {
                Ok(Response::ResultReady { result, .. }) => {
                    reference.cost += result.total_cost.dollars();
                    reference.misses += u64::from(!result.satisfied);
                }
                other => return Err(format!("unparseable result: {other:?}")),
            }
        }
        if client.stats()?.cache_misses == before.cache_misses {
            return Ok((service, client, reference));
        }
    }
    Err(format!("probe cache still missing after {MAX_WARMUP_PASSES} warm-up passes"))
}

enum Sent {
    Submit { seq: u64, spec: usize, due: Instant, at: Instant },
    Status { at: Instant },
    Stats { at: Instant },
    Reread { at: Instant },
}

struct Pending {
    seq: u64,
    spec: usize,
    due: Instant,
    at: Instant,
}

/// What one open-loop phase observed.
#[derive(Default)]
struct PhaseData {
    offered: u64,
    done: u64,
    rejected: u64,
    errors: Vec<String>,
    /// Due → result in hand, ms; failed sessions count as infinite.
    latency_ms: Vec<f64>,
    /// The same latencies keyed by submit sequence number.
    by_seq: Vec<(u64, f64)>,
    submit_rtt_ms: Vec<f64>,
    reread_rtt_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    result_bytes: Vec<f64>,
    /// The highest session id whose result arrived.
    last_id: u64,
    queued: Vec<f64>,
    elapsed_s: f64,
}

/// Run the open loop at `rate` for `seconds`, then wait for every result.
fn phase(
    client: &mut Client,
    deck: &Deck,
    reference: &Reference,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<PhaseData, String> {
    let n = (rate * seconds).round() as u64;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let draws: Vec<usize> = (0..n).map(|_| deck.draw(rng)).collect();
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (pend_tx, pend_rx) = mpsc::channel::<Pending>();
    let io = |r: std::io::Result<TcpStream>| r.map_err(|e| e.to_string());
    let mut a_wr = io(client.a.try_clone())?;
    let mut b_wr = io(client.b.try_clone())?;
    let placeholder = || io(client.a.try_clone()).map(BufReader::new);
    let mut a_rd = std::mem::replace(&mut client.a_rd, placeholder()?);
    let mut b_rd = std::mem::replace(&mut client.b_rd, placeholder()?);
    let last_done = &AtomicU64::new(0);
    let span_ns = move |t: Instant| tracer.map_or(0, |tr| tr.ns_of(t));
    let start = Instant::now();

    let (acks, results, lag, gen_err) = std::thread::scope(|s| {
        // Acknowledgements on A; each `Submitted` becomes a Result request on B.
        let acks = s.spawn(move || {
            let mut d = PhaseData::default();
            let mut line = String::new();
            for sent in sent_rx {
                line.clear();
                if a_rd.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                    return Err("connection A closed".to_string());
                }
                let now = Instant::now();
                let (at, layer, plan) = match sent {
                    Sent::Submit { seq, at, .. } => (at, Layer::Submit, seq as u32),
                    Sent::Status { at } | Sent::Stats { at } | Sent::Reread { at } => {
                        (at, Layer::Read, u32::MAX)
                    }
                };
                if let Some(t) = tracer {
                    t.record(layer, span_ns(at), span_ns(now), plan);
                }
                let rtt_ms = (now - at).as_secs_f64() * 1e3;
                match sent {
                    Sent::Submit { seq, spec, due, .. } => {
                        d.submit_rtt_ms.push(rtt_ms);
                        match serde_json::from_str::<Response>(line.trim()) {
                            Ok(Response::Submitted { id }) => {
                                let at = Instant::now();
                                let req = line_of(&Request::Result { id, wait: true });
                                b_wr.write_all(req.as_bytes()).map_err(|e| e.to_string())?;
                                let _ = pend_tx.send(Pending { seq, spec, due, at });
                            }
                            Ok(Response::Rejected { .. }) => {
                                d.rejected += 1;
                                d.by_seq.push((seq, f64::INFINITY));
                            }
                            other => {
                                d.errors.push(format!("submit {seq} answered with {other:?}"));
                                d.by_seq.push((seq, f64::INFINITY));
                            }
                        }
                    }
                    Sent::Stats { .. } => match serde_json::from_str::<Response>(line.trim()) {
                        Ok(Response::Stats { stats }) => d.queued.push(stats.queued as f64),
                        other => d.errors.push(format!("Stats answered with {other:?}")),
                    },
                    Sent::Status { .. } => {
                        if !line.starts_with("{\"StatusReport\"") {
                            d.errors.push(format!("Status answered with {}", line.trim()));
                        }
                    }
                    Sent::Reread { .. } => {
                        d.reread_rtt_ms.push(rtt_ms);
                        if !line.starts_with("{\"ResultReady\"") {
                            d.errors.push(format!("re-read answered with {}", line.trim()));
                        }
                    }
                }
            }
            Ok::<_, String>((d, a_rd))
        });
        // Results on B, in request order.
        let results = s.spawn(move || {
            let mut d = PhaseData::default();
            let mut line = String::new();
            for p in pend_rx {
                line.clear();
                if b_rd.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                    return Err("connection B closed".to_string());
                }
                let now = Instant::now();
                if let Some(t) = tracer {
                    t.record(Layer::Result, span_ns(p.at), span_ns(now), p.seq as u32);
                }
                if !line.starts_with("{\"ResultReady\"") {
                    d.errors.push(format!("session {} ended with {}", p.seq, line.trim()));
                    d.by_seq.push((p.seq, f64::INFINITY));
                    continue;
                }
                d.by_seq.push((p.seq, (now - p.due).as_secs_f64() * 1e3));
                d.result_bytes.push(line.len() as f64);
                d.done += 1;
                if result_digest(&line) != Some(reference.digests[p.spec]) {
                    d.errors.push(format!(
                        "session {} (spec {}) differs from its reference",
                        p.seq, p.spec
                    ));
                }
                let id = line.find("\"id\":").and_then(|at| {
                    line[at + 5..].split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
                });
                if let Some(id) = id {
                    last_done.store(id, Ordering::Relaxed);
                    d.last_id = d.last_id.max(id);
                }
            }
            Ok::<_, String>((d, b_rd))
        });

        // The generator: submits on schedule, reads once a second.
        let mut lag = Vec::with_capacity(n as usize);
        let mut gen_err = None;
        let mut next_read = start;
        let mut send = move |sent: Sent, req: &Request| {
            let _ = sent_tx.send(sent);
            a_wr.write_all(line_of(req).as_bytes()).map_err(|e| e.to_string())
        };
        for (seq, &spec) in draws.iter().enumerate() {
            let due = start + interval * seq as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let at = Instant::now();
            lag.push((at - due).as_secs_f64() * 1e3);
            let req = Request::Submit(deck.specs[spec].clone());
            let mut res = send(Sent::Submit { seq: seq as u64, spec, due, at }, &req);
            if at >= next_read {
                next_read += Duration::from_secs(1);
                let id = last_done.load(Ordering::Relaxed);
                res = res
                    .and_then(|()| send(Sent::Status { at }, &Request::Status { id: None }))
                    .and_then(|()| send(Sent::Stats { at }, &Request::Stats));
                if id > 0 {
                    let at = Instant::now();
                    res = res.and_then(|()| {
                        send(Sent::Reread { at }, &Request::Result { id, wait: false })
                    });
                }
            }
            if let Err(e) = res {
                gen_err = Some(e);
                break;
            }
        }
        drop(send);
        let acks = acks.join().map_err(|_| "acknowledgement reader panicked".to_string());
        let results = results.join().map_err(|_| "result reader panicked".to_string());
        (acks, results, lag, gen_err)
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    if let Some(e) = gen_err {
        return Err(format!("generator: {e}"));
    }
    let (mut d, a_rd) = acks??;
    let (results, b_rd) = results??;
    client.a_rd = a_rd;
    client.b_rd = b_rd;
    d.offered = n;
    d.done = results.done;
    d.by_seq.extend(results.by_seq);
    d.by_seq.sort_by_key(|&(seq, _)| seq);
    d.latency_ms = d.by_seq.iter().map(|&(_, ms)| ms).collect();
    d.result_bytes = results.result_bytes;
    d.last_id = results.last_id;
    d.errors.extend(results.errors);
    d.lag_ms = lag;
    d.elapsed_s = elapsed_s;
    Ok(d)
}

/// Sessions per window for the tail percentiles of the fixed-rate phase:
/// enough that p99 has ten sessions beyond it.
const WINDOW: usize = 1000;

impl PhaseData {
    /// Quantile `q` of latency: the median over consecutive windows of
    /// `WINDOW` sessions, so a burst of host contention moves one window
    /// rather than the result. Short phases use all sessions at once.
    fn latency_quantile(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .latency_ms
            .chunks(WINDOW)
            .filter(|w| w.len() == WINDOW || self.latency_ms.len() < WINDOW)
            .map(|w| util::quantile(&util::sorted(w), q))
            .collect();
        util::median(&per)
    }
}

/// A rung passes when its p99 latency, with every refused or failed
/// session counted as infinitely late, meets the limit. Refusals are the
/// backlog signal: the service's queue is bounded.
fn rung_passes(d: &PhaseData) -> bool {
    let lat = util::sorted(&d.latency_ms);
    d.errors.is_empty() && util::quantile(&lat, 0.99) <= LIMIT_MS
}

/// The highest rung `FIXED_RATE · RUNG^k`, `k` in `0..=TOP_RUNG`, that
/// passes (see [`rung_passes`]), found by bisection: rung 0 is the fixed
/// rate, which has just been measured, and the top rung is taken to fail.
fn ladder(
    client: &mut Client,
    deck: &Deck,
    reference: &Reference,
    rng: &mut Rng,
    bottom_passes: bool,
    step_s: f64,
    report: &mut Report,
) -> Result<f64, String> {
    let rate = |k: i32| FIXED_RATE * RUNG.powi(k);
    if !bottom_passes {
        return Ok(0.0);
    }
    let (mut lo, mut hi) = (0, TOP_RUNG);
    while hi - lo > 1 {
        let k = (lo + hi) / 2;
        let d = phase(client, deck, reference, rng, rate(k), step_s, None)?;
        for e in d.errors.iter().take(3) {
            report.errors.push(format!("ladder rung {:.0}/s: {e}", rate(k)));
        }
        let lat = util::sorted(&d.latency_ms);
        let passed = rung_passes(&d);
        println!(
            "# ladder {:.1}/s: p99 {:.2} ms, {}/{} done, {} refused, {}",
            rate(k),
            util::quantile(&lat, 0.99),
            d.done,
            d.offered,
            d.rejected,
            if passed { "pass" } else { "fail" }
        );
        if passed {
            lo = k;
        } else {
            hi = k;
        }
        // Let a refused rung's backlog clear before the next one.
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok(rate(lo))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    match run_inner(args, &mut report) {
        Ok(()) => {}
        Err(e) => report.errors.push(format!("serve: {e}")),
    }
    report
}

fn run_inner(args: &Args, report: &mut Report) -> Result<(), String> {
    let root = crate::work_dir().join(format!("serve-{}", std::process::id()));
    let deck = deck(args.seed, args.smoke);
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..crate::SETUP_REPEATS {
        let t0 = Instant::now();
        let (service, client, reference) = setup(root.join(format!("rep{rep}")), &deck, false)?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some((old, old_client, _)) = live.replace((service, client, reference)) {
            // Close the client first: the server waits for its connections.
            drop(old_client);
            old.stop()?;
        }
    }
    let (service, mut client, reference) = live.expect("at least one set-up");
    let result = measure(args, report, &deck, &mut client, &reference, &setups, &root);
    drop(client);
    let stopped = service.stop();
    let _ = std::fs::remove_dir_all(&root);
    result.and(stopped)
}

/// The journal layer, measured in the traced run only: the same fixed-rate
/// phase against a journaled server (group commit, default checkpoints).
/// On a shared disk fsync stalls swing the tail several-fold from run to
/// run, which is why the timed phases run the service without a journal.
fn journal_phase(
    args: &Args,
    report: &mut Report,
    deck: &Deck,
    dir: PathBuf,
    unjournaled: &Reference,
    layers: &mut crate::LayerMetrics,
) -> Result<(), String> {
    let (service, mut client, reference) = setup(dir, deck, true)?;
    report.check(reference.digests == unjournaled.digests, || {
        "serve: journaled results differ from unjournaled ones".to_string()
    });
    let mut rng = Rng::new(args.seed ^ 0x10A1);
    let before = client.stats()?;
    let d = phase(&mut client, deck, &reference, &mut rng, FIXED_RATE, args.seconds / 2.0, None)?;
    let after = client.stats()?;
    layers.journal_bytes_per_session = service.journal_bytes_per_session();
    drop(client);
    service.stop()?;
    report.attempted += d.offered;
    report.failed += d.offered - d.done;
    for e in d.errors.iter().take(5) {
        report.errors.push(format!("journaled: {e}"));
    }
    report.check(d.done == d.offered, || {
        format!("serve: {} journaled sessions did not finish", d.offered - d.done)
    });
    let delta = |f: fn(&ServiceStats) -> u64| (f(&after) - f(&before)) as f64;
    layers.journal_records = delta(|s| s.journal_records);
    layers.journal_groups = delta(|s| s.journal_groups);
    layers.journal_checkpoints = delta(|s| s.journal_checkpoints);
    let lat = util::sorted(&d.latency_ms);
    layers.journal_plan_ms_p50 = util::quantile(&lat, 0.5);
    layers.journal_plan_ms_p99 = util::quantile(&lat, 0.99);
    Ok(())
}

fn measure(
    args: &Args,
    report: &mut Report,
    deck: &Deck,
    client: &mut Client,
    reference: &Reference,
    setups: &[f64],
    root: &Path,
) -> Result<(), String> {
    let mut rng = Rng::new(args.seed ^ 0x5E55);
    // Untraced, the whole run is at the fixed rate; traced, the fixed-rate
    // phase is halved to leave room for the traced, journaled and ladder
    // phases.
    let fixed_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let plain = phase(client, deck, reference, &mut rng, FIXED_RATE, fixed_s, None)?;
    report.attempted = plain.offered;
    report.failed = plain.offered - plain.done;
    for e in plain.errors.iter().take(5) {
        report.errors.push(e.clone());
    }
    report.check(plain.done == plain.offered, || {
        format!(
            "serve: {} of {} sessions did not finish",
            plain.offered - plain.done,
            plain.offered
        )
    });
    let rate = plain.done as f64 / plain.elapsed_s;

    if !args.trace {
        let nlat = plain.latency_ms.len() as u64;
        let nref = reference.digests.len() as u64;
        report.put("setup_s", util::median(setups), "s", setups.len() as u64);
        report.put("plans_per_s", rate, "1/s", plain.done);
        report.put("plan_ms_p50", plain.latency_quantile(0.5), "ms", nlat);
        report.note("plan_ms_p90", plain.latency_quantile(0.9), "ms", nlat);
        report.note("plan_ms_p99", plain.latency_quantile(0.99), "ms", nlat);
        report.put("done_frac", plain.done as f64 / plain.offered as f64, "ratio", plain.offered);
        report.put("sim_cost_usd", reference.cost, "usd", nref);
        report.put("constraint_misses", reference.misses as f64, "count", nref);
        report.put("rss_peak_mb", util::rss_peak_mb(), "MB", 1);
        return Ok(());
    }

    let tracer = Tracer::new(crate::SPAN_CAP);
    let before = client.stats()?;
    let mut traced = phase(client, deck, reference, &mut rng, FIXED_RATE, fixed_s, Some(&tracer))?;
    let after = client.stats()?;
    if traced.reread_rtt_ms.is_empty() {
        // A phase shorter than a second makes no re-read of its own.
        let t0 = Instant::now();
        client.call(&Request::Result { id: traced.last_id, wait: false })?;
        traced.reread_rtt_ms.push(util::ms(t0));
    }
    report.attempted += traced.offered;
    report.failed += traced.offered - traced.done;
    for e in traced.errors.iter().take(5) {
        report.errors.push(e.clone());
    }
    report.check(traced.done == traced.offered, || {
        format!("serve: {} traced sessions did not finish", traced.offered - traced.done)
    });
    let delta = |f: fn(&ServiceStats) -> u64| (f(&after) - f(&before)) as f64;
    let probe_lookups = delta(|s| s.cache_hits) + delta(|s| s.cache_misses);
    let grid_lookups = delta(|s| s.grid_hits) + delta(|s| s.grid_misses);
    let queued_mean = util::mean(&traced.queued);
    let traced_rate = traced.done as f64 / traced.elapsed_s;
    let q = |xs: &[f64], p: f64| util::quantile(&util::sorted(xs), p);
    let mut layers = crate::LayerMetrics {
        submit_rtt_ms_p50: q(&traced.submit_rtt_ms, 0.5),
        submit_rtt_ms_p99: q(&traced.submit_rtt_ms, 0.99),
        result_rtt_ms_p50: q(&traced.reread_rtt_ms, 0.5),
        result_bytes_mean: util::mean(&traced.result_bytes),
        gen_lag_ms_p99: q(&traced.lag_ms, 0.99),
        queued_mean,
        // Little's law: time in queue = sessions queued / arrival rate.
        queue_wait_ms: queued_mean / traced_rate * 1e3,
        rejected: traced.rejected as f64,
        probe_hit_ratio: delta(|s| s.cache_hits) / probe_lookups.max(1.0),
        probe_lookups,
        grid_hit_ratio: delta(|s| s.grid_hits) / grid_lookups.max(1.0),
        grid_lookups,
        overhead_pct: (rate - traced_rate) / rate * 100.0,
        samples: traced.done,
        ..Default::default()
    };
    journal_phase(args, report, deck, root.join("journaled"), reference, &mut layers)?;
    let step_s = (args.seconds / 2.0 / LADDER_STEPS as f64).max(0.5);
    let bottom = rung_passes(&plain);
    layers.max_rate_per_s = ladder(client, deck, reference, &mut rng, bottom, step_s, report)?;
    layers.put(report);
    crate::write_spans(&tracer, args, report);
    Ok(())
}
