//! Wire latency: a reply must leave the server as soon as it is written.
//!
//! The client mirrors the benchmark's `serve` pattern in process. Submits
//! are paced every 5 ms on connection A without waiting for `Submitted`;
//! each `Submitted` is turned into a pipelined `Result{wait: true}` on
//! connection B. Early on, A also carries one back-to-back `Stats` pair.
//!
//! The pair is the trigger. If the server leaves Nagle's algorithm on,
//! the second `Stats` reply waits for the client's ACK of the first, and
//! from then on every reply on A leaves one request late: the median
//! submit→result latency becomes the 5 ms request interval. With Nagle
//! off it is the service time of a cache-warm session, well under 1 ms.

// lint: allow(nondet-source, file) — the clock only paces requests and
// times replies on the client side; no reading reaches a search

use mlcd_service::{Phase, Request, Response, Server, ServiceConfig, SessionManager, SubmitSpec};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Submits in the paced run.
const SUBMITS: usize = 200;
/// The request interval on connection A.
const INTERVAL: Duration = Duration::from_millis(5);
/// The submit after which the back-to-back `Stats` pair goes out.
const TRIGGER_AT: usize = 10;
/// Ceiling on the median submit→result latency.
const MEDIAN_LIMIT_MS: f64 = 2.5;
/// A reply that takes this long means the wire hung.
const WATCHDOG: Duration = Duration::from_secs(20);

fn line_of(req: &Request) -> Vec<u8> {
    let mut line = serde_json::to_string(req).expect("requests serialize").into_bytes();
    line.push(b'\n');
    line
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read reply") > 0, "server closed the connection");
    serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("decode {line:?}: {e}"))
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// A session small enough that, once the probe cache is warm, serving it
/// takes a fraction of a millisecond.
fn spec() -> SubmitSpec {
    let mut spec = SubmitSpec::new("resnet-cifar10", "exhaustive", 7);
    spec.types = Some(vec!["c5.xlarge".into(), "p2.xlarge".into()]);
    spec.max_nodes = 8;
    spec
}

/// What connection A's reader expects next.
enum Sent {
    Submit(Instant),
    Stats,
}

#[test]
fn replies_are_not_held_back_by_nagle() {
    let manager = Arc::new(SessionManager::new(ServiceConfig::default()).expect("manager"));
    // Warm the probe cache so every paced session is served from it.
    let id = manager.submit(spec()).expect("warm-up submit");
    let warm = manager.session(id).expect("warm-up session").wait_terminal();
    assert!(matches!(warm, Phase::Done(_)), "warm-up ended {}", warm.name());

    let server = Arc::new(Server::bind("127.0.0.1:0", manager).expect("bind"));
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn({
        let server = server.clone();
        move || server.run()
    });

    let (mut a, mut a_rd) = connect(addr);
    let (mut b, mut b_rd) = connect(addr);
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (pend_tx, pend_rx) = mpsc::channel::<(u64, Instant)>();
    let (lat_tx, lat_rx) = mpsc::channel::<f64>();

    // Acknowledgements on A; each `Submitted` becomes a Result request on B.
    std::thread::spawn(move || {
        for sent in sent_rx {
            match (sent, read_response(&mut a_rd)) {
                (Sent::Submit(at), Response::Submitted { id }) => {
                    b.write_all(&line_of(&Request::Result { id, wait: true })).expect("write B");
                    pend_tx.send((id, at)).expect("result reader alive");
                }
                (Sent::Stats, Response::Stats { .. }) => {}
                (_, other) => panic!("unexpected reply on A: {other:?}"),
            }
        }
    });
    // Results on B, in request order.
    std::thread::spawn(move || {
        for (id, at) in pend_rx {
            match read_response(&mut b_rd) {
                Response::ResultReady { id: got, .. } if got == id => {}
                other => panic!("session {id} answered with {other:?}"),
            }
            let _ = lat_tx.send(at.elapsed().as_secs_f64() * 1e3);
        }
    });

    let start = Instant::now();
    for seq in 0..SUBMITS {
        if let Some(wait) = (start + INTERVAL * seq as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        sent_tx.send(Sent::Submit(Instant::now())).expect("ack reader alive");
        a.write_all(&line_of(&Request::Submit(spec()))).expect("write A");
        if seq == TRIGGER_AT {
            for _ in 0..2 {
                sent_tx.send(Sent::Stats).expect("ack reader alive");
                a.write_all(&line_of(&Request::Stats)).expect("write A");
            }
        }
    }
    drop(sent_tx);

    let mut latencies: Vec<f64> = (0..SUBMITS)
        .map(|k| {
            lat_rx.recv_timeout(WATCHDOG).unwrap_or_else(|e| {
                panic!("result {k} of {SUBMITS} not in after {WATCHDOG:?}: {e}")
            })
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let median = latencies[SUBMITS / 2];
    let max = latencies[SUBMITS - 1];
    assert!(
        median < MEDIAN_LIMIT_MS,
        "median submit→result {median:.2} ms (max {max:.2} ms) is not under \
         {MEDIAN_LIMIT_MS} ms: replies are being held back on the wire"
    );

    drop(a);
    server.request_stop();
    server_thread.join().expect("server thread").expect("server run");
}
