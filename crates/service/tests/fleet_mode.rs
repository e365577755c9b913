//! Fleet-mode sessions are tenants of the `mlcd-fleet` driver.
//!
//! Two properties:
//!
//! * **One pipeline.** A one-job scenario run through `FleetSim` and the
//!   same job submitted to a one-worker fleet-mode manager produce the
//!   same `SessionResult`, bit for bit, under every policy.
//! * **Cancellation leaves the pool clean.** A session cancelled mid-
//!   search leaves no request at the arbiter, and the next session runs
//!   to completion on the same pool.

use mlcd_cloudsim::SpotMarket;
use mlcd_fleet::{policy_by_name, ArrivalProcess, FleetScenario, FleetSim, POLICY_NAMES};
use mlcd_service::{FleetConfig, Phase, ServiceConfig, SessionManager, SessionResult, SubmitSpec};
use std::sync::mpsc::channel;
use std::time::Duration;

/// Run `body` on a helper thread; a hang fails the test instead of
/// stalling the binary.
fn with_watchdog<T: Send + 'static>(
    what: &str,
    secs: u64,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    rx.recv_timeout(Duration::from_secs(secs)).unwrap_or_else(|_| panic!("{what} hung"))
}

fn fleet_manager(policy: &str, seed: u64, cpu_cap: u32, gpu_cap: u32) -> SessionManager {
    SessionManager::new(ServiceConfig {
        workers: 1,
        fleet: Some(FleetConfig { policy: policy.to_string(), seed, cpu_cap, gpu_cap }),
        ..ServiceConfig::default()
    })
    .expect("fleet manager")
}

#[test]
fn a_lone_session_matches_its_fleet_sim_tenant_bit_for_bit() {
    // One job arriving at t = 0 on the contended level-1 pool, priced by
    // the service pool's spot market.
    let mut scenario = FleetScenario::contended(1, 2020);
    scenario.arrivals = ArrivalProcess::Trace { offsets_hours: vec![0.0] };
    scenario.n_jobs = 1;
    scenario.market = SpotMarket::default().mode;
    let job = scenario.jobs().remove(0);
    let template = &scenario.templates[0];
    let mut spec = SubmitSpec::new(job.job_name, job.searcher, job.seed);
    spec.priority = job.priority;
    spec.deadline_hours = template.deadline_hours;
    spec.budget = template.budget_usd;
    spec.types = Some(scenario.types.iter().map(|t| t.name().to_string()).collect());
    spec.max_nodes = scenario.max_nodes;

    for policy in POLICY_NAMES {
        let sim = FleetSim::new(scenario.clone(), policy_by_name(policy).expect("known")).run();
        let want = SessionResult::from(sim.jobs[0].outcome.as_ref().expect("the tenant finished"));

        let (seed, cpu_cap, gpu_cap) = (scenario.seed, scenario.cpu_cap, scenario.gpu_cap);
        let spec = spec.clone();
        let got = with_watchdog("fleet session", 120, move || {
            let m = fleet_manager(policy, seed, cpu_cap, gpu_cap);
            let id = m.submit(spec).expect("submit");
            match m.session(id).expect("session").wait_terminal() {
                Phase::Done(result) => *result,
                other => panic!("{policy}: session ended {}", other.name()),
            }
        });
        assert!(got.search.n_probes() > 0, "{policy}: the session probed nothing");
        assert_eq!(
            serde_json::to_string(&got).expect("encode"),
            serde_json::to_string(&want).expect("encode"),
            "{policy}: the service's tenant diverged from FleetSim's"
        );
    }
}

#[test]
fn a_cancelled_session_leaves_the_pool_clean() {
    let (phase, queue_depth, next) = with_watchdog("fleet cancel", 120, || {
        let m = fleet_manager("fairshare", 2020, 16, 6);
        let id = m.submit(SubmitSpec::new("resnet-cifar10", "heterbo", 11)).expect("submit");
        let session = m.session(id).expect("session");
        let (batch, end) = session.next_events(0);
        assert!(end.is_none() && !batch.is_empty(), "the search emitted events");
        assert!(m.cancel(id));
        let phase = session.wait_terminal().name();
        let queue_depth = m.stats().fleet.expect("fleet counters").queue_depth;

        let mut small = SubmitSpec::new("char-rnn", "heterbo", 12);
        small.types = Some(vec!["c5.xlarge".into(), "p2.xlarge".into()]);
        small.max_nodes = 8;
        let next = m.submit(small).expect("submit after cancel");
        let next = m.session(next).expect("session").wait_terminal().name();
        (phase, queue_depth, next)
    });
    assert_eq!(phase, "cancelled");
    assert_eq!(queue_depth, 0, "a cancelled tenant left a request at the arbiter");
    assert_eq!(next, "done");
}
