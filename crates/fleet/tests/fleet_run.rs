//! End-to-end fleet runs: every policy drains a contended fleet to
//! completion, bit-deterministically.

use mlcd_fleet::{policy_by_name, FleetScenario, FleetSim, POLICY_NAMES};

#[test]
fn every_policy_drains_a_contended_fleet() {
    let mut scenario = FleetScenario::contended(1, 2020);
    scenario.n_jobs = 3; // keep the smoke fast; goldens cover full fleets
    for name in POLICY_NAMES {
        let policy = policy_by_name(name).expect("known policy");
        let out = FleetSim::new(scenario.clone(), policy).run();
        assert_eq!(out.agg.completed, scenario.n_jobs, "policy {name} lost jobs");
        assert!(out.agg.granted > 0, "policy {name} granted nothing");
        assert!(out.agg.total_cost.dollars() > 0.0);
        assert!(out.agg.makespan_hours > 0.0);
        assert!(out.agg.utilization > 0.0 && out.agg.utilization <= 1.0);
    }
}

#[test]
fn same_seed_same_digest() {
    let mut scenario = FleetScenario::contended(2, 7);
    scenario.n_jobs = 3;
    let a = FleetSim::new(scenario.clone(), policy_by_name("fairshare").unwrap()).run();
    let b = FleetSim::new(scenario, policy_by_name("fairshare").unwrap()).run();
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn refused_probes_cannot_livelock_a_fifo_fleet() {
    // In these level-3 fleets a tenant's search requests a GPU cluster
    // larger than the pool's cap. The refused launch takes no simulated
    // time; a search that kept re-requesting it spun forever with the
    // clock frozen. Each run sits behind a watchdog so a regression
    // fails instead of hanging the test binary.
    for seed in [3, 10] {
        let scenario = FleetScenario::contended(3, seed);
        let jobs = scenario.n_jobs;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let out = FleetSim::new(scenario, policy_by_name("fifo").expect("known")).run();
            let _ = tx.send(out.agg.completed);
        });
        let completed = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("fifo fleet at level 3, seed {seed} livelocked"));
        assert_eq!(completed, jobs, "seed {seed} lost jobs");
    }
}
