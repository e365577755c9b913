//! End-to-end fleet runs: every policy drains a contended fleet to
//! completion, bit-deterministically.

use mlcd_fleet::{per_job_greedy_cost, policy_by_name, FleetScenario, FleetSim, POLICY_NAMES};

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

#[test]
fn fairshare_saves_over_greedy_and_fifo_at_level_3() {
    // The contended level-3 preset at the figure seed: fair-share
    // ($396.93) costs 12.6% less than running every job alone ($454.14)
    // and less than FIFO ($451.37). Fair-share misses half its deadlines
    // here, so this pins cost only, not compliance.
    let scenario = FleetScenario::contended(3, 2020);
    let cost = |name: &str| {
        let policy = policy_by_name(name).expect("known policy");
        FleetSim::new(scenario.clone(), policy).run().agg.total_cost.dollars()
    };
    let fairshare = cost("fairshare");
    let fifo = cost("fifo");
    let greedy = per_job_greedy_cost(&scenario).dollars();
    assert!(fairshare <= 0.90 * greedy, "fairshare ${fairshare:.2} vs greedy ${greedy:.2}");
    assert!(fairshare < fifo, "fairshare ${fairshare:.2} vs fifo ${fifo:.2}");
}
