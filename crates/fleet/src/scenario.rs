//! Fleet scenarios: who arrives when, wanting what.
//!
//! A [`FleetScenario`] is a *generator*: a seed, an arrival process and a
//! set of job templates expand deterministically into a concrete
//! [`FleetJob`] list. Everything downstream (driver, goldens, benchmark)
//! consumes the expanded list, so the same scenario value always
//! reproduces the same fleet bit-for-bit.

use mlcd::prelude::{InstanceType, Scenario, SimDuration, SimTime, TrainingJob};
use mlcd_cloudsim::MarketMode;
use serde::Serialize;

/// Splitmix64 — the same cheap mixing the spot market uses, local copy
/// so the arrival process needs no RNG object.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in (0, 1] from a hash (never exactly zero, safe for `ln`).
fn unit(h: u64) -> f64 {
    ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// How job arrival instants are generated.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: inter-arrival gaps are exponential draws with
    /// the given rate, seeded from the scenario seed.
    Poisson {
        /// Mean arrivals per hour.
        rate_per_hour: f64,
    },
    /// Replay explicit arrival offsets (hours from fleet start). Extra
    /// jobs beyond the trace repeat its last gap.
    Trace {
        /// Arrival offsets in hours, ascending.
        offsets_hours: Vec<f64>,
    },
}

/// What one arriving job looks like. Templates are cycled round-robin
/// over the arrival sequence.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobTemplate {
    /// Preset training-job name ([`TrainingJob::by_name`]).
    pub job: &'static str,
    /// Searcher name ([`mlcd::search::searcher_by_name`]).
    pub searcher: &'static str,
    /// Scheduler priority (higher is more important).
    pub priority: u8,
    /// Deadline in hours from arrival → [`Scenario::CheapestWithDeadline`].
    pub deadline_hours: Option<f64>,
    /// Budget in USD → [`Scenario::FastestWithBudget`]. Ignored when a
    /// deadline is set. Neither → [`Scenario::FastestUnlimited`].
    pub budget_usd: Option<f64>,
}

/// A fleet workload: arrival process, templates and the shared pool's
/// shape.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetScenario {
    /// Master seed: arrivals, per-job searcher seeds and the shared
    /// cloud all derive from it.
    pub seed: u64,
    /// Arrival instant generator.
    pub arrivals: ArrivalProcess,
    /// Number of jobs to expand.
    pub n_jobs: u32,
    /// Job templates, cycled in arrival order.
    pub templates: Vec<JobTemplate>,
    /// Capacity cap per CPU instance type (the finite pool).
    pub cpu_cap: u32,
    /// Capacity cap per GPU instance type.
    pub gpu_cap: u32,
    /// Instance types tenants may search over.
    pub types: Vec<InstanceType>,
    /// Scale-out cap per tenant.
    pub max_nodes: u32,
    /// Spot price process for the shared market.
    pub market: MarketMode,
}

/// One expanded job: a concrete tenant of the fleet.
#[derive(Debug, Clone, Serialize)]
pub struct FleetJob {
    /// Fleet-assigned id (arrival order, starting at 0).
    pub id: u64,
    /// Arrival instant.
    pub arrival: SimTime,
    /// The training job.
    pub job: TrainingJob,
    /// Preset name the job was resolved from.
    pub job_name: &'static str,
    /// Searcher name.
    pub searcher: &'static str,
    /// Per-job searcher/platform seed.
    pub seed: u64,
    /// Scheduler priority.
    pub priority: u8,
    /// The per-job optimization scenario (deadline measured from
    /// arrival).
    pub scenario: Scenario,
}

impl FleetScenario {
    /// The contended presets the benchmark and goldens use: a finite pool
    /// with `level` ∈ 1..=3 turning up job pressure while turning down
    /// capacity. Level 2 and up are genuinely contended (pending probe
    /// demand routinely exceeds free capacity).
    pub fn contended(level: u8, seed: u64) -> FleetScenario {
        let (n_jobs, rate, cpu_cap, gpu_cap) = match level {
            1 => (8u32, 2.0, 48, 12),
            2 => (10, 3.0, 24, 8),
            _ => (12, 4.0, 16, 6),
        };
        FleetScenario {
            seed,
            arrivals: ArrivalProcess::Poisson { rate_per_hour: rate },
            n_jobs,
            templates: vec![
                JobTemplate {
                    job: "resnet-cifar10",
                    searcher: "heterbo",
                    priority: 2,
                    deadline_hours: Some(30.0),
                    budget_usd: None,
                },
                JobTemplate {
                    job: "char-rnn",
                    searcher: "heterbo",
                    priority: 0,
                    deadline_hours: None,
                    budget_usd: Some(60.0),
                },
                JobTemplate {
                    job: "alexnet-cifar10",
                    searcher: "heterbo",
                    priority: 1,
                    deadline_hours: Some(40.0),
                    budget_usd: None,
                },
                JobTemplate {
                    job: "resnet-cifar10",
                    searcher: "heterbo",
                    priority: 0,
                    deadline_hours: None,
                    budget_usd: None,
                },
            ],
            cpu_cap,
            gpu_cap,
            types: vec![
                InstanceType::C5Xlarge,
                InstanceType::C54xlarge,
                InstanceType::C5n4xlarge,
                InstanceType::P2Xlarge,
            ],
            max_nodes: 12,
            market: MarketMode::RandomWalk,
        }
    }

    /// The capacity cap that applies to `itype` in this scenario.
    pub fn cap_for(&self, itype: InstanceType) -> u32 {
        if itype.spec().has_gpu() {
            self.gpu_cap
        } else {
            self.cpu_cap
        }
    }

    /// Expand into the concrete job list, ascending by arrival.
    ///
    /// # Panics
    /// Panics if a template names an unknown job preset (scenarios are
    /// static configuration, not user input).
    pub fn jobs(&self) -> Vec<FleetJob> {
        assert!(!self.templates.is_empty(), "fleet scenario needs at least one template");
        let mut out = Vec::with_capacity(self.n_jobs as usize);
        let mut at_hours = 0.0f64;
        let mut last_gap = 0.25f64;
        for i in 0..u64::from(self.n_jobs) {
            let gap = match &self.arrivals {
                ArrivalProcess::Poisson { rate_per_hour } => {
                    let u = unit(mix(self.seed ^ mix(i)));
                    -u.ln() / rate_per_hour.max(1e-9)
                }
                ArrivalProcess::Trace { offsets_hours } => match offsets_hours.get(i as usize) {
                    Some(&off) => off - at_hours,
                    None => last_gap,
                },
            };
            last_gap = gap.max(0.0);
            at_hours += last_gap;
            let tpl = &self.templates[(i as usize) % self.templates.len()];
            let job = TrainingJob::by_name(tpl.job)
                .unwrap_or_else(|| panic!("unknown job preset {:?}", tpl.job));
            let scenario = match (tpl.deadline_hours, tpl.budget_usd) {
                (Some(h), _) => Scenario::CheapestWithDeadline(SimDuration::from_hours(h)),
                (None, Some(usd)) => {
                    Scenario::FastestWithBudget(mlcd::prelude::Money::from_dollars(usd))
                }
                (None, None) => Scenario::FastestUnlimited,
            };
            out.push(FleetJob {
                id: i,
                arrival: SimTime::from_secs(at_hours * 3600.0),
                job,
                job_name: tpl.job,
                searcher: tpl.searcher,
                seed: mix(self.seed ^ (i.wrapping_mul(0x9E37_79B9))),
                priority: tpl.priority,
                scenario,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_sorted() {
        let s = FleetScenario::contended(2, 2020);
        let a = s.jobs();
        let b = s.jobs();
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival.as_secs().to_bits(), y.arrival.as_secs().to_bits());
            assert_eq!(x.seed, y.seed);
        }
        for w in a.windows(2) {
            assert!(w[1].arrival.as_secs() >= w[0].arrival.as_secs());
        }
    }

    #[test]
    fn seeds_differ_across_jobs_and_fleet_seeds() {
        let a = FleetScenario::contended(1, 1).jobs();
        let b = FleetScenario::contended(1, 2).jobs();
        assert_ne!(a[0].seed, a[1].seed);
        assert_ne!(a[0].seed, b[0].seed);
        assert_ne!(a[0].arrival.as_secs().to_bits(), b[0].arrival.as_secs().to_bits());
    }

    #[test]
    fn trace_arrivals_replay_offsets() {
        let mut s = FleetScenario::contended(1, 7);
        s.arrivals = ArrivalProcess::Trace { offsets_hours: vec![0.0, 1.0, 1.5] };
        s.n_jobs = 4;
        let jobs = s.jobs();
        let hrs: Vec<f64> = jobs.iter().map(|j| j.arrival.as_hours()).collect();
        assert!((hrs[0] - 0.0).abs() < 1e-9);
        assert!((hrs[1] - 1.0).abs() < 1e-9);
        assert!((hrs[2] - 1.5).abs() < 1e-9);
        // Fourth job repeats the last gap.
        assert!((hrs[3] - 2.0).abs() < 1e-9);
    }
}
