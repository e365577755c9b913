//! The environment a searcher probes.
//!
//! Searchers never talk to the cloud directly; they see a
//! [`ProfilingEnv`]: a candidate space, a way to profile one deployment
//! (paying its heterogeneous time/money cost), and running totals of what
//! profiling has consumed. The production implementation is the MLCD
//! [`crate::system::Profiler`] running against the simulated cloud; tests
//! can use [`SyntheticEnv`] with any response surface.

use crate::deployment::{Deployment, SearchSpace};
use crate::observation::Observation;
use mlcd_cloudsim::{Money, SimDuration, SimTime};

/// Why a probe failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The deployment is not in the search space.
    NotInSpace(Deployment),
    /// The spot market revoked the probe's cluster mid-measurement. The
    /// interrupted attempt is billed; callers (the Profiler itself, for
    /// its one on-demand retry) dispatch on this variant rather than on
    /// the error text.
    SpotRevoked {
        /// The deployment whose probe was interrupted.
        deployment: Deployment,
        /// Virtual time at which the revocation hit.
        at: SimTime,
    },
    /// The cloud could not run it (quota, OOM discovered at run time…).
    Failed(String),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NotInSpace(d) => write!(f, "deployment {d} not in search space"),
            ProfileError::SpotRevoked { deployment, at } => write!(
                f,
                "probe of {deployment} revoked by the spot market at {:.0} s",
                at.as_secs()
            ),
            ProfileError::Failed(msg) => write!(f, "profiling failed: {msg}"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// The searcher-facing environment.
pub trait ProfilingEnv {
    /// Candidate deployments.
    fn space(&self) -> &SearchSpace;

    /// Total samples the final training run must process (to project
    /// training time/cost from an observed speed).
    fn total_samples(&self) -> f64;

    /// Expected time and money one probe of `d` will consume, *before*
    /// running it. This is the heterogeneous-cost signal HeterBO feeds
    /// into its acquisition (paper eqs. 7–8).
    fn quote(&self, d: &Deployment) -> (SimDuration, Money);

    /// Run one profiling probe, paying its cost.
    fn profile(&mut self, d: &Deployment) -> Result<Observation, ProfileError>;

    /// Run several probes as one *batch*. The money cost is the sum of the
    /// individual probes, but environments that can provision clusters
    /// concurrently (the simulated cloud can; so can EC2) charge only the
    /// *slowest* probe's duration against the wall-clock. The default
    /// implementation is sequential.
    fn profile_batch(&mut self, ds: &[Deployment]) -> Vec<Result<Observation, ProfileError>> {
        ds.iter().map(|d| self.profile(d)).collect()
    }

    /// Profiling wall-clock consumed so far.
    fn elapsed(&self) -> SimDuration;

    /// Profiling money spent so far.
    fn spent(&self) -> Money;
}

/// The paper's profiling-duration rule (§V-A): "each profiling takes 10
/// minutes (including initial setup and warm-up); we add an extra 1 minute
/// for every increase of 3 extra nodes".
pub fn paper_probe_duration(n: u32) -> SimDuration {
    assert!(n >= 1, "paper_probe_duration: empty cluster");
    SimDuration::from_mins(10.0) + SimDuration::from_mins(((n - 1) / 3) as f64)
}

/// Rate at which model + optimizer state is distributed and initialised
/// across a fresh cluster during warm-up, bytes/second. ~100 MB/s —
/// object-store download, graph building and the first compiled steps.
const STATE_WARMUP_BYTES_PER_SEC: f64 = 1e8;

/// Model-dependent extra warm-up on top of [`paper_probe_duration`]:
/// distributing and initialising a 320 GB ZeRO-20B state takes ~27
/// minutes; an AlexNet is instant. This is the second axis of the paper's
/// *heterogeneous* profiling cost (the first being cluster price), and is
/// what makes probing large-model deployments so much more expensive
/// (Fig 19).
pub fn model_warmup(model_state_bytes: f64) -> SimDuration {
    assert!(model_state_bytes >= 0.0, "model_warmup: negative state size");
    SimDuration::from_secs(model_state_bytes / STATE_WARMUP_BYTES_PER_SEC)
}

/// A deterministic in-memory environment over an arbitrary response
/// surface. Probes cost exactly the paper's quoted duration. Useful for
/// unit tests and property tests.
pub struct SyntheticEnv<F: Fn(&Deployment) -> f64> {
    space: SearchSpace,
    total_samples: f64,
    speed_fn: F,
    elapsed: SimDuration,
    spent: Money,
    probes: usize,
}

impl<F: Fn(&Deployment) -> f64> SyntheticEnv<F> {
    /// Build over a space and true-speed function.
    pub fn new(space: SearchSpace, total_samples: f64, speed_fn: F) -> Self {
        SyntheticEnv {
            space,
            total_samples,
            speed_fn,
            elapsed: SimDuration::ZERO,
            spent: Money::ZERO,
            probes: 0,
        }
    }

    /// Number of probes served.
    pub fn n_probes(&self) -> usize {
        self.probes
    }

    /// The true speed at a deployment (tests use this to identify the true
    /// optimum).
    pub fn true_speed(&self, d: &Deployment) -> f64 {
        (self.speed_fn)(d)
    }
}

impl<F: Fn(&Deployment) -> f64> ProfilingEnv for SyntheticEnv<F> {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn total_samples(&self) -> f64 {
        self.total_samples
    }

    fn quote(&self, d: &Deployment) -> (SimDuration, Money) {
        let t = paper_probe_duration(d.n);
        (t, d.cost_for(t))
    }

    fn profile(&mut self, d: &Deployment) -> Result<Observation, ProfileError> {
        if !self.space.contains(d) {
            return Err(ProfileError::NotInSpace(*d));
        }
        let speed = (self.speed_fn)(d);
        assert!(
            speed.is_finite() && speed > 0.0,
            "SyntheticEnv: response surface must be positive-finite everywhere \
             (got {speed} at {d}); clamp your surface, e.g. `.max(1.0)`"
        );
        let (t, c) = self.quote(d);
        self.elapsed += t;
        self.spent += c;
        self.probes += 1;
        Ok(Observation { deployment: *d, speed, profile_time: t, profile_cost: c })
    }

    fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    fn spent(&self) -> Money {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcd_cloudsim::InstanceType;
    use mlcd_perfmodel::{ThroughputModel, TrainingJob};

    fn tiny_space() -> SearchSpace {
        SearchSpace::new(
            &[InstanceType::C5Xlarge, InstanceType::P2Xlarge],
            10,
            &TrainingJob::resnet_cifar10(),
            &ThroughputModel::default(),
        )
    }

    #[test]
    fn paper_probe_duration_rule() {
        assert_eq!(paper_probe_duration(1).as_mins(), 10.0);
        assert_eq!(paper_probe_duration(3).as_mins(), 10.0);
        assert_eq!(paper_probe_duration(4).as_mins(), 11.0);
        assert_eq!(paper_probe_duration(7).as_mins(), 12.0);
        assert_eq!(paper_probe_duration(49).as_mins(), 26.0);
    }

    #[test]
    fn quotes_reflect_heterogeneous_cost() {
        let env = SyntheticEnv::new(tiny_space(), 1e6, |d| d.n as f64);
        let (_, cheap) = env.quote(&Deployment::new(InstanceType::C5Xlarge, 1));
        let (_, pricey) = env.quote(&Deployment::new(InstanceType::P2Xlarge, 10));
        // 10 GPU nodes for 13 min vs 1 CPU node for 10 min: ~69× the money.
        assert!(pricey.dollars() > cheap.dollars() * 50.0);
    }

    #[test]
    fn profiling_accumulates_cost() {
        let mut env = SyntheticEnv::new(tiny_space(), 1e6, |d| 100.0 * d.n as f64);
        let d = Deployment::new(InstanceType::C5Xlarge, 4);
        let obs = env.profile(&d).unwrap();
        assert_eq!(obs.speed, 400.0);
        assert_eq!(env.elapsed().as_mins(), 11.0);
        assert!((env.spent().dollars() - 0.17 * 4.0 * (11.0 / 60.0)).abs() < 1e-12);
        env.profile(&d).unwrap();
        assert_eq!(env.n_probes(), 2);
        assert_eq!(env.elapsed().as_mins(), 22.0);
    }

    #[test]
    fn out_of_space_probe_rejected() {
        let mut env = SyntheticEnv::new(tiny_space(), 1e6, |_| 1.0);
        let err = env.profile(&Deployment::new(InstanceType::C5nXlarge, 1)).unwrap_err();
        assert!(matches!(err, ProfileError::NotInSpace(_)));
        assert_eq!(env.elapsed(), SimDuration::ZERO);
    }
}
