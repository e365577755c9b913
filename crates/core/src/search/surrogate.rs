//! The GP surrogate over the deployment space.
//!
//! Wraps `mlcd-gp` with the deployment→feature mapping, input scaling, and
//! refitting policy. Observations are modelled in *speed* space; scenario
//! objectives that need cost beliefs derive them via the delta method in
//! [`crate::acquisition::cost_belief`].

use crate::deployment::{Deployment, SearchSpace};
use crate::observation::Observation;
use mlcd_gp::fit::fit_hyperparams_with_scratch;
use mlcd_gp::{
    FitOptions, FitScratch, GpModel, InputScaler, KernelFamily, Prediction, ScoreWorkspace,
};

/// A fitted surrogate.
pub struct Surrogate {
    gp: GpModel,
    scaler: InputScaler,
    /// Fit buffers carried across refits (distance planes, lockstep
    /// groups and lane buffers), so a refit reuses the previous allocation
    /// instead of growing fresh ones each step.
    scratch: FitScratch,
}

impl Surrogate {
    /// Fit to the observations from scratch. Returns `None` with fewer
    /// than two observations or if the GP fit fails (both are handled by
    /// the caller falling back to pure exploration).
    pub fn fit(space: &SearchSpace, observations: &[Observation], seed: u64) -> Option<Surrogate> {
        Self::fit_with(space, observations, seed, FitScratch::new())
    }

    /// Refresh an existing surrogate with the observation list grown by
    /// exactly one: extends the posterior incrementally in `O(n²)` (fixed
    /// hyperparameters) between refits and pays the full `O(n³)`
    /// marginal-likelihood refit only every `refit_every`-th observation —
    /// the standard BO cadence; 1 refits every step, and 0 counts as 1.
    /// Any mismatch in counts, or a numerically unextendable point, falls
    /// back to a full refit. Every refit is the cold fit
    /// [`fit`](Self::fit) runs, on the previous surrogate's buffers.
    pub fn update(
        prev: Option<Surrogate>,
        space: &SearchSpace,
        observations: &[Observation],
        seed: u64,
        refit_every: usize,
    ) -> Option<Surrogate> {
        let refit_every = refit_every.max(1);
        let mut scratch = FitScratch::new();
        if let Some(prev) = prev {
            let is_increment = observations.len() == prev.gp.n_obs() + 1;
            let due_refit = observations.len().is_multiple_of(refit_every);
            if is_increment && !due_refit {
                let newest = observations.last().expect("non-empty");
                let x = prev.scaler.scale(&space.features(&newest.deployment));
                if let Ok(gp) = prev.gp.extend(x, newest.speed) {
                    return Some(Surrogate { gp, scaler: prev.scaler, scratch: prev.scratch });
                }
            }
            scratch = prev.scratch;
        }
        Self::fit_with(space, observations, seed, scratch)
    }

    fn fit_with(
        space: &SearchSpace,
        observations: &[Observation],
        seed: u64,
        mut scratch: FitScratch,
    ) -> Option<Surrogate> {
        if observations.len() < 2 {
            return None;
        }
        let scaler = InputScaler::from_bounds(space.feature_bounds());
        let xs: Vec<Vec<f64>> =
            observations.iter().map(|o| scaler.scale(&space.features(&o.deployment))).collect();
        let ys: Vec<f64> = observations.iter().map(|o| o.speed).collect();
        // Tighter hyperparameter bounds than the generic defaults: a BO
        // surrogate is fitted on very few points, where an unconstrained
        // marginal-likelihood fit happily picks a near-infinite lengthscale
        // for a dimension with no variation yet (e.g. n when only single
        // nodes were probed) and then extrapolates with absurd confidence.
        // Capping the lengthscale at ~the feature-cube width keeps honest
        // uncertainty over unexplored regions.
        let opts = FitOptions {
            seed,
            log_lengthscale: ((0.05f64).ln(), (1.5f64).ln()),
            log_signal_var: ((0.1f64).ln(), (10.0f64).ln()),
            log_noise_var: ((1e-6f64).ln(), (0.05f64).ln()),
            ..FitOptions::default()
        };
        let hp =
            fit_hyperparams_with_scratch(&xs, &ys, KernelFamily::Matern52, &opts, &mut scratch)
                .ok()?;
        let gp = GpModel::with_hyperparams(&xs, &ys, hp.kernel, hp.noise_var).ok()?;
        Some(Surrogate { gp, scaler, scratch })
    }

    /// Posterior belief about the speed of a deployment.
    pub fn predict(&self, space: &SearchSpace, d: &Deployment) -> Prediction {
        self.gp.predict(&self.scaler.scale(&space.features(d)))
    }

    /// Posterior beliefs about every deployment in `ds`, in order, through
    /// one blocked solve against the cached Cholesky factor. Bit-identical
    /// to calling [`predict`](Self::predict) per deployment (see
    /// [`GpModel::predict_batch`]), but a whole candidate pool costs one
    /// traversal of the factor instead of one per candidate.
    pub fn predict_batch(&self, space: &SearchSpace, ds: &[Deployment]) -> Vec<Prediction> {
        let xs: Vec<Vec<f64>> = ds.iter().map(|d| self.scaler.scale(&space.features(d))).collect();
        self.gp.predict_batch(&xs)
    }

    /// [`predict_batch`](Self::predict_batch) into a caller-owned
    /// [`ScoreWorkspace`]: features are staged and scaled in the
    /// workspace's query buffer and the posterior lands in
    /// `ws.predictions()`, so a warm workspace makes the whole scoring
    /// pass allocation-free. Bit-identical to `predict_batch` (pinned by
    /// tests here and at the GP layer).
    pub fn predict_batch_into(
        &self,
        space: &SearchSpace,
        ds: &[Deployment],
        ws: &mut ScoreWorkspace,
    ) {
        ws.begin_queries(self.scaler.dim());
        for d in ds {
            let slot = ws.push_query();
            space.features_into(d, slot);
            self.scaler.scale_in_place(slot);
        }
        self.gp.predict_batch_into(ws);
    }

    /// Number of observations the surrogate was fitted on.
    pub fn n_obs(&self) -> usize {
        self.gp.n_obs()
    }

    /// The fit buffers carried across refits, with the work counters of
    /// every fit run through them.
    pub fn fit_scratch(&self) -> &FitScratch {
        &self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcd_cloudsim::{InstanceType, Money, SimDuration};
    use mlcd_perfmodel::{ThroughputModel, TrainingJob};

    fn space() -> SearchSpace {
        SearchSpace::new(
            &[InstanceType::C54xlarge],
            50,
            &TrainingJob::resnet_cifar10(),
            &ThroughputModel::default(),
        )
    }

    fn obs(n: u32, speed: f64) -> Observation {
        Observation {
            deployment: Deployment::new(InstanceType::C54xlarge, n),
            speed,
            profile_time: SimDuration::from_mins(10.0),
            profile_cost: Money::from_dollars(0.1),
        }
    }

    #[test]
    fn needs_two_observations() {
        let s = space();
        assert!(Surrogate::fit(&s, &[], 0).is_none());
        assert!(Surrogate::fit(&s, &[obs(1, 100.0)], 0).is_none());
        assert!(Surrogate::fit(&s, &[obs(1, 100.0), obs(10, 300.0)], 0).is_some());
    }

    #[test]
    fn interpolates_concave_curve() {
        let s = space();
        // A concave speed curve peaking at n≈25.
        let f = |n: u32| 400.0 - 0.6 * (n as f64 - 25.0).powi(2);
        let observations: Vec<Observation> =
            [1u32, 5, 10, 20, 30, 40, 50].iter().map(|&n| obs(n, f(n))).collect();
        let sur = Surrogate::fit(&s, &observations, 7).unwrap();
        // Mean near the held-out point n=25 should be near the true peak.
        let p = sur.predict(&s, &Deployment::new(InstanceType::C54xlarge, 25));
        assert!((p.mean - 400.0).abs() < 60.0, "predicted {}", p.mean);
        // Variance at an observed point is smaller than midway between
        // observations.
        let at_obs = sur.predict(&s, &Deployment::new(InstanceType::C54xlarge, 10));
        let midway = sur.predict(&s, &Deployment::new(InstanceType::C54xlarge, 45));
        assert!(at_obs.var <= midway.var * 1.5 + 1e-9);
    }

    #[test]
    fn predict_batch_matches_per_point() {
        let s = space();
        let observations: Vec<Observation> =
            [1u32, 8, 17, 29, 44].iter().map(|&n| obs(n, 50.0 + 4.0 * n as f64)).collect();
        let sur = Surrogate::fit(&s, &observations, 11).unwrap();
        let ds: Vec<Deployment> =
            (1..=50).map(|n| Deployment::new(InstanceType::C54xlarge, n)).collect();
        let batch = sur.predict_batch(&s, &ds);
        assert_eq!(batch.len(), ds.len());
        for (d, p) in ds.iter().zip(&batch) {
            let single = sur.predict(&s, d);
            assert_eq!(p.mean, single.mean, "at {d}");
            assert_eq!(p.var, single.var, "at {d}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = space();
        let observations: Vec<Observation> =
            [1u32, 10, 20, 40].iter().map(|&n| obs(n, 100.0 + n as f64)).collect();
        let a = Surrogate::fit(&s, &observations, 3).unwrap();
        let b = Surrogate::fit(&s, &observations, 3).unwrap();
        let d = Deployment::new(InstanceType::C54xlarge, 33);
        assert_eq!(a.predict(&s, &d).mean, b.predict(&s, &d).mean);
    }

    #[test]
    fn incremental_update_tracks_full_refit() {
        let s = space();
        let mut observations: Vec<Observation> =
            [1u32, 10, 20].iter().map(|&n| obs(n, 100.0 + 3.0 * n as f64)).collect();
        // Start from a full fit (3 obs), extend one at a time with a long
        // refit cadence so the incremental path is exercised.
        let mut sur = Surrogate::fit(&s, &observations, 5);
        for &n in &[30u32, 40, 45] {
            observations.push(obs(n, 100.0 + 3.0 * n as f64));
            sur = Surrogate::update(sur, &s, &observations, 5, 1000);
        }
        let sur = sur.unwrap();
        assert_eq!(sur.n_obs(), 6);
        // Predictions stay close to a from-scratch fit with the same data
        // (hyperparameters differ — stale vs refit — so compare loosely,
        // at a point inside the data).
        let fresh = Surrogate::fit(&s, &observations, 5).unwrap();
        let d = Deployment::new(InstanceType::C54xlarge, 25);
        let a = sur.predict(&s, &d).mean;
        let b = fresh.predict(&s, &d).mean;
        assert!((a - b).abs() < 0.15 * b.abs().max(1.0), "incremental {a} vs fresh {b}");
        // And the incremental posterior interpolates the newest point.
        let p = sur.predict(&s, &Deployment::new(InstanceType::C54xlarge, 45));
        assert!((p.mean - (100.0 + 3.0 * 45.0)).abs() < 10.0, "got {}", p.mean);
    }

    #[test]
    fn predict_batch_into_reused_workspace_matches_fresh_across_steps() {
        let s = space();
        let mut observations: Vec<Observation> =
            [1u32, 9, 22, 37].iter().map(|&n| obs(n, 60.0 + 5.0 * n as f64)).collect();
        let ds: Vec<Deployment> =
            (1..=50).map(|n| Deployment::new(InstanceType::C54xlarge, n)).collect();
        let mut sur = Surrogate::update(None, &s, &observations, 13, 1);
        let mut ws = ScoreWorkspace::new();
        // Three consecutive BO steps: extend the model between scoring
        // passes and keep reusing the same workspace throughout.
        for &n in &[42u32, 6, 31] {
            let sur_ref = sur.as_ref().unwrap();
            sur_ref.predict_batch_into(&s, &ds, &mut ws);
            let fresh = sur_ref.predict_batch(&s, &ds);
            assert_eq!(ws.predictions(), &fresh[..]);
            observations.push(obs(n, 60.0 + 5.0 * n as f64));
            sur = Surrogate::update(sur, &s, &observations, 13, 1);
        }
    }

    #[test]
    fn update_refits_on_cadence_and_on_mismatch() {
        let s = space();
        let observations: Vec<Observation> =
            [1u32, 10, 20, 30].iter().map(|&n| obs(n, 50.0 + n as f64)).collect();
        // refit_every = 1: always a fresh fit, identical to Surrogate::fit.
        let via_update = Surrogate::update(None, &s, &observations, 7, 1).unwrap();
        let via_fit = Surrogate::fit(&s, &observations, 7).unwrap();
        let d = Deployment::new(InstanceType::C54xlarge, 15);
        assert_eq!(via_update.predict(&s, &d).mean, via_fit.predict(&s, &d).mean);
        // A count jump of +2 cannot extend → falls back to a full fit.
        let short: Vec<Observation> = observations[..2].to_vec();
        let prev = Surrogate::fit(&s, &short, 7);
        let jumped = Surrogate::update(prev, &s, &observations, 7, 1000).unwrap();
        assert_eq!(jumped.n_obs(), 4);
    }
}
