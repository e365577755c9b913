//! Acquisition scoring: utility EI/POI in the scenario's objective units
//! and the heterogeneous probing-cost penalty.

use crate::acquisition::{
    cost_belief, prob_improvement_with, AcquisitionBuffers, AcquisitionKind, Exact, Replay,
    Staging, StdNormal,
};
use crate::deployment::Deployment;
use crate::env::ProfilingEnv;
use crate::observation::Observation;
use crate::scenario::{Objective, Scenario};
use mlcd_gp::Prediction;

/// Scores candidates for the BO loop's next-probe choice.
pub trait AcquisitionPolicy {
    /// EI of a candidate in the scenario's utility units, given the
    /// incumbent's utility.
    fn utility_ei(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        d: &Deployment,
        pred: &Prediction,
        incumbent: &Observation,
    ) -> f64;

    /// Probability this candidate improves utility by more than
    /// `threshold` — HeterBO's CI-aware stop statistic.
    fn utility_poi(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        d: &Deployment,
        pred: &Prediction,
        incumbent: &Observation,
        threshold: f64,
    ) -> f64;

    /// The probing-cost penalty the EI is divided by (1.0 = no penalty).
    fn penalty(&self, env: &dyn ProfilingEnv, scenario: &Scenario, d: &Deployment) -> f64;

    /// [`utility_ei`](Self::utility_ei) of every candidate at the positions
    /// `bufs.admitted` lists (into `ds` and `preds`), into `bufs.ei` in that
    /// order. Each value must equal what `utility_ei` returns for the same
    /// candidate; the default computes exactly that, one candidate at a
    /// time.
    fn utility_ei_batch(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        ds: &[Deployment],
        preds: &[Prediction],
        incumbent: &Observation,
        bufs: &mut AcquisitionBuffers,
    ) {
        let AcquisitionBuffers { admitted, ei, .. } = bufs;
        ei.clear();
        for (d, pred) in picked(admitted, ds, preds) {
            ei.push(self.utility_ei(scenario, total_samples, d, pred, incumbent));
        }
    }

    /// [`utility_poi`](Self::utility_poi) of the admitted candidates into
    /// `bufs.poi`, as [`utility_ei_batch`](Self::utility_ei_batch) does
    /// for the EI.
    #[allow(clippy::too_many_arguments)]
    fn utility_poi_batch(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        ds: &[Deployment],
        preds: &[Prediction],
        incumbent: &Observation,
        threshold: f64,
        bufs: &mut AcquisitionBuffers,
    ) {
        let AcquisitionBuffers { admitted, poi, .. } = bufs;
        poi.clear();
        for (d, pred) in picked(admitted, ds, preds) {
            poi.push(self.utility_poi(scenario, total_samples, d, pred, incumbent, threshold));
        }
    }
}

/// The candidates at `positions`, with their predictions.
fn picked<'a>(
    positions: &'a [usize],
    ds: &'a [Deployment],
    preds: &'a [Prediction],
) -> impl Iterator<Item = (&'a Deployment, &'a Prediction)> + 'a {
    positions.iter().map(move |&i| (&ds[i], &preds[i]))
}

/// The paper's acquisition family: EI/POI/UCB over the scenario utility,
/// optionally divided by each candidate's own probing cost (eqs. 7–8).
#[derive(Debug, Clone, Copy)]
pub struct CostPenalisedAcquisition {
    /// Which acquisition function ranks candidates.
    pub kind: AcquisitionKind,
    /// Divide each candidate's EI by its own probing cost.
    pub cost_penalty: bool,
}

impl CostPenalisedAcquisition {
    /// The incumbent's training cost in dollars.
    fn incumbent_cost(total_samples: f64, incumbent: &Observation) -> f64 {
        Scenario::training_cost(&incumbent.deployment, total_samples, incumbent.speed).dollars()
    }

    /// [`AcquisitionPolicy::utility_ei`] with Φ and φ read from `normal`.
    fn ei_with(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        d: &Deployment,
        pred: &Prediction,
        incumbent: &Observation,
        normal: &mut impl StdNormal,
    ) -> f64 {
        let kind = self.kind;
        match scenario.objective() {
            Objective::MaxSpeed => kind.score_with(pred, incumbent.speed, normal),
            Objective::MinCost => {
                let inc_cost = Self::incumbent_cost(total_samples, incumbent);
                match cost_belief(pred, total_samples, d.hourly_cost().dollars()) {
                    Some(cb) => {
                        // Minimisation: negate both sides.
                        let neg = Prediction {
                            mean: -cb.mean,
                            var: cb.var,
                            var_with_noise: cb.var_with_noise,
                        };
                        kind.score_with(&neg, -inc_cost, normal)
                    }
                    // Speed belief too uncertain for a cost belief: score
                    // by the speed acquisition scaled into cost units via
                    // the incumbent.
                    None => {
                        kind.score_with(pred, incumbent.speed, normal) * inc_cost
                            / incumbent.speed.max(1e-9)
                    }
                }
            }
        }
    }

    /// [`AcquisitionPolicy::utility_poi`] with Φ read from `normal`.
    #[allow(clippy::too_many_arguments)]
    fn poi_with(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        d: &Deployment,
        pred: &Prediction,
        incumbent: &Observation,
        threshold: f64,
        normal: &mut impl StdNormal,
    ) -> f64 {
        match scenario.objective() {
            Objective::MaxSpeed => prob_improvement_with(pred, incumbent.speed, threshold, normal),
            Objective::MinCost => {
                let inc_cost = Self::incumbent_cost(total_samples, incumbent);
                match cost_belief(pred, total_samples, d.hourly_cost().dollars()) {
                    Some(cb) => {
                        let neg = Prediction {
                            mean: -cb.mean,
                            var: cb.var,
                            var_with_noise: cb.var_with_noise,
                        };
                        prob_improvement_with(&neg, -inc_cost, threshold, normal)
                    }
                    None => 1.0, // too uncertain to rule out: keep searching
                }
            }
        }
    }
}

impl AcquisitionPolicy for CostPenalisedAcquisition {
    fn utility_ei(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        d: &Deployment,
        pred: &Prediction,
        incumbent: &Observation,
    ) -> f64 {
        self.ei_with(scenario, total_samples, d, pred, incumbent, &mut Exact)
    }

    fn utility_poi(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        d: &Deployment,
        pred: &Prediction,
        incumbent: &Observation,
        threshold: f64,
    ) -> f64 {
        self.poi_with(scenario, total_samples, d, pred, incumbent, threshold, &mut Exact)
    }

    /// The probing-cost penalty (paper eqs. 7–8): time for Scenario-1
    /// (the objective is wall-clock), money when a budget or a cost
    /// objective is in play.
    fn penalty(&self, env: &dyn ProfilingEnv, scenario: &Scenario, d: &Deployment) -> f64 {
        if !self.cost_penalty {
            return 1.0;
        }
        let (qt, qc) = env.quote(d);
        match scenario {
            Scenario::FastestUnlimited => qt.as_secs(),
            Scenario::CheapestWithDeadline(_) | Scenario::FastestWithBudget(_) => qc.dollars(),
        }
    }

    /// The EI of every admitted candidate with Φ and φ evaluated in one
    /// batch: stage their arguments, evaluate, replay (see the
    /// crate-private `StdNormal`).
    fn utility_ei_batch(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        ds: &[Deployment],
        preds: &[Prediction],
        incumbent: &Observation,
        bufs: &mut AcquisitionBuffers,
    ) {
        let AcquisitionBuffers { admitted, ei, normal, .. } = bufs;
        normal.clear();
        for (d, pred) in picked(admitted, ds, preds) {
            self.ei_with(scenario, total_samples, d, pred, incumbent, &mut Staging(normal));
        }
        normal.eval(true);
        let mut replay = Replay::new(normal);
        ei.clear();
        for (d, pred) in picked(admitted, ds, preds) {
            ei.push(self.ei_with(scenario, total_samples, d, pred, incumbent, &mut replay));
        }
    }

    /// The POI of every admitted candidate with Φ evaluated in one batch.
    fn utility_poi_batch(
        &self,
        scenario: &Scenario,
        total_samples: f64,
        ds: &[Deployment],
        preds: &[Prediction],
        incumbent: &Observation,
        threshold: f64,
        bufs: &mut AcquisitionBuffers,
    ) {
        let AcquisitionBuffers { admitted, poi, normal, .. } = bufs;
        normal.clear();
        for (d, pred) in picked(admitted, ds, preds) {
            let staging = &mut Staging(normal);
            self.poi_with(scenario, total_samples, d, pred, incumbent, threshold, staging);
        }
        normal.eval(false);
        let mut replay = Replay::new(normal);
        poi.clear();
        for (d, pred) in picked(admitted, ds, preds) {
            let p =
                self.poi_with(scenario, total_samples, d, pred, incumbent, threshold, &mut replay);
            poi.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::SearchSpace;
    use crate::env::SyntheticEnv;
    use mlcd_cloudsim::{InstanceType, Money, SimDuration};
    use mlcd_perfmodel::{ThroughputModel, TrainingJob};

    fn pred(mean: f64, var: f64) -> mlcd_gp::Prediction {
        mlcd_gp::Prediction { mean, var, var_with_noise: var }
    }

    fn incumbent(speed: f64) -> Observation {
        Observation {
            deployment: Deployment::new(InstanceType::C5Xlarge, 1),
            speed,
            profile_time: SimDuration::from_mins(10.0),
            profile_cost: Money::from_dollars(0.1),
        }
    }

    #[test]
    fn speed_objective_ei_grows_with_mean() {
        let acq = CostPenalisedAcquisition {
            kind: AcquisitionKind::ExpectedImprovement,
            cost_penalty: false,
        };
        let d = Deployment::new(InstanceType::C5Xlarge, 2);
        let inc = incumbent(100.0);
        let lo = acq.utility_ei(&Scenario::FastestUnlimited, 1e6, &d, &pred(90.0, 25.0), &inc);
        let hi = acq.utility_ei(&Scenario::FastestUnlimited, 1e6, &d, &pred(150.0, 25.0), &inc);
        assert!(hi > lo, "EI must grow with the predicted mean ({lo} vs {hi})");
    }

    #[test]
    fn penalty_is_unity_when_disabled_and_positive_when_enabled() {
        let job = TrainingJob::resnet_cifar10();
        let space =
            SearchSpace::new(&[InstanceType::C5Xlarge], 50, &job, &ThroughputModel::default());
        fn f(d: &Deployment) -> f64 {
            100.0 * d.n as f64
        }
        let env = SyntheticEnv::new(space, 5e6, f as fn(&Deployment) -> f64);
        let d = Deployment::new(InstanceType::C5Xlarge, 4);
        let off = CostPenalisedAcquisition {
            kind: AcquisitionKind::ExpectedImprovement,
            cost_penalty: false,
        };
        assert_eq!(off.penalty(&env, &Scenario::FastestUnlimited, &d), 1.0);
        let on = CostPenalisedAcquisition {
            kind: AcquisitionKind::ExpectedImprovement,
            cost_penalty: true,
        };
        // Scenario 1 penalises by quoted time, budget scenarios by money.
        assert!(on.penalty(&env, &Scenario::FastestUnlimited, &d) > 1.0);
        let budget = Scenario::FastestWithBudget(Money::from_dollars(100.0));
        assert!(on.penalty(&env, &budget, &d) > 0.0);
    }
}
