//! Acquisition functions.
//!
//! The paper's §III-C builds on conventional Expected Improvement (its
//! eq. 4) and extends it two ways:
//!
//! 1. **Constraint awareness (TEI)** — eqs. 5–6 subtract the profiling
//!    spend and the *projected training spend at the candidate's predicted
//!    speed* from the remaining deadline/budget; a candidate with negative
//!    TEI cannot possibly pay off and is discarded.
//! 2. **Heterogeneous-cost penalty** — eqs. 7–8: a probe's own
//!    time/monetary cost divides its score, so an expensive 50-node GPU
//!    probe must promise proportionally more improvement than a one-node
//!    CPU probe.

use mlcd_gp::Prediction;
use mlcd_linalg::{norm_cdf, norm_pdf, NormalBatch};

/// Per-candidate buffers for the acquisition pass that follows a batched
/// prediction ([`AcquisitionPolicy::utility_ei_batch`],
/// [`AcquisitionPolicy::utility_poi_batch`]). A search keeps one set and
/// sizes it once with [`reserve`](Self::reserve), so that a warm scoring
/// pass allocates nothing. Each holds at most one entry per candidate.
///
/// [`AcquisitionPolicy::utility_ei_batch`]: crate::search::policies::AcquisitionPolicy::utility_ei_batch
/// [`AcquisitionPolicy::utility_poi_batch`]: crate::search::policies::AcquisitionPolicy::utility_poi_batch
#[derive(Debug, Clone, Default)]
pub struct AcquisitionBuffers {
    /// Positions (in the prediction batch, ascending) of the candidates
    /// the gates admitted for scoring.
    pub admitted: Vec<usize>,
    /// One expected improvement per admitted candidate, in `admitted`
    /// order.
    pub ei: Vec<f64>,
    /// One improvement probability per admitted candidate, in `admitted`
    /// order (left empty where nothing reads it).
    pub poi: Vec<f64>,
    /// Standard-normal arguments batched across candidates, and Φ and φ
    /// at them.
    pub normal: NormalBatch,
}

impl AcquisitionBuffers {
    /// Grow every buffer to hold `m` candidates.
    pub fn reserve(&mut self, m: usize) {
        self.admitted.reserve(m.saturating_sub(self.admitted.len()));
        self.ei.reserve(m.saturating_sub(self.ei.len()));
        self.poi.reserve(m.saturating_sub(self.poi.len()));
        self.normal.reserve(m);
    }
}

/// Where the acquisition functions read the standard normal's Φ and φ.
///
/// [`Exact`] evaluates them on the spot. A scoring pass over many
/// candidates runs the same acquisition code twice instead: once with
/// [`Staging`], which only records each argument, then, after one batched
/// [`NormalBatch::eval`], with [`Replay`], which hands back the batch's
/// values in the same order. Every call sequence is the same in both
/// passes (no branch depends on a Φ or φ value), and the batch's values
/// have the bits of [`norm_cdf`] and [`norm_pdf`], so the replayed result
/// is bit for bit the exact one.
pub(crate) trait StdNormal {
    /// Φ(z).
    fn cdf(&mut self, z: f64) -> f64;
    /// φ(z), always asked right after `cdf` at the same `z`.
    fn pdf(&mut self, z: f64) -> f64;
}

/// Φ and φ evaluated per call.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Exact;

impl StdNormal for Exact {
    fn cdf(&mut self, z: f64) -> f64 {
        norm_cdf(z)
    }

    fn pdf(&mut self, z: f64) -> f64 {
        norm_pdf(z)
    }
}

/// Records each Φ argument into a batch; the values it returns are
/// placeholders for a pass whose results are discarded.
pub(crate) struct Staging<'a>(pub(crate) &'a mut NormalBatch);

impl StdNormal for Staging<'_> {
    fn cdf(&mut self, z: f64) -> f64 {
        self.0.push(z);
        0.0
    }

    fn pdf(&mut self, _z: f64) -> f64 {
        0.0
    }
}

/// Reads an evaluated batch back in staging order.
pub(crate) struct Replay<'a> {
    batch: &'a NormalBatch,
    /// The position the last `cdf` read; the next one reads `at + 1`.
    at: usize,
}

impl<'a> Replay<'a> {
    /// Replay `batch` from its first argument.
    pub(crate) fn new(batch: &'a NormalBatch) -> Self {
        Replay { batch, at: usize::MAX }
    }
}

impl StdNormal for Replay<'_> {
    fn cdf(&mut self, z: f64) -> f64 {
        self.at = self.at.wrapping_add(1);
        debug_assert_eq!(self.batch.args().get(self.at).map(|x| x.to_bits()), Some(z.to_bits()));
        self.batch.cdf().get(self.at).copied().unwrap_or(f64::NAN)
    }

    fn pdf(&mut self, _z: f64) -> f64 {
        self.batch.pdf().get(self.at).copied().unwrap_or(f64::NAN)
    }
}

/// Expected improvement of a *maximisation* objective over incumbent
/// `best`, for a Gaussian belief `pred` about the candidate's value.
///
/// `xi` is the usual exploration margin (0 for the paper's plain EI).
pub fn expected_improvement(pred: &Prediction, best: f64, xi: f64) -> f64 {
    expected_improvement_with(pred, best, xi, &mut Exact)
}

/// [`expected_improvement`] with Φ and φ read from `normal`.
pub(crate) fn expected_improvement_with(
    pred: &Prediction,
    best: f64,
    xi: f64,
    normal: &mut impl StdNormal,
) -> f64 {
    let sigma = pred.stddev();
    let gap = pred.mean - best - xi;
    if sigma < 1e-12 {
        return gap.max(0.0);
    }
    let z = gap / sigma;
    let ei = gap * normal.cdf(z) + sigma * normal.pdf(z);
    ei.max(0.0)
}

/// Probability the candidate improves on `best` by more than `margin`
/// (POI acquisition; also HeterBO's confidence-aware stop test).
pub fn prob_improvement(pred: &Prediction, best: f64, margin: f64) -> f64 {
    prob_improvement_with(pred, best, margin, &mut Exact)
}

/// [`prob_improvement`] with Φ read from `normal`.
pub(crate) fn prob_improvement_with(
    pred: &Prediction,
    best: f64,
    margin: f64,
    normal: &mut impl StdNormal,
) -> f64 {
    let sigma = pred.stddev();
    let gap = pred.mean - (best + margin);
    if sigma < 1e-12 {
        return if gap > 0.0 { 1.0 } else { 0.0 };
    }
    normal.cdf(gap / sigma)
}

/// Upper confidence bound `μ + κσ` for a maximisation objective.
pub fn ucb(pred: &Prediction, kappa: f64) -> f64 {
    pred.mean + kappa * pred.stddev()
}

/// Which acquisition function ranks candidates (paper §II-D lists the
/// three standard choices; HeterBO builds on EI because "it does not
/// require hyperparameter tuning and it is easier for setting the stop
/// condition").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AcquisitionKind {
    /// Expected improvement over the incumbent (the default).
    #[default]
    ExpectedImprovement,
    /// Upper confidence bound `μ + κσ`, scored as its excess over the
    /// incumbent.
    UpperConfidenceBound {
        /// Exploration weight κ (≈2 is conventional).
        kappa: f64,
    },
    /// Probability of improving on the incumbent by at least
    /// `margin_frac × |incumbent|`.
    ProbabilityOfImprovement {
        /// Required improvement margin as a fraction of the incumbent.
        margin_frac: f64,
    },
}

impl AcquisitionKind {
    /// Score a candidate's Gaussian belief against the incumbent `best`
    /// (maximisation). All kinds return ≥ 0, with 0 meaning "not worth
    /// probing", so scores can be divided by probing-cost penalties.
    pub fn score(&self, pred: &Prediction, best: f64) -> f64 {
        self.score_with(pred, best, &mut Exact)
    }

    /// [`score`](Self::score) with Φ and φ read from `normal`.
    pub(crate) fn score_with(
        &self,
        pred: &Prediction,
        best: f64,
        normal: &mut impl StdNormal,
    ) -> f64 {
        match *self {
            AcquisitionKind::ExpectedImprovement => {
                expected_improvement_with(pred, best, 0.0, normal)
            }
            AcquisitionKind::UpperConfidenceBound { kappa } => (ucb(pred, kappa) - best).max(0.0),
            AcquisitionKind::ProbabilityOfImprovement { margin_frac } => {
                prob_improvement_with(pred, best, margin_frac * best.abs(), normal)
            }
        }
    }
}

/// Convert a Gaussian belief about *speed* into a Gaussian belief about
/// *training cost* via the delta method: `cost = k / speed` with
/// `k = total_samples × hourly_price / 3600`, so
/// `σ_cost ≈ |dcost/dspeed| σ_speed = k σ / μ²`.
///
/// Returns `None` when the speed belief dips too close to zero for the
/// linearisation to mean anything (those candidates are treated as
/// unknown-cost and scored by speed EI instead).
pub fn cost_belief(pred: &Prediction, total_samples: f64, hourly_usd: f64) -> Option<Prediction> {
    if pred.mean <= 1e-9 {
        return None;
    }
    // Beyond ~2.5σ of mass below zero speed the Gaussian-cost approximation
    // is garbage.
    if pred.mean - 2.5 * pred.stddev() <= 0.0 && pred.stddev() > 0.0 {
        return None;
    }
    let k = total_samples * hourly_usd / 3600.0;
    let mean = k / pred.mean;
    let sd = k * pred.stddev() / (pred.mean * pred.mean);
    Some(Prediction { mean, var: sd * sd, var_with_noise: sd * sd })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(mean: f64, sd: f64) -> Prediction {
        Prediction { mean, var: sd * sd, var_with_noise: sd * sd }
    }

    #[test]
    fn ei_zero_when_certainly_worse() {
        let p = pred(1.0, 0.0);
        assert_eq!(expected_improvement(&p, 2.0, 0.0), 0.0);
    }

    #[test]
    fn ei_equals_gap_when_certain_and_better() {
        let p = pred(5.0, 0.0);
        assert_eq!(expected_improvement(&p, 2.0, 0.0), 3.0);
    }

    #[test]
    fn ei_at_incumbent_with_uncertainty() {
        // gap = 0: EI = σ φ(0) = σ × 0.39894…
        let p = pred(2.0, 1.0);
        let ei = expected_improvement(&p, 2.0, 0.0);
        assert!((ei - 0.3989422804014327).abs() < 1e-12);
    }

    #[test]
    fn ei_increases_with_mean_and_sigma() {
        let base = expected_improvement(&pred(1.0, 0.5), 2.0, 0.0);
        assert!(expected_improvement(&pred(1.5, 0.5), 2.0, 0.0) > base);
        assert!(expected_improvement(&pred(1.0, 1.5), 2.0, 0.0) > base);
    }

    #[test]
    fn xi_discourages_marginal_candidates() {
        let p = pred(2.05, 0.1);
        assert!(expected_improvement(&p, 2.0, 0.5) < expected_improvement(&p, 2.0, 0.0));
    }

    #[test]
    fn poi_limits() {
        assert_eq!(prob_improvement(&pred(5.0, 0.0), 2.0, 0.0), 1.0);
        assert_eq!(prob_improvement(&pred(1.0, 0.0), 2.0, 0.0), 0.0);
        let half = prob_improvement(&pred(2.0, 1.0), 2.0, 0.0);
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ucb_is_linear_in_kappa() {
        let p = pred(3.0, 2.0);
        assert_eq!(ucb(&p, 0.0), 3.0);
        assert_eq!(ucb(&p, 1.0), 5.0);
        assert_eq!(ucb(&p, 2.0), 7.0);
    }

    #[test]
    fn cost_belief_delta_method() {
        // 3.6M samples at $3.6/h → k = 3600; speed 100 → cost $36.
        let b = cost_belief(&pred(100.0, 5.0), 3_600_000.0, 3.6).unwrap();
        assert!((b.mean - 36.0).abs() < 1e-9);
        // σ_cost = k σ/μ² = 3600×5/10000 = 1.8.
        assert!((b.stddev() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn cost_belief_rejects_near_zero_speed() {
        assert!(cost_belief(&pred(1.0, 0.9), 1e6, 1.0).is_none());
        assert!(cost_belief(&pred(0.0, 1.0), 1e6, 1.0).is_none());
        assert!(cost_belief(&pred(10.0, 1.0), 1e6, 1.0).is_some());
    }

    #[test]
    fn acquisition_kinds_rank_sensibly() {
        let best = 10.0;
        let promising = pred(12.0, 1.0);
        let hopeless = pred(2.0, 0.5);
        for kind in [
            AcquisitionKind::ExpectedImprovement,
            AcquisitionKind::UpperConfidenceBound { kappa: 2.0 },
            AcquisitionKind::ProbabilityOfImprovement { margin_frac: 0.05 },
        ] {
            let hi = kind.score(&promising, best);
            let lo = kind.score(&hopeless, best);
            assert!(hi > lo, "{kind:?}: {hi} vs {lo}");
            assert!(lo >= 0.0, "{kind:?} must be non-negative");
        }
    }

    #[test]
    fn ucb_score_is_excess_over_incumbent() {
        let kind = AcquisitionKind::UpperConfidenceBound { kappa: 2.0 };
        // μ + 2σ = 5 + 4 = 9, incumbent 7 → score 2.
        assert!((kind.score(&pred(5.0, 2.0), 7.0) - 2.0).abs() < 1e-12);
        // Below the incumbent → clamped to 0.
        assert_eq!(kind.score(&pred(1.0, 0.5), 7.0), 0.0);
    }

    #[test]
    fn poi_kind_uses_relative_margin() {
        let kind = AcquisitionKind::ProbabilityOfImprovement { margin_frac: 0.10 };
        // Needs > 11.0; belief centred at exactly 11 → probability 1/2.
        let p = kind.score(&pred(11.0, 1.0), 10.0);
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ei_never_negative_or_nan() {
        for mean in [-5.0, 0.0, 1.0, 100.0] {
            for sd in [0.0, 0.1, 10.0] {
                let e = expected_improvement(&pred(mean, sd), 1.0, 0.0);
                assert!(e.is_finite() && e >= 0.0, "mean={mean} sd={sd} → {e}");
            }
        }
    }
}
