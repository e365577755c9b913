//! Marginal-likelihood hyperparameter fitting.
//!
//! Hyperparameters θ = (log σ_f², log ℓ₁…log ℓ_d, log σ_n²) are fitted by
//! minimising the negative log marginal likelihood of the *standardised*
//! targets with multi-start Nelder–Mead (starts drawn by Latin hypercube).
//! Every fit starts from the same draw for its seed; nothing of a previous
//! fit's optimum carries over.
//!
//! Working in log-space keeps every parameter positive without constrained
//! optimisation; the search ranges below assume inputs roughly in the unit
//! cube and standardised targets, which [`crate::scale`] provides.
//!
//! # Four starts at a time
//!
//! The starts of one fit share the observations and differ only in θ, so
//! they run in lockstep groups of [`LANES`] (`mlcd_linalg::LaneGroup`):
//! each round, every live start submits its next θ. A θ outside the soft
//! walls is answered `+∞` at once, without taking a lane, and that start
//! moves on to its next point; the remaining θ go through one
//! [`Likelihood`] evaluation, which runs `mlcd_linalg::fastpath`'s lane
//! kernel (AVX2 code with an inlined `exp` where the CPU supports it, and
//! bit-identical to the baseline compilation). Each lane performs a
//! one-θ evaluation's operations in its order, and each start only sees
//! its own values, so every start's trajectory, and the fitted θ, are the
//! same as running the starts one by one. The groups (two for the default
//! eight starts) fan out over the process-wide `rayon` helper pool and the
//! best is taken in start order, so fits are bit-identical at any thread
//! count. A fit spawns no thread.
//!
//! Each group's lane buffers live in [`FitScratch`], which a search keeps
//! across refits, so a warm refit allocates nothing per group or per round
//! (`tests/zero_alloc_nlml.rs` pins this). [`FitScratch::counters`] counts
//! the work: fits, starts, evaluations, wall answers and lane batches.
//! [`nlml_naive`] is the reference the property tests hold the lanes to.

// lint: allow(hot-index, file) — the θ vector layout [log σ_f², log ℓ₁…ℓ_d, log σ_n²] has
// fixed length d+2, established by the SampleRange construction and debug-asserted at every
// evaluator entry; indexing follows that contract on the likelihood hot path.

use crate::kernel::{ArdKernel, KernelFamily};
use crate::model::GpError;
use crate::scale::OutputScaler;
use crate::workspace::DistanceWorkspace;
use mlcd_linalg::fastpath::{Correlation, NlmlLanes, NlmlProblem};
use mlcd_linalg::{
    lockstep_nelder_mead, multi_starts, Chol, LaneGroup, LaneObjective, Mat, NelderMeadOptions,
    OptResult, SampleRange, LANES, MAX_DIM,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Jitter escalation used by every likelihood evaluation.
const NLML_JITTER: (f64, usize) = (1e-12, 6);

/// Controls for the hyperparameter search.
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Number of Latin-hypercube restarts.
    pub n_starts: usize,
    /// RNG seed for the restart sample (fits are deterministic given this).
    pub seed: u64,
    /// Per-restart Nelder–Mead budget.
    pub nm: NelderMeadOptions,
    /// Search range for log ℓ (applies to every dimension).
    pub log_lengthscale: (f64, f64),
    /// Search range for log σ_f².
    pub log_signal_var: (f64, f64),
    /// Search range for log σ_n². The lower bound acts as a noise floor,
    /// which keeps kernel matrices well-conditioned.
    pub log_noise_var: (f64, f64),
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            n_starts: 8,
            seed: 0x5eed,
            nm: NelderMeadOptions { max_evals: 250, ..Default::default() },
            // Inputs in [0,1]: lengthscales from 1/50 of the cube to 20x it.
            log_lengthscale: ((0.02f64).ln(), (20.0f64).ln()),
            log_signal_var: ((0.05f64).ln(), (20.0f64).ln()),
            log_noise_var: ((1e-6f64).ln(), (1.0f64).ln()),
        }
    }
}

/// The outcome of hyperparameter fitting.
#[derive(Debug, Clone)]
pub struct FittedHyperparams {
    /// The kernel at the optimum.
    pub kernel: ArdKernel,
    /// Observation-noise variance (standardised target units).
    pub noise_var: f64,
    /// Negative log marginal likelihood at the optimum.
    pub nlml: f64,
    /// The optimum in log space, `[log σ_f², log ℓ₁…log ℓ_d, log σ_n²]`.
    pub theta: Vec<f64>,
}

/// Soft-wall check shared by both likelihood paths: `true` when θ is
/// within `margin` of the search box on every coordinate.
fn theta_in_bounds(theta: &[f64], d: usize, opts: &FitOptions) -> bool {
    // Allow the optimiser to wander a little past the start box (soft
    // walls), but keep the box meaningful — callers rely on the bounds to
    // regularise fits on very few points.
    let margin = 0.7;
    let (lo, hi) = opts.log_signal_var;
    if theta[0] < lo - margin || theta[0] > hi + margin {
        return false;
    }
    let (lo, hi) = opts.log_lengthscale;
    for &t in &theta[1..=d] {
        if t < lo - margin || t > hi + margin {
            return false;
        }
    }
    let (lo, hi) = opts.log_noise_var;
    let t_noise = theta[d + 1];
    t_noise >= lo - margin && t_noise <= hi + margin
}

/// Negative log marginal likelihood of standardised targets `z` for the
/// hyperparameter vector `theta = [log sf2, log l_1.., log sn2]` —
/// reference implementation that rebuilds the kernel matrix entry by
/// entry and allocates per call.
///
/// Returns `+inf` for hyperparameters outside sane bounds or that make the
/// kernel matrix unfactorable — the optimiser treats those as walls.
/// [`Likelihood`] is the fast path; this function is kept public as the
/// ground truth the property tests compare it against.
pub fn nlml_naive(
    theta: &[f64],
    xs: &[Vec<f64>],
    z: &[f64],
    family: KernelFamily,
    opts: &FitOptions,
) -> f64 {
    let d = xs[0].len();
    debug_assert_eq!(theta.len(), d + 2);
    if !theta_in_bounds(theta, d, opts) {
        return f64::INFINITY;
    }

    let sf2 = theta[0].exp();
    let ls: Vec<f64> = theta[1..=d].iter().map(|t| t.exp()).collect();
    let sn2 = theta[d + 1].exp();
    let kernel = ArdKernel::new(family, sf2, ls);

    let n = xs.len();
    let mut k = Mat::from_fn(n, n, |i, j| kernel.eval(&xs[i], &xs[j]));
    k.symmetrize();
    k.add_diag(sn2);
    let chol = match Chol::factor_with_jitter(&k, NLML_JITTER.0, NLML_JITTER.1) {
        Ok(c) => c,
        Err(_) => return f64::INFINITY,
    };
    let alpha = chol.solve(z);
    0.5 * mlcd_linalg::dot(z, &alpha)
        + 0.5 * chol.log_det()
        + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
}

/// The `mlcd-linalg` correlation that evaluates `family`.
pub(crate) fn correlation_of(family: KernelFamily) -> Correlation {
    match family {
        KernelFamily::SquaredExp => Correlation::SquaredExp,
        KernelFamily::Matern32 => Correlation::Matern32,
        KernelFamily::Matern52 => Correlation::Matern52,
    }
}

/// Work done by the fits through one [`FitScratch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitCounters {
    /// Hyperparameter fits run.
    pub fits: u64,
    /// Nelder–Mead starts run.
    pub starts: u64,
    /// Likelihood evaluations, soft-wall answers included. Equals the sum
    /// of the starts' [`OptResult::evals`].
    pub evaluations: u64,
    /// Evaluations answered `+∞` at a soft wall, without taking a lane.
    pub walls: u64,
    /// Lane batches dispatched to the likelihood kernel.
    pub batches: u64,
}

impl FitCounters {
    /// The share of dispatched lanes that carried a real evaluation:
    /// `(evaluations − walls) / (LANES · batches)`, or 1 with no batch.
    pub fn occupancy(&self) -> f64 {
        if self.batches == 0 {
            return 1.0;
        }
        (self.evaluations - self.walls) as f64 / (LANES as u64 * self.batches) as f64
    }

    fn add(&mut self, other: &FitCounters) {
        self.fits += other.fits;
        self.starts += other.starts;
        self.evaluations += other.evaluations;
        self.walls += other.walls;
        self.batches += other.batches;
    }
}

/// One lockstep group's likelihood state: the lane kernel's buffers and
/// the group's evaluation counters.
#[derive(Debug, Clone, Default)]
pub struct NlmlScratch {
    lanes: NlmlLanes,
    counters: FitCounters,
}

impl NlmlScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The evaluations, wall answers and batches this scratch has counted.
    pub fn counters(&self) -> FitCounters {
        self.counters
    }
}

/// The likelihood of one fit: the negative log marginal likelihood of
/// standardised targets `z` over a [`DistanceWorkspace`] (pairwise squared
/// differences, computed once per fit), evaluated for up to [`LANES`] θ at
/// once.
///
/// Semantics match [`nlml_naive`] (same soft walls, same jitter policy,
/// same formula) to rounding: distances are accumulated as
/// `(a_d − b_d)² · ℓ_d⁻²` and the quadratic form is `‖L⁻¹z‖²`. Within that,
/// every θ gets the same bits whichever lane it takes and whatever shares
/// its batch.
#[derive(Debug, Clone, Copy)]
pub struct Likelihood<'a> {
    problem: NlmlProblem<'a>,
    opts: &'a FitOptions,
}

impl<'a> Likelihood<'a> {
    /// The likelihood of `z` (one target per workspace observation).
    ///
    /// # Panics
    /// Panics if `z.len()` differs from the workspace's `n`, or `n` is 0.
    pub fn new(
        dist: &'a DistanceWorkspace,
        z: &'a [f64],
        family: KernelFamily,
        opts: &'a FitOptions,
    ) -> Self {
        let kind = correlation_of(family);
        let problem = NlmlProblem::new(kind, dist.planes(), dist.n(), dist.dim(), z, NLML_JITTER);
        Likelihood { problem, opts }
    }

    /// The negative log marginal likelihood at each θ of `thetas` (at most
    /// [`LANES`]) into `out[..thetas.len()]`. A θ outside the soft walls
    /// gives `+∞` without taking a lane; the rest are evaluated in one
    /// lane batch. `+∞` also marks a kernel matrix that stays unfactorable
    /// through the jitter retries. Counted in `scratch`.
    ///
    /// # Panics
    /// Panics on more than [`LANES`] θ or a short `out`.
    pub fn eval(&self, scratch: &mut NlmlScratch, thetas: &[&[f64]], out: &mut [f64]) {
        assert!(thetas.len() <= LANES, "Likelihood::eval: {} θ", thetas.len());
        assert!(out.len() >= thetas.len(), "Likelihood::eval: output too short");
        let d = self.problem.dim();
        let mut inside: [&[f64]; LANES] = [&[]; LANES];
        let mut slot = [0usize; LANES];
        let mut m = 0;
        for ((i, theta), o) in thetas.iter().enumerate().zip(out.iter_mut()) {
            debug_assert_eq!(theta.len(), d + 2);
            if theta_in_bounds(theta, d, self.opts) {
                inside[m] = theta;
                slot[m] = i;
                m += 1;
            } else {
                *o = f64::INFINITY;
            }
        }
        let counters = &mut scratch.counters;
        counters.evaluations += thetas.len() as u64;
        counters.walls += (thetas.len() - m) as u64;
        if m == 0 {
            return;
        }
        counters.batches += 1;
        let mut values = [0.0; LANES];
        scratch.lanes.eval(&self.problem, &inside[..m], &mut values);
        for (&i, &v) in slot[..m].iter().zip(&values) {
            out[i] = v;
        }
    }
}

impl LaneObjective for Likelihood<'_> {
    type Scratch = NlmlScratch;

    fn answer_eagerly(&self, scratch: &mut NlmlScratch, theta: &[f64]) -> Option<f64> {
        if theta_in_bounds(theta, self.problem.dim(), self.opts) {
            return None;
        }
        scratch.counters.evaluations += 1;
        scratch.counters.walls += 1;
        Some(f64::INFINITY)
    }

    /// Every θ here passed [`answer_eagerly`](Self::answer_eagerly)'s wall
    /// test, so the whole batch goes to the lanes without a second one.
    fn eval_lanes(&self, scratch: &mut NlmlScratch, thetas: &[&[f64]], out: &mut [f64]) {
        scratch.counters.evaluations += thetas.len() as u64;
        scratch.counters.batches += 1;
        scratch.lanes.eval(&self.problem, thetas, out);
    }
}

/// Buffers that persist *across* fits, and the work counters of the fits
/// run through them.
///
/// A BO refit loop fits once per step over an input set that grows by one
/// row each time. Carrying the scratch across calls rebuilds the distance
/// planes in place and reuses every lockstep group's result buffers and
/// lane buffers, so a refit stops allocating per group and per round once
/// the buffers reach the search's maximum footprint. Results are
/// bit-identical to the scratch-free path.
#[derive(Debug, Default)]
pub struct FitScratch {
    dist: DistanceWorkspace,
    groups: Vec<Mutex<LaneGroup<NlmlScratch>>>,
    /// Fits and starts; the per-group scratches count the rest.
    counters: FitCounters,
    /// Starts in the most recent fit.
    last_starts: usize,
}

/// A group's lock, recovered if a panic poisoned it: every fit starts the
/// group's steppers afresh and resizes its lane buffers before use, so a panic
/// mid-fit leaves nothing a later fit reads (only its counters are partial).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FitScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The work of every fit run through this scratch.
    pub fn counters(&self) -> FitCounters {
        let mut total = self.counters;
        for group in &self.groups {
            total.add(&lock(group).scratch.counters);
        }
        total
    }

    /// Every start's result in the most recent fit, in start order.
    pub fn last_fit(&self) -> Vec<OptResult> {
        let used = self.last_starts.div_ceil(LANES);
        self.groups[..used].iter().flat_map(|g| lock(g).results().to_vec()).collect()
    }
}

/// Fit kernel hyperparameters and the noise variance for the given data.
pub fn fit_hyperparams(
    xs: &[Vec<f64>],
    ys: &[f64],
    family: KernelFamily,
    opts: &FitOptions,
) -> Result<FittedHyperparams, GpError> {
    let mut scratch = FitScratch::new();
    fit_hyperparams_with_scratch(xs, ys, family, opts, &mut scratch)
}

/// The standardised targets a fit minimises over.
fn standardise(ys: &[f64]) -> Vec<f64> {
    let scaler = OutputScaler::fit(ys);
    ys.iter().map(|&y| scaler.transform(y)).collect()
}

/// A fit's start list: `n_starts` Latin-hypercube draws in the search box.
fn start_list(d: usize, opts: &FitOptions) -> Vec<Vec<f64>> {
    let mut ranges = Vec::with_capacity(d + 2);
    ranges.push(SampleRange::new(opts.log_signal_var.0, opts.log_signal_var.1));
    for _ in 0..d {
        ranges.push(SampleRange::new(opts.log_lengthscale.0, opts.log_lengthscale.1));
    }
    ranges.push(SampleRange::new(opts.log_noise_var.0, opts.log_noise_var.1));
    multi_starts(&ranges, opts.n_starts, opts.seed)
}

/// [`fit_hyperparams`] with caller-retained buffers: the distance planes
/// are rebuilt in place inside `scratch`, and its lockstep groups are
/// reused, so consecutive refits over a growing input set stop allocating
/// per group and per round. Bit-identical to [`fit_hyperparams`] for the
/// same inputs and options; counted in [`FitScratch::counters`].
///
/// # Errors
/// [`GpError::BadTrainingData`] on empty, mismatched, ragged or
/// zero-dimensional inputs, on inputs whose θ (`d + 2` coordinates) is
/// longer than the optimiser's [`MAX_DIM`], on `n_starts = 0`, and when
/// the likelihood is not finite anywhere in the search box.
pub fn fit_hyperparams_with_scratch(
    xs: &[Vec<f64>],
    ys: &[f64],
    family: KernelFamily,
    opts: &FitOptions,
    scratch: &mut FitScratch,
) -> Result<FittedHyperparams, GpError> {
    if xs.is_empty() {
        return Err(GpError::BadTrainingData("no observations".into()));
    }
    if xs.len() != ys.len() {
        return Err(GpError::BadTrainingData(format!(
            "{} inputs vs {} targets",
            xs.len(),
            ys.len()
        )));
    }
    let d = xs[0].len();
    if d == 0 {
        return Err(GpError::BadTrainingData("zero-dimensional inputs".into()));
    }
    // θ has d + 2 coordinates, and the optimiser takes at most MAX_DIM.
    if d + 2 > MAX_DIM {
        return Err(GpError::BadTrainingData(format!(
            "{d}-dimensional inputs; a fit takes at most {}",
            MAX_DIM - 2
        )));
    }
    if opts.n_starts == 0 {
        return Err(GpError::BadTrainingData("no optimiser starts (n_starts = 0)".into()));
    }
    for (i, row) in xs.iter().enumerate() {
        if row.len() != d {
            return Err(GpError::BadTrainingData(format!("ragged input at row {i}")));
        }
    }

    let z = standardise(ys);
    let starts = start_list(d, opts);
    let n_groups = starts.len().div_ceil(LANES);
    if scratch.groups.len() < n_groups {
        scratch.groups.resize_with(n_groups, Default::default);
    }
    // Size every group's lane buffers here, on the caller's thread, so the
    // fan-out below never allocates on a pool helper.
    for group in &mut scratch.groups[..n_groups] {
        let group = group.get_mut().unwrap_or_else(PoisonError::into_inner);
        group.scratch.lanes.reserve(xs.len(), d);
    }
    scratch.dist.rebuild(xs);
    let likelihood = Likelihood::new(&scratch.dist, &z, family, opts);
    let best = lockstep_nelder_mead(&likelihood, &scratch.groups, &starts, &opts.nm);
    scratch.counters.fits += 1;
    scratch.counters.starts += starts.len() as u64;
    scratch.last_starts = starts.len();

    if !best.fx.is_finite() {
        return Err(GpError::BadTrainingData(
            "marginal likelihood not finite anywhere in the search box".into(),
        ));
    }

    let sf2 = best.x[0].exp();
    let ls: Vec<f64> = best.x[1..=d].iter().map(|t| t.exp()).collect();
    let sn2 = best.x[d + 1].exp();
    Ok(FittedHyperparams {
        kernel: ArdKernel::new(family, sf2, ls),
        noise_var: sn2,
        nlml: best.fx,
        theta: best.x,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcd_linalg::{multi_start_nelder_mead, nelder_mead};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Smooth 1-D function sampled on [0,1] with tiny noise.
    fn smooth_data(n: usize, noise_sd: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> =
            xs.iter().map(|x| (x[0] * 6.0).sin() + noise_sd * rng.gen_range(-1.0..1.0)).collect();
        (xs, ys)
    }

    #[test]
    fn fits_smooth_function_with_low_noise() {
        let (xs, ys) = smooth_data(20, 0.01, 1);
        let hp = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &FitOptions::default()).unwrap();
        // One full sine period over the domain: lengthscale well under the
        // domain width, noise close to the injected level.
        assert!(hp.kernel.lengthscales()[0] < 2.0, "{hp:?}");
        assert!(hp.noise_var < 0.05, "noise overestimated: {hp:?}");
        assert!(hp.nlml.is_finite());
    }

    #[test]
    fn noisy_data_yields_larger_noise_estimate() {
        let (xs, ys_clean) = smooth_data(24, 0.01, 2);
        let (_, ys_noisy) = smooth_data(24, 0.6, 3);
        let opts = FitOptions::default();
        let clean = fit_hyperparams(&xs, &ys_clean, KernelFamily::Matern52, &opts).unwrap();
        let noisy = fit_hyperparams(&xs, &ys_noisy, KernelFamily::Matern52, &opts).unwrap();
        assert!(
            noisy.noise_var > clean.noise_var,
            "clean {} vs noisy {}",
            clean.noise_var,
            noisy.noise_var
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (xs, ys) = smooth_data(12, 0.05, 4);
        let opts = FitOptions::default();
        let a = fit_hyperparams(&xs, &ys, KernelFamily::SquaredExp, &opts).unwrap();
        let b = fit_hyperparams(&xs, &ys, KernelFamily::SquaredExp, &opts).unwrap();
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(a.noise_var, b.noise_var);
    }

    #[test]
    fn works_in_higher_dimension() {
        let mut rng = SmallRng::seed_from_u64(5);
        let xs: Vec<Vec<f64>> = (0..25).map(|_| vec![rng.gen(), rng.gen(), rng.gen()]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 + (x[1] * 3.0).cos()).collect();
        let hp = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &FitOptions::default()).unwrap();
        assert_eq!(hp.kernel.lengthscales().len(), 3);
        // x[2] is irrelevant: ARD should give it a comparatively long
        // lengthscale (weak check — just not the shortest).
        let ls = hp.kernel.lengthscales();
        assert!(ls[2] > ls[0].min(ls[1]) * 0.5, "ARD lengthscales {ls:?}");
    }

    #[test]
    fn cached_and_naive_paths_agree_on_the_optimum() {
        let (xs, ys) = smooth_data(14, 0.05, 10);
        let opts = FitOptions::default();
        let family = KernelFamily::Matern52;
        let c = fit_hyperparams(&xs, &ys, family, &opts).unwrap();
        // The same multi-start search over the reference likelihood: the
        // fit's LHC starts, seed and budget, with `nlml_naive` in place of
        // the lane evaluator.
        let z = standardise(&ys);
        let mut ranges = vec![SampleRange::new(opts.log_signal_var.0, opts.log_signal_var.1)];
        ranges.push(SampleRange::new(opts.log_lengthscale.0, opts.log_lengthscale.1));
        ranges.push(SampleRange::new(opts.log_noise_var.0, opts.log_noise_var.1));
        let n = multi_start_nelder_mead(
            |theta: &[f64]| nlml_naive(theta, &xs, &z, family, &opts),
            &ranges,
            opts.n_starts,
            opts.seed,
            &opts.nm,
        );
        // Same starts, same optimiser; the likelihood surfaces differ by
        // rounding only, but an ulp-level difference can tip a simplex
        // comparison and let the two descents take slightly different
        // final steps — agreement is therefore bounded by the optimiser's
        // own convergence tolerance (x_tol = 1e-7), not by rounding.
        for (a, b) in c.theta.iter().zip(&n.x) {
            assert!((a - b).abs() <= 1e-5, "theta {:?} vs {:?}", c.theta, n.x);
        }
        // At the shared optimum the surface is flat, so the nlml values
        // agree far more tightly than the coordinates do.
        assert!((c.nlml - n.fx).abs() <= 1e-9 * c.nlml.abs().max(1.0));
    }

    #[test]
    fn scratch_reuse_matches_fresh_fits_bitwise() {
        // Three consecutive "refits" over a growing input set through one
        // scratch — exactly the BO cadence — must agree bit for bit with
        // scratch-free fits.
        let mut scratch = FitScratch::new();
        let opts = FitOptions::default();
        for n in [6usize, 7, 8] {
            let (xs, ys) = smooth_data(n, 0.05, 11);
            let with =
                fit_hyperparams_with_scratch(&xs, &ys, KernelFamily::Matern52, &opts, &mut scratch)
                    .unwrap();
            let fresh = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &opts).unwrap();
            assert_eq!(with.theta, fresh.theta, "n = {n}");
            assert_eq!(with.nlml.to_bits(), fresh.nlml.to_bits());
            assert_eq!(with.kernel, fresh.kernel);
        }
    }

    /// One θ at a time through the lane evaluator: the scalar objective
    /// the lockstep driver must reproduce.
    fn one_lane<'a>(
        likelihood: &'a Likelihood<'a>,
        scratch: &'a mut NlmlScratch,
    ) -> impl FnMut(&[f64]) -> f64 + 'a {
        move |theta: &[f64]| {
            let mut out = [0.0];
            likelihood.eval(scratch, &[theta], &mut out);
            out[0]
        }
    }

    fn result_bits(r: &OptResult) -> (Vec<u64>, u64, usize, bool) {
        (r.x.iter().map(|v| v.to_bits()).collect(), r.fx.to_bits(), r.evals, r.converged)
    }

    #[test]
    fn lockstep_fit_matches_its_starts_run_one_by_one_and_counts_its_work() {
        let mut rng = SmallRng::seed_from_u64(12);
        let xs: Vec<Vec<f64>> =
            (0..11).map(|_| (0..5).map(|_| rng.gen::<f64>()).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 3.0 - (x[1] * 4.0).sin() + x[4]).collect();
        // Eight starts fill two lane groups; nine leave a third group with
        // one start.
        for (family, n_starts) in [(KernelFamily::Matern52, 8), (KernelFamily::SquaredExp, 9)] {
            let opts = FitOptions { n_starts, ..FitOptions::default() };
            let mut scratch = FitScratch::new();
            let fit = fit_hyperparams_with_scratch(&xs, &ys, family, &opts, &mut scratch).unwrap();

            let z = standardise(&ys);
            let starts = start_list(5, &opts);
            assert_eq!(starts.len(), n_starts);
            let dist = DistanceWorkspace::new(&xs);
            let likelihood = Likelihood::new(&dist, &z, family, &opts);
            // One scratch per start, so each start's wall answers are known.
            let mut lanes: Vec<NlmlScratch> = starts.iter().map(|_| NlmlScratch::new()).collect();
            let sequential: Vec<OptResult> = starts
                .iter()
                .zip(&mut lanes)
                .map(|(x0, lane)| nelder_mead(one_lane(&likelihood, lane), x0, &opts.nm))
                .collect();
            let got = scratch.last_fit();
            assert_eq!(got.len(), sequential.len());
            for (i, (g, w)) in got.iter().zip(&sequential).enumerate() {
                assert_eq!(result_bits(g), result_bits(w), "{family:?} start {i}");
            }
            let best = sequential.iter().min_by(|a, b| a.fx.total_cmp(&b.fx)).expect("starts");
            assert_eq!(fit.theta, best.x);
            assert_eq!(fit.nlml.to_bits(), best.fx.to_bits());

            let c = scratch.counters();
            let evals: usize = sequential.iter().map(|r| r.evals).sum();
            assert_eq!((c.fits, c.starts), (1, starts.len() as u64));
            assert_eq!(c.evaluations, evals as u64, "{c:?}");
            // The one-by-one runs counted the same evaluations and walls.
            let lone = lanes.iter().fold(FitCounters::default(), |mut acc, l| {
                acc.add(&l.counters());
                acc
            });
            assert_eq!((lone.evaluations, lone.walls), (c.evaluations, c.walls));
            assert!(c.walls > 0, "{c:?}");
            // Walls take no lane, so a group dispatches exactly as many
            // batches as its start with the most real evaluations needs: a
            // lane idles only once its start has finished.
            let real: Vec<u64> =
                lanes.iter().map(|l| l.counters().evaluations - l.counters().walls).collect();
            let batches: u64 =
                real.chunks(LANES).map(|g| g.iter().max().copied().unwrap_or(0)).sum();
            assert_eq!(c.batches, batches, "{family:?}: {c:?}");
            // Eight starts: two full groups (0.912 here). Nine: the ninth
            // start runs alone in a third group.
            let floor = if n_starts == 8 { 0.9 } else { 0.6 };
            assert!(c.occupancy() >= floor, "{family:?}: occupancy {} ({c:?})", c.occupancy());
        }
    }

    #[test]
    fn walls_take_no_lane() {
        let (xs, ys) = smooth_data(6, 0.05, 13);
        let z = standardise(&ys);
        let dist = DistanceWorkspace::new(&xs);
        let opts = FitOptions::default();
        let likelihood = Likelihood::new(&dist, &z, KernelFamily::Matern32, &opts);
        let inside = [0.3, -1.0, -4.0];
        let outside = [9.0, -1.0, -4.0];
        let mut scratch = NlmlScratch::new();
        let mut out = [0.0; 3];
        likelihood.eval(&mut scratch, &[&outside, &inside, &outside], &mut out);
        let mut lone = [0.0];
        likelihood.eval(&mut scratch, &[&inside], &mut lone);
        assert_eq!(out[0], f64::INFINITY);
        assert_eq!(out[2], f64::INFINITY);
        assert_eq!(out[1].to_bits(), lone[0].to_bits());
        assert!(lone[0].is_finite());
        let c = scratch.counters();
        assert_eq!((c.evaluations, c.walls, c.batches), (4, 2, 2));
        likelihood.eval(&mut scratch, &[&outside], &mut lone);
        assert_eq!(scratch.counters().batches, 2, "an all-wall call dispatched a batch");
        assert_eq!(likelihood.answer_eagerly(&mut scratch, &outside), Some(f64::INFINITY));
        assert_eq!(likelihood.answer_eagerly(&mut scratch, &inside), None);
    }

    #[test]
    fn rejects_bad_shapes() {
        let opts = FitOptions::default();
        assert!(fit_hyperparams(&[], &[], KernelFamily::Matern52, &opts).is_err());
        assert!(fit_hyperparams(&[vec![]], &[1.0], KernelFamily::Matern52, &opts).is_err());
        assert!(fit_hyperparams(
            &[vec![0.0], vec![1.0, 2.0]],
            &[1.0, 2.0],
            KernelFamily::Matern52,
            &opts
        )
        .is_err());
    }

    #[test]
    fn no_starts_is_an_error_not_a_panic() {
        let (xs, ys) = smooth_data(6, 0.05, 14);
        let opts = FitOptions { n_starts: 0, ..FitOptions::default() };
        let err = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &opts).unwrap_err();
        assert!(matches!(err, GpError::BadTrainingData(_)), "{err}");
    }

    #[test]
    fn inputs_past_the_optimisers_dimension_are_an_error_not_a_panic() {
        // θ has d + 2 coordinates: d = 14 is the widest fit, d = 15 one past it.
        let mut rng = SmallRng::seed_from_u64(15);
        for (d, ok) in [(MAX_DIM - 2, true), (MAX_DIM - 1, false)] {
            let xs: Vec<Vec<f64>> =
                (0..6).map(|_| (0..d).map(|_| rng.gen::<f64>()).collect()).collect();
            let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum()).collect();
            let opts = FitOptions { n_starts: 1, ..FitOptions::default() };
            let fit = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &opts);
            match fit {
                Ok(hp) => assert!(ok && hp.theta.len() == MAX_DIM, "d = {d}"),
                Err(e) => assert!(!ok && matches!(e, GpError::BadTrainingData(_)), "d = {d}: {e}"),
            }
        }
    }

    #[test]
    fn single_observation_is_fittable() {
        // Degenerate but must not crash: BO starts from very few points.
        let hp =
            fit_hyperparams(&[vec![0.5]], &[3.0], KernelFamily::Matern52, &FitOptions::default())
                .unwrap();
        assert!(hp.noise_var.is_finite());
    }
}
