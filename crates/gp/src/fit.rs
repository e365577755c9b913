//! Marginal-likelihood hyperparameter fitting.
//!
//! Hyperparameters θ = (log σ_f², log ℓ₁…log ℓ_d, log σ_n²) are fitted by
//! minimising the negative log marginal likelihood of the *standardised*
//! targets with multi-start Nelder–Mead (starts drawn by Latin hypercube,
//! local searches run in parallel by `mlcd-linalg` on the process-wide
//! `rayon` helper pool). A fit spawns no thread, so refitting at every
//! search step costs only the wake-up of parked helpers.
//!
//! Working in log-space keeps every parameter positive without constrained
//! optimisation; the search ranges below assume inputs roughly in the unit
//! cube and standardised targets, which [`crate::scale`] provides.
//!
//! Every evaluation goes through [`CachedNlml`], which allocates nothing
//! once warm (`tests/zero_alloc_nlml.rs` pins this). Its `exp` calls, the
//! kernel fill's correlation pass, the factorisation and the forward solve
//! run on `mlcd_linalg::fastpath`: AVX2 code with an inlined `exp` where
//! the CPU supports it, and bit-identical to the baseline compilation, so
//! the fitted θ does not depend on which one runs. [`nlml_naive`] is the
//! reference the property tests hold it to.

// lint: allow(hot-index, file) — the θ vector layout [log σ_f², log ℓ₁…ℓ_d, log σ_n²] has
// fixed length d+2, established by the SampleRange construction and debug-asserted at every
// evaluator entry; indexing follows that contract on the likelihood hot path.

use crate::kernel::{ArdKernel, KernelFamily};
use crate::model::GpError;
use crate::scale::OutputScaler;
use crate::workspace::DistanceWorkspace;
use mlcd_linalg::fastpath::exp_into;
use mlcd_linalg::{
    multi_start_nelder_mead_with, Chol, CholWorkspace, Mat, NelderMeadOptions, SampleRange,
};

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
    /// Optional warm start appended to the restarts: the log-space θ of a
    /// previous fit (length d+2). Invalid values (wrong length or
    /// non-finite) are ignored. The Latin-hypercube draw is unaffected,
    /// so adding a warm start can only improve the optimum.
    pub warm_start: Option<Vec<f64>>,
    /// Observation count at which a warm-started fit stops paying for the
    /// full `n_starts` restarts: with `n ≥ warm_burnin` observations and a
    /// valid warm start, only `warm_restarts` LHC starts run (plus the
    /// warm start itself).
    pub warm_burnin: usize,
    /// LHC restarts used once warm-started past the burn-in.
    pub warm_restarts: usize,
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
            warm_start: None,
            warm_burnin: 8,
            warm_restarts: 3,
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
    /// The optimum in log space, `[log σ_f², log ℓ₁…log ℓ_d, log σ_n²]` —
    /// feed it to [`FitOptions::warm_start`] to warm-start the next refit.
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
/// [`CachedNlml`] is the fast path; this function is kept public as the
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

/// Workspace-backed likelihood evaluator: the fit fast path.
///
/// Borrows a [`DistanceWorkspace`] (pairwise squared differences, computed
/// once per fit) and owns every scratch buffer an evaluation needs — the
/// kernel matrix, the r² accumulator, the Cholesky workspace and the solve
/// vector — so after the first call an evaluation performs no heap
/// allocation at all. Semantics match [`nlml_naive`] (same soft walls,
/// same jitter policy, same formula) to rounding; see
/// [`DistanceWorkspace::fill_kernel`] for why not bitwise.
pub struct CachedNlml<'w> {
    dist: &'w DistanceWorkspace,
    /// `exp(θ)`: `[σ_f², ℓ₁…ℓ_d, σ_n²]`.
    exp_theta: Vec<f64>,
    r2: Vec<f64>,
    k: Mat,
    alpha: Vec<f64>,
    chol: CholWorkspace,
}

impl<'w> CachedNlml<'w> {
    /// A fresh evaluator over `dist`; buffers grow on first use.
    pub fn new(dist: &'w DistanceWorkspace) -> Self {
        CachedNlml {
            dist,
            exp_theta: Vec::new(),
            r2: Vec::new(),
            k: Mat::zeros(0, 0),
            alpha: Vec::new(),
            chol: CholWorkspace::new(),
        }
    }

    /// Negative log marginal likelihood at `theta` for standardised
    /// targets `z` (`z.len()` must equal the workspace's `n`).
    pub fn eval(
        &mut self,
        theta: &[f64],
        z: &[f64],
        family: KernelFamily,
        opts: &FitOptions,
    ) -> f64 {
        let d = self.dist.dim();
        let n = self.dist.n();
        debug_assert_eq!(theta.len(), d + 2);
        debug_assert_eq!(z.len(), n);
        if !theta_in_bounds(theta, d, opts) {
            return f64::INFINITY;
        }

        // The same bits as `theta[i].exp()`, one call for all d+2.
        self.exp_theta.resize(theta.len(), 0.0);
        exp_into(theta, &mut self.exp_theta);
        let (sf2, sn2) = (self.exp_theta[0], self.exp_theta[d + 1]);

        // Only K's lower triangle is maintained (stale upper entries from
        // the previous evaluation are never read): the factorisation
        // consumes the lower triangle alone. The upfront finiteness scan
        // is skipped too — θ passed the walls so entries are finite for
        // any sane input, and a non-finite entry (conceivable only for
        // astronomically large xs) still fails factorisation through the
        // pivot checks, landing on the same +inf wall the naive path hits.
        let ls = &self.exp_theta[1..=d];
        self.dist.fill_kernel_lower(family, sf2, ls, &mut self.r2, &mut self.k);
        self.k.add_diag(sn2);
        if self
            .chol
            .factor_with_jitter_assume_finite(&self.k, NLML_JITTER.0, NLML_JITTER.1)
            .is_err()
        {
            return f64::INFINITY;
        }
        self.alpha.clear();
        self.alpha.extend_from_slice(z);
        // `zᵀK⁻¹z` as the squared norm of the forward solve: half the
        // substitution work of the naive path's solve-then-dot, equal to
        // it up to rounding.
        let quad = self.chol.quad_form_in_place(&mut self.alpha);
        0.5 * quad + 0.5 * self.chol.log_det() + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }
}

/// Buffers that persist *across* fits.
///
/// [`fit_hyperparams`] builds a fresh [`DistanceWorkspace`] per call; a
/// warm-started BO refit loop calls it once per step over an input set
/// that grows by one row each time, so carrying the workspace across
/// calls (and rebuilding it in place) makes the per-refit distance-plane
/// setup allocation-free once the buffer has reached the search's
/// maximum footprint. Results are bit-identical to the scratch-free path
/// — [`DistanceWorkspace::rebuild`] produces the exact planes
/// [`DistanceWorkspace::new`] would.
#[derive(Debug, Clone, Default)]
pub struct FitScratch {
    dist: DistanceWorkspace,
}

impl FitScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
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

/// [`fit_hyperparams`] with caller-retained buffers: the cached-NLML
/// distance planes are rebuilt in place inside `scratch` instead of
/// freshly allocated, so consecutive refits over a growing input set stop
/// allocating once the planes reach their maximum size. Bit-identical to
/// [`fit_hyperparams`] for the same inputs and options.
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
    for (i, row) in xs.iter().enumerate() {
        if row.len() != d {
            return Err(GpError::BadTrainingData(format!("ragged input at row {i}")));
        }
    }

    let scaler = OutputScaler::fit(ys);
    let z: Vec<f64> = ys.iter().map(|&y| scaler.transform(y)).collect();

    let mut ranges = Vec::with_capacity(d + 2);
    ranges.push(SampleRange::new(opts.log_signal_var.0, opts.log_signal_var.1));
    for _ in 0..d {
        ranges.push(SampleRange::new(opts.log_lengthscale.0, opts.log_lengthscale.1));
    }
    ranges.push(SampleRange::new(opts.log_noise_var.0, opts.log_noise_var.1));

    // Warm-start policy: a valid previous optimum always joins the start
    // list; once enough observations are in (burn-in passed), it also
    // replaces most of the LHC restarts — the surface changes little
    // between consecutive refits, so the carried-over optimum plus a few
    // fresh starts explore enough.
    let warm: Option<&[f64]> =
        opts.warm_start.as_deref().filter(|w| w.len() == d + 2 && w.iter().all(|v| v.is_finite()));
    let n_lhc = match warm {
        Some(_) if xs.len() >= opts.warm_burnin => opts.warm_restarts,
        _ => opts.n_starts,
    };
    let extra: Vec<Vec<f64>> = warm.map(|w| w.to_vec()).into_iter().collect();

    scratch.dist.rebuild(xs);
    let dist = &scratch.dist;
    let z = &z;
    let best = multi_start_nelder_mead_with(
        || {
            let mut cache = CachedNlml::new(dist);
            move |theta: &[f64]| cache.eval(theta, z, family, opts)
        },
        &ranges,
        n_lhc,
        &extra,
        opts.seed,
        &opts.nm,
    );

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
    fn warm_start_never_worse_and_deterministic() {
        let (xs, ys) = smooth_data(16, 0.05, 6);
        let cold_opts = FitOptions::default();
        let cold = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &cold_opts).unwrap();
        // Past the burn-in the warm fit runs only warm_restarts LHC starts
        // plus the carried-over optimum; Nelder–Mead from that optimum can
        // only go downhill, so the refit is never worse than the cold one.
        let warm_opts =
            FitOptions { warm_start: Some(cold.theta.clone()), ..FitOptions::default() };
        let warm = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &warm_opts).unwrap();
        assert!(warm.nlml <= cold.nlml + 1e-9, "warm {} vs cold {}", warm.nlml, cold.nlml);
        let warm2 = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &warm_opts).unwrap();
        assert_eq!(warm.theta, warm2.theta);
        assert_eq!(warm.nlml, warm2.nlml);
    }

    #[test]
    fn invalid_warm_start_is_ignored() {
        let (xs, ys) = smooth_data(10, 0.05, 8);
        let cold = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &FitOptions::default());
        for bad in [vec![0.0; 2], vec![f64::NAN, 0.0, 0.0], vec![]] {
            let opts = FitOptions { warm_start: Some(bad), ..FitOptions::default() };
            let got = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &opts).unwrap();
            // A rejected warm start leaves the start list and the restart
            // count untouched, so the fit is bit-identical to a cold one.
            assert_eq!(got.theta, cold.as_ref().unwrap().theta);
        }
    }

    #[test]
    fn burnin_gates_the_restart_shrink() {
        // Below the burn-in a warm start is appended but the full restart
        // budget still runs, so the result can only improve on cold; at or
        // past the burn-in only warm_restarts LHC starts run. Both paths
        // must stay deterministic and finite.
        let (xs, ys) = smooth_data(6, 0.05, 9);
        let cold =
            fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &FitOptions::default()).unwrap();
        let below = FitOptions {
            warm_start: Some(cold.theta.clone()),
            warm_burnin: 100, // n=6 < 100: full budget
            ..FitOptions::default()
        };
        let past = FitOptions {
            warm_start: Some(cold.theta.clone()),
            warm_burnin: 2, // n=6 ≥ 2: shrunk budget
            ..FitOptions::default()
        };
        let a = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &below).unwrap();
        let b = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &past).unwrap();
        assert!(a.nlml <= cold.nlml + 1e-9);
        assert!(b.nlml <= cold.nlml + 1e-9);
        assert!(a.nlml.is_finite() && b.nlml.is_finite());
    }

    #[test]
    fn cached_and_naive_paths_agree_on_the_optimum() {
        let (xs, ys) = smooth_data(14, 0.05, 10);
        let opts = FitOptions::default();
        let family = KernelFamily::Matern52;
        let c = fit_hyperparams(&xs, &ys, family, &opts).unwrap();
        // The same multi-start search over the reference likelihood: the
        // fit's LHC starts, seed and budget, with `nlml_naive` in place of
        // `CachedNlml`.
        let scaler = OutputScaler::fit(&ys);
        let z: Vec<f64> = ys.iter().map(|&y| scaler.transform(y)).collect();
        let mut ranges = vec![SampleRange::new(opts.log_signal_var.0, opts.log_signal_var.1)];
        ranges.push(SampleRange::new(opts.log_lengthscale.0, opts.log_lengthscale.1));
        ranges.push(SampleRange::new(opts.log_noise_var.0, opts.log_noise_var.1));
        let n = multi_start_nelder_mead_with(
            || |theta: &[f64]| nlml_naive(theta, &xs, &z, family, &opts),
            &ranges,
            opts.n_starts,
            &[],
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
        // scratch — exactly the warm-started BO cadence — must agree bit
        // for bit with scratch-free fits.
        let mut scratch = FitScratch::new();
        let mut warm: Option<Vec<f64>> = None;
        for n in [6usize, 7, 8] {
            let (xs, ys) = smooth_data(n, 0.05, 11);
            let opts = FitOptions { warm_start: warm.clone(), ..FitOptions::default() };
            let with =
                fit_hyperparams_with_scratch(&xs, &ys, KernelFamily::Matern52, &opts, &mut scratch)
                    .unwrap();
            let fresh = fit_hyperparams(&xs, &ys, KernelFamily::Matern52, &opts).unwrap();
            assert_eq!(with.theta, fresh.theta, "n = {n}");
            assert_eq!(with.nlml.to_bits(), fresh.nlml.to_bits());
            assert_eq!(with.kernel, fresh.kernel);
            warm = Some(with.theta);
        }
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
    fn single_observation_is_fittable() {
        // Degenerate but must not crash: BO starts from very few points.
        let hp =
            fit_hyperparams(&[vec![0.5]], &[3.0], KernelFamily::Matern52, &FitOptions::default())
                .unwrap();
        assert!(hp.noise_var.is_finite());
    }
}
