//! Derivative-free optimisation: Nelder–Mead simplex with restarts.
//!
//! The GP marginal likelihood is cheap (one Cholesky per evaluation, on a
//! matrix with one row per profiling observation) but non-convex in the
//! kernel hyperparameters, so we run Nelder–Mead from several Latin-
//! hypercube starts in parallel and keep the best optimum.

use crate::sampling::{latin_hypercube, SampleRange};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Tunables for one Nelder–Mead run. The defaults follow the classic
/// (1, 2, 0.5, 0.5) reflection/expansion/contraction/shrink coefficients.
#[derive(Debug, Clone, Copy)]
pub struct NelderMeadOptions {
    /// Maximum number of function evaluations.
    pub max_evals: usize,
    /// Converged when the simplex's function-value spread falls below this.
    pub f_tol: f64,
    /// Converged when the simplex's largest vertex-to-best distance falls
    /// below this.
    pub x_tol: f64,
    /// Initial simplex edge length, relative to each coordinate's magnitude
    /// (absolute when the coordinate is zero).
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions { max_evals: 400, f_tol: 1e-10, x_tol: 1e-7, initial_step: 0.1 }
    }
}

/// Result of an optimisation run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
    /// Whether a tolerance-based convergence test fired (as opposed to
    /// running out of evaluations).
    pub converged: bool,
}

/// Minimise `f` starting from `x0` with the Nelder–Mead simplex method.
///
/// Objective values that are NaN are treated as `+inf`, so the simplex
/// retreats from invalid regions (e.g. hyperparameters that make a kernel
/// matrix unfactorable) instead of corrupting the ordering.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> OptResult {
    let n = x0.len();
    assert!(n > 0, "nelder_mead: empty start point");
    let clean = |v: f64| if v.is_nan() { f64::INFINITY } else { v };

    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| {
        *evals += 1;
        clean(f(x))
    };

    // Initial simplex: x0 plus a bump along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), f0));
    for i in 0..n {
        let mut xi = x0.to_vec();
        let step = if crate::is_exact_zero(xi[i]) {
            opts.initial_step
        } else {
            opts.initial_step * xi[i].abs()
        };
        xi[i] += step;
        let fi = eval(&xi, &mut evals);
        simplex.push((xi, fi));
    }

    // The iteration loop is allocation-free: every trial point is built
    // into one of these reusable buffers with the exact element-wise
    // arithmetic the old `axpy(.., sub(..))` chain performed
    // (`c[i] + s·(a[i] − b[i])`, ascending i), so trajectories are
    // bit-identical to the allocating implementation. The GP fit calls
    // this tens of thousands of times per search; the per-iteration
    // `Vec` churn was measurable against the microsecond objective.
    let mut centroid = vec![0.0; n];
    let mut reflect = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut pivot = vec![0.0; n];

    let mut converged = false;
    while evals < opts.max_evals {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (best_f, worst_f) = (simplex[0].1, simplex[n].1);
        let spread = (worst_f - best_f).abs();
        let max_dist = simplex[1..]
            .iter()
            .map(|(x, _)| {
                x.iter().zip(&simplex[0].0).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
            })
            .fold(0.0_f64, f64::max);
        // Both criteria must hold: a symmetric simplex (two vertices
        // straddling the optimum with equal values) has zero f-spread but
        // has not collapsed yet.
        if best_f.is_finite() && spread < opts.f_tol && max_dist < opts.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex.
        centroid.fill(0.0);
        for (x, _) in &simplex[..n] {
            for (c, &v) in centroid.iter_mut().zip(x) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= n as f64;
        }

        pivot.copy_from_slice(&simplex[n].0);
        for i in 0..n {
            reflect[i] = centroid[i] + 1.0 * (centroid[i] - pivot[i]);
        }
        let f_r = eval(&reflect, &mut evals);

        if f_r < simplex[0].1 {
            // Try expanding further along the reflection direction.
            for i in 0..n {
                trial[i] = centroid[i] + 2.0 * (centroid[i] - pivot[i]);
            }
            let f_e = eval(&trial, &mut evals);
            if f_e < f_r {
                simplex[n].0.copy_from_slice(&trial);
                simplex[n].1 = f_e;
            } else {
                simplex[n].0.copy_from_slice(&reflect);
                simplex[n].1 = f_r;
            }
        } else if f_r < simplex[n - 1].1 {
            simplex[n].0.copy_from_slice(&reflect);
            simplex[n].1 = f_r;
        } else {
            // Contract toward the centroid, outside or inside.
            if f_r < simplex[n].1 {
                for i in 0..n {
                    trial[i] = centroid[i] + 0.5 * (reflect[i] - centroid[i]);
                }
            } else {
                for i in 0..n {
                    trial[i] = centroid[i] + 0.5 * (pivot[i] - centroid[i]);
                }
            }
            let f_c = eval(&trial, &mut evals);
            if f_c < simplex[n].1.min(f_r) {
                simplex[n].0.copy_from_slice(&trial);
                simplex[n].1 = f_c;
            } else {
                // Shrink everything toward the best vertex.
                pivot.copy_from_slice(&simplex[0].0);
                for v in simplex.iter_mut().skip(1) {
                    for (s, &b) in v.0.iter_mut().zip(&pivot) {
                        *s = b + 0.5 * (*s - b);
                    }
                    v.1 = eval(&v.0, &mut evals);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (x, fx) = simplex.swap_remove(0);
    OptResult { x, fx, evals, converged }
}

/// Minimise `f` from `n_starts` Latin-hypercube starting points within
/// `ranges`, running the local searches in parallel and returning the best.
///
/// Deterministic for a fixed `seed`.
pub fn multi_start_nelder_mead(
    f: impl Fn(&[f64]) -> f64 + Sync,
    ranges: &[SampleRange],
    n_starts: usize,
    seed: u64,
    opts: &NelderMeadOptions,
) -> OptResult {
    assert!(n_starts > 0, "multi_start_nelder_mead: need at least one start");
    multi_start_nelder_mead_with(|| |x: &[f64]| f(x), ranges, n_starts, &[], seed, opts)
}

/// Generalised multi-start: `make_f` builds a fresh (possibly stateful)
/// objective per local search — the shape a workspace-backed evaluator
/// with scratch buffers needs — and `extra_starts` are appended after the
/// `n_starts` Latin-hypercube points (e.g. a warm start carried over from
/// a previous fit).
///
/// The LHC draw depends only on `ranges`, `n_starts` and `seed`, so
/// appending extra starts never perturbs it. Results are reduced in start
/// order (ties resolved by position, independent of thread scheduling),
/// so the outcome is deterministic for a fixed `seed`.
pub fn multi_start_nelder_mead_with<G, F>(
    make_f: G,
    ranges: &[SampleRange],
    n_starts: usize,
    extra_starts: &[Vec<f64>],
    seed: u64,
    opts: &NelderMeadOptions,
) -> OptResult
where
    G: Fn() -> F + Sync,
    F: FnMut(&[f64]) -> f64,
{
    assert!(
        n_starts + extra_starts.len() > 0,
        "multi_start_nelder_mead_with: need at least one start"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut starts = latin_hypercube(ranges, n_starts, &mut rng);
    starts.extend(extra_starts.iter().cloned());
    starts
        .par_iter()
        .map(|x0| nelder_mead(make_f(), x0, opts))
        .min_by(|a, b| a.fx.total_cmp(&b.fx))
        .expect("at least one start")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let r = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default());
        assert!(r.converged, "should converge: {r:?}");
        assert!((r.x[0] - 3.0).abs() < 1e-4, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 1.0).abs() < 1e-4, "x1 = {}", r.x[1]);
        assert!(r.fx < 1e-7);
    }

    #[test]
    fn rosenbrock_2d() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = NelderMeadOptions { max_evals: 4000, ..Default::default() };
        let r = nelder_mead(f, &[-1.2, 1.0], &opts);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{r:?}");
        assert!((r.x[1] - 1.0).abs() < 1e-3, "{r:?}");
    }

    #[test]
    fn one_dimensional() {
        let f = |x: &[f64]| (x[0] - 0.5).powi(2) + 7.0;
        let r = nelder_mead(f, &[10.0], &NelderMeadOptions::default());
        assert!((r.x[0] - 0.5).abs() < 1e-4);
        assert!((r.fx - 7.0).abs() < 1e-8);
    }

    #[test]
    fn respects_eval_budget() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let opts =
            NelderMeadOptions { max_evals: 30, f_tol: 0.0, x_tol: 0.0, ..Default::default() };
        let r = nelder_mead(f, &[5.0, 5.0, 5.0, 5.0], &opts);
        // A full iteration can add a handful of evals past the check.
        assert!(r.evals <= 40, "evals = {}", r.evals);
        assert!(!r.converged);
    }

    #[test]
    fn nan_objective_is_retreated_from() {
        // NaN in the half-plane x > 1: optimum at x = 1 boundary region.
        let f = |x: &[f64]| {
            if x[0] > 1.0 {
                f64::NAN
            } else {
                (x[0] - 0.9).powi(2)
            }
        };
        let r = nelder_mead(f, &[0.0], &NelderMeadOptions::default());
        assert!(r.fx.is_finite());
        assert!((r.x[0] - 0.9).abs() < 1e-3, "{r:?}");
    }

    #[test]
    fn multi_start_escapes_local_minimum() {
        // Double well: local min near x=2 (f=0.5), global near x=-2 (f=0).
        let f = |x: &[f64]| {
            let a = (x[0] - 2.0).powi(2) + 0.5;
            let b = (x[0] + 2.0).powi(2);
            a.min(b)
        };
        let ranges = [SampleRange { lo: -5.0, hi: 5.0 }];
        let r = multi_start_nelder_mead(f, &ranges, 8, 42, &NelderMeadOptions::default());
        assert!((r.x[0] + 2.0).abs() < 1e-3, "{r:?}");
        assert!(r.fx < 1e-6);
    }

    #[test]
    fn multi_start_deterministic_for_seed() {
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2);
        let ranges = [SampleRange { lo: -3.0, hi: 3.0 }, SampleRange { lo: -3.0, hi: 3.0 }];
        let a = multi_start_nelder_mead(f, &ranges, 4, 7, &NelderMeadOptions::default());
        let b = multi_start_nelder_mead(f, &ranges, 4, 7, &NelderMeadOptions::default());
        assert_eq!(a.x, b.x);
        assert_eq!(a.fx, b.fx);
    }

    #[test]
    fn stateful_objective_is_accepted() {
        // FnMut objectives (e.g. workspace-backed evaluators) must work;
        // the eval count seen by the closure matches the reported one.
        let mut calls = 0usize;
        let r = nelder_mead(
            |x: &[f64]| {
                calls += 1;
                (x[0] - 2.0).powi(2)
            },
            &[0.0],
            &NelderMeadOptions::default(),
        );
        assert_eq!(calls, r.evals);
        assert!((r.x[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn factory_multi_start_matches_plain() {
        // The generalised entry point with no extra starts is the same
        // search as the original API — identical LHC draw, identical result.
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2);
        let ranges = [SampleRange { lo: -3.0, hi: 3.0 }, SampleRange { lo: -3.0, hi: 3.0 }];
        let opts = NelderMeadOptions::default();
        let a = multi_start_nelder_mead(f, &ranges, 4, 7, &opts);
        let b = multi_start_nelder_mead_with(|| f, &ranges, 4, &[], 7, &opts);
        assert_eq!(a.x, b.x);
        assert_eq!(a.fx, b.fx);
    }

    #[test]
    fn extra_start_can_win() {
        // Narrow global well at x=-4 that LHC starts from [0, 5] cannot
        // reach; a warm start placed inside it must be kept.
        let f = |x: &[f64]| {
            let wide = (x[0] - 3.0).powi(2) + 1.0;
            let well = 50.0 * (x[0] + 4.0).powi(2);
            wide.min(well)
        };
        let ranges = [SampleRange { lo: 0.0, hi: 5.0 }];
        let opts = NelderMeadOptions::default();
        let cold = multi_start_nelder_mead_with(|| f, &ranges, 4, &[], 11, &opts);
        assert!((cold.x[0] - 3.0).abs() < 1e-3, "{cold:?}");
        let warm = multi_start_nelder_mead_with(|| f, &ranges, 4, &[vec![-4.0]], 11, &opts);
        assert!((warm.x[0] + 4.0).abs() < 1e-3, "{warm:?}");
        assert!(warm.fx < 1e-6);
    }

    #[test]
    fn extra_starts_alone_suffice() {
        // n_starts = 0 with a seeded start point is a valid configuration.
        let f = |x: &[f64]| (x[0] - 0.25).powi(2);
        let r = multi_start_nelder_mead_with(
            || f,
            &[SampleRange { lo: 0.0, hi: 1.0 }],
            0,
            &[vec![0.9]],
            3,
            &NelderMeadOptions::default(),
        );
        assert!((r.x[0] - 0.25).abs() < 1e-4);
    }

    #[test]
    fn zero_start_coordinate_gets_absolute_step() {
        // Regression: a zero coordinate must still perturb the simplex.
        let f = |x: &[f64]| (x[0] - 0.05).powi(2);
        let r = nelder_mead(f, &[0.0], &NelderMeadOptions::default());
        assert!((r.x[0] - 0.05).abs() < 1e-5);
    }
}
