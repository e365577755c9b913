#![warn(missing_docs)]

//! Dense linear algebra, statistics and derivative-free optimisation
//! primitives for the MLCD / HeterBO reproduction.
//!
//! The Gaussian-process machinery in `mlcd-gp` needs a small but solid
//! numerical core: a dense matrix type, a Cholesky factorisation robust to
//! near-singular kernel matrices, triangular solves, log-determinants, a
//! Nelder–Mead simplex optimiser for marginal-likelihood maximisation, and
//! accurate standard-normal pdf/cdf for Expected-Improvement tails.
//!
//! Everything here is implemented from scratch (the reproduction brief rules
//! out external linear-algebra / BO crates). The matrices involved are at
//! most a few hundred rows (one per profiling observation), so there are no
//! cache-blocked BLAS-style kernels: hot loops are plain slice loops (4-way
//! unrolled where that saves passes over memory) that the compiler
//! vectorises without reordering any floating-point operation. The three
//! kernels of a GP likelihood evaluation — the kernel fill's `exp` pass, the
//! Cholesky factorisation and the forward solve — also have AVX2
//! compilations and a bit-exact inlined `exp`, chosen once per process in
//! [`fastpath`]; their results are bit-identical to the baseline ones. So do
//! the passes that score a BO step's candidates: the posterior's `K*` fill
//! and per-query solve, and Φ and φ over a batch ([`NormalBatch`]).
//!
//! # Quick example
//!
//! ```
//! use mlcd_linalg::{Mat, Chol};
//!
//! // Solve the SPD system A x = b via Cholesky.
//! let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = Chol::factor(&a).unwrap();
//! let x = chol.solve(&[1.0, 2.0]);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! ```

pub mod chol;
pub mod fastpath;
pub mod mat;
pub mod optimize;
pub mod sampling;
pub mod stats;

pub use chol::{Chol, CholError};
pub use mat::Mat;
pub use optimize::{
    lockstep_nelder_mead, multi_start_nelder_mead, multi_starts, nelder_mead, LaneGroup,
    LaneObjective, NelderMead, NelderMeadOptions, OptResult, LANES, MAX_DIM,
};
pub use sampling::{latin_hypercube, SampleRange};
pub use stats::{
    bits_eq, is_exact_zero, norm_cdf, norm_pdf, norm_quantile, NormalBatch, OnlineStats, Summary,
};

/// Numerical tolerance used across the crate for "this should be zero"
/// comparisons in tests and assertions.
pub const EPS: f64 = 1e-10;

/// Dot product of two equal-length slices.
///
/// Panics in debug builds if the lengths differ; in release the shorter
/// length governs (as with `zip`), which is never what you want — callers
/// must pass equal lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `a - b`, element-wise, as a new vector.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// `a + s * b`, element-wise, as a new vector (axpy).
#[inline]
pub fn axpy(a: &[f64], s: f64, b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "axpy: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + s * y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < EPS);
    }

    #[test]
    fn sub_axpy() {
        assert_eq!(sub(&[3.0, 5.0], &[1.0, 2.0]), vec![2.0, 3.0]);
        assert_eq!(axpy(&[1.0, 1.0], 2.0, &[3.0, 4.0]), vec![7.0, 9.0]);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
        assert!(sub(&[], &[]).is_empty());
    }
}
