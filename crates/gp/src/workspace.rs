//! Per-fit distance workspace: the data-dependent part of a stationary
//! kernel matrix, computed once per fit instead of once per likelihood
//! evaluation.
//!
//! Every ARD kernel in [`crate::kernel`] is a function of the scaled
//! distance `r² = Σ_d (a_d − b_d)² / ℓ_d²`. During hyperparameter fitting
//! the inputs are fixed while θ varies, so the pairwise squared
//! differences `(a_d − b_d)²` can be cached per dimension; each likelihood
//! evaluation then assembles K with one multiply-add per (pair, dimension)
//! plus one correlation evaluation per pair, instead of O(n²·d) full
//! `kernel.eval` calls over both triangles.
//!
//! The correlations are computed in one pass over the whole pair vector by
//! [`mlcd_linalg::fastpath::correlate`] and then copied into K's columns.
//! Where the CPU supports it that pass is AVX2 code with an inlined `exp`
//! that returns libm's bits, so K is the same either way.

// lint: allow(hot-index, file) — plane assembly and kernel fill index by loop variables
// bounded by the workspace's (n, dim, np) which are validated on rebuild; the blocked
// accumulation loops rely on slice indexing for bounds-check elision.

use crate::kernel::KernelFamily;
use mlcd_linalg::fastpath::{correlate, Correlation};
use mlcd_linalg::Mat;

/// The `mlcd-linalg` correlation kernel that evaluates `family`.
fn correlation_of(family: KernelFamily) -> Correlation {
    match family {
        KernelFamily::SquaredExp => Correlation::SquaredExp,
        KernelFamily::Matern32 => Correlation::Matern32,
        KernelFamily::Matern52 => Correlation::Matern52,
    }
}

/// Cached per-dimension pairwise squared differences for a fixed input
/// set.
///
/// Layout: dimension-major, strict lower triangle in column order — entry
/// `d * n(n−1)/2 + p` holds `(xs[i][d] − xs[j][d])²` where `p` runs over
/// the pairs `(i, j)` with `j = 0..n`, `i = j+1..n`. That pair order makes
/// [`fill_kernel`](Self::fill_kernel)'s writes into each column of K
/// contiguous.
#[derive(Debug, Clone, Default)]
pub struct DistanceWorkspace {
    n: usize,
    dim: usize,
    sq: Vec<f64>,
}

impl DistanceWorkspace {
    /// Precompute the pairwise squared differences for `xs` (one row per
    /// observation, all rows the same length).
    ///
    /// # Panics
    /// Panics on ragged or zero-dimensional input.
    pub fn new(xs: &[Vec<f64>]) -> Self {
        let mut ws = DistanceWorkspace { n: 0, dim: 0, sq: Vec::new() };
        ws.rebuild(xs);
        ws
    }

    /// Recompute the pairwise squared differences for a new input set in
    /// place, reusing the plane buffer whenever the new `dim · n(n−1)/2`
    /// footprint fits its capacity. A warm-started refit loop grows `xs`
    /// by one observation per BO step; rebuilding in place keeps the
    /// per-refit workspace setup allocation-free once the buffer has
    /// reached the search's maximum size. Entry values are identical to a
    /// fresh [`new`](Self::new) (same subtraction, same order).
    ///
    /// # Panics
    /// Panics on ragged or zero-dimensional input.
    pub fn rebuild(&mut self, xs: &[Vec<f64>]) {
        let n = xs.len();
        let dim = xs.first().map_or(0, |r| r.len());
        assert!(n == 0 || dim > 0, "DistanceWorkspace: zero-dimensional inputs");
        assert!(xs.iter().all(|r| r.len() == dim), "DistanceWorkspace: ragged input rows");
        let np = if n < 2 { 0 } else { n * (n - 1) / 2 };
        self.sq.clear();
        self.sq.reserve(dim * np);
        for d in 0..dim {
            for j in 0..n {
                let xj = xs[j][d];
                for row in &xs[j + 1..] {
                    let diff = row[d] - xj;
                    self.sq.push(diff * diff);
                }
            }
        }
        self.n = n;
        self.dim = dim;
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Assemble the kernel matrix `K_ij = sf2 · ρ(r_ij)` for the given
    /// hyperparameters into `k`, resizing `k` and the `r2` scratch buffer
    /// as needed (allocation-free once warm).
    ///
    /// The diagonal is exactly `sf2` (as `ArdKernel::diag` returns) and
    /// both triangles are written, so `k` is exactly symmetric — no
    /// `symmetrize` pass is needed. Distances are accumulated as
    /// `(a_d − b_d)² · ℓ_d⁻²`, which matches the naive
    /// `((a_d − b_d)/ℓ_d)²` only to rounding; callers compare results
    /// against the entry-by-entry path with a tolerance, not bitwise.
    pub fn fill_kernel(
        &self,
        family: KernelFamily,
        sf2: f64,
        lengthscales: &[f64],
        r2: &mut Vec<f64>,
        k: &mut Mat,
    ) {
        self.fill(family, sf2, lengthscales, r2, k, true);
    }

    /// Like [`fill_kernel`](Self::fill_kernel) but writes only the lower
    /// triangle and the diagonal, leaving the strict upper triangle
    /// untouched (stale). This is all a Cholesky factorisation reads, so
    /// the likelihood hot loop skips the mirror pass.
    pub fn fill_kernel_lower(
        &self,
        family: KernelFamily,
        sf2: f64,
        lengthscales: &[f64],
        r2: &mut Vec<f64>,
        k: &mut Mat,
    ) {
        self.fill(family, sf2, lengthscales, r2, k, false);
    }

    fn fill(
        &self,
        family: KernelFamily,
        sf2: f64,
        lengthscales: &[f64],
        r2: &mut Vec<f64>,
        k: &mut Mat,
        mirror: bool,
    ) {
        let (n, dim) = (self.n, self.dim);
        assert_eq!(lengthscales.len(), dim, "fill_kernel: lengthscale count mismatch");
        let np = self.sq.len() / dim.max(1);
        // `r2` holds the squared distances in its first half and their
        // kernel entries in its second.
        r2.clear();
        r2.resize(2 * np, 0.0);
        let (acc, entries) = r2.split_at_mut(np);
        // Accumulate the scaled distances four dimension planes per pass
        // over `acc`. Each element still receives its contributions one
        // `d` at a time in ascending order, so the result is bit-identical
        // to the one-plane-at-a-time loop — the blocking only cuts memory
        // passes over the accumulator.
        let mut d = 0;
        while d + 4 <= dim {
            let inv = |dd: usize| {
                let l = lengthscales[dd];
                1.0 / (l * l)
            };
            let (i0, i1, i2, i3) = (inv(d), inv(d + 1), inv(d + 2), inv(d + 3));
            let block = &self.sq[d * np..(d + 4) * np];
            let (s0, rest) = block.split_at(np);
            let (s1, rest) = rest.split_at(np);
            let (s2, s3) = rest.split_at(np);
            let lanes = s0.iter().zip(s1).zip(s2).zip(s3);
            for (a, (((&a0, &a1), &a2), &a3)) in acc.iter_mut().zip(lanes) {
                let mut v = *a;
                v += a0 * i0;
                v += a1 * i1;
                v += a2 * i2;
                v += a3 * i3;
                *a = v;
            }
            d += 4;
        }
        for (d, &l) in lengthscales.iter().enumerate().skip(d) {
            let inv_l2 = 1.0 / (l * l);
            let sq_d = &self.sq[d * np..(d + 1) * np];
            for (a, &s) in acc.iter_mut().zip(sq_d) {
                *a += s * inv_l2;
            }
        }
        // Every pair's entry `sf2 · ρ(r)` in one pass over the pair vector
        // (bit-identical to `sf2 * family.correlation(r2.sqrt())`, and to
        // `sf2 * (-0.5 * r2).exp()` for the squared exponential, which
        // needs no square root).
        correlate(correlation_of(family), sf2, acc, entries);
        if k.rows() != n || k.cols() != n {
            *k = Mat::zeros(n, n);
        }
        // Entries into the strict lower triangle (contiguous per column
        // thanks to the pair order), diagonal = sf2.
        let mut p = 0;
        for j in 0..n {
            let col = k.col_mut(j);
            col[j] = sf2;
            let below = &mut col[j + 1..];
            below.copy_from_slice(&entries[p..p + below.len()]);
            p += below.len();
        }
        if mirror {
            // Mirror to the upper triangle: K stays exactly symmetric.
            for j in 1..n {
                for i in 0..j {
                    k[(i, j)] = k[(j, i)];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ArdKernel;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_inputs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect()).collect()
    }

    #[test]
    fn fill_matches_entry_by_entry_kernel() {
        let xs = random_inputs(9, 4, 1);
        let ws = DistanceWorkspace::new(&xs);
        let mut r2 = Vec::new();
        let mut k = Mat::zeros(0, 0);
        for family in KernelFamily::ALL {
            let kernel = ArdKernel::new(family, 1.7, vec![0.4, 1.1, 0.09, 3.0]);
            ws.fill_kernel(family, 1.7, kernel.lengthscales(), &mut r2, &mut k);
            for i in 0..9 {
                for j in 0..9 {
                    let want = kernel.eval(&xs[i], &xs[j]);
                    let got = k[(i, j)];
                    assert!(
                        (got - want).abs() <= 1e-14 * want.abs().max(1.0),
                        "{family:?} K[{i}][{j}]: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn filled_kernel_is_exactly_symmetric_with_exact_diagonal() {
        let xs = random_inputs(7, 3, 2);
        let ws = DistanceWorkspace::new(&xs);
        let mut r2 = Vec::new();
        let mut k = Mat::zeros(0, 0);
        ws.fill_kernel(KernelFamily::Matern52, 2.5, &[0.3, 0.7, 2.0], &mut r2, &mut k);
        assert_eq!(k.asymmetry(), 0.0);
        for i in 0..7 {
            assert_eq!(k[(i, i)], 2.5);
        }
    }

    #[test]
    fn buffers_are_reused_across_calls() {
        let xs = random_inputs(6, 2, 3);
        let ws = DistanceWorkspace::new(&xs);
        let mut r2 = Vec::new();
        let mut k = Mat::zeros(0, 0);
        ws.fill_kernel(KernelFamily::SquaredExp, 1.0, &[0.5, 0.5], &mut r2, &mut k);
        let first = k.as_slice().to_vec();
        // Different hyperparameters, same buffers; then back again.
        ws.fill_kernel(KernelFamily::SquaredExp, 3.0, &[0.1, 2.0], &mut r2, &mut k);
        assert_ne!(k.as_slice(), &first[..]);
        ws.fill_kernel(KernelFamily::SquaredExp, 1.0, &[0.5, 0.5], &mut r2, &mut k);
        assert_eq!(k.as_slice(), &first[..]);
    }

    #[test]
    fn blocked_accumulation_matches_scalar_reference_bitwise() {
        // Dimensions straddling the 4-plane block boundary. The reference
        // accumulates one plane at a time in ascending `d` — exactly the
        // historical loop — and feeds the same correlation formula, so
        // the assembled K must agree bit for bit.
        for dim in [1usize, 4, 5, 8, 11] {
            let xs = random_inputs(8, dim, dim as u64);
            let ws = DistanceWorkspace::new(&xs);
            let ls: Vec<f64> = (0..dim).map(|d| 0.07 + 0.31 * d as f64).collect();
            let sf2 = 1.9;
            let mut r2 = Vec::new();
            let mut k = Mat::zeros(0, 0);
            ws.fill_kernel(KernelFamily::Matern52, sf2, &ls, &mut r2, &mut k);

            let n = xs.len();
            let np = n * (n - 1) / 2;
            let mut r2_ref = vec![0.0; np];
            for (d, &l) in ls.iter().enumerate() {
                let inv_l2 = 1.0 / (l * l);
                let mut p = 0;
                for j in 0..n {
                    for i in j + 1..n {
                        let diff = xs[i][d] - xs[j][d];
                        r2_ref[p] += (diff * diff) * inv_l2;
                        p += 1;
                    }
                }
            }
            let mut p = 0;
            for j in 0..n {
                assert_eq!(k[(j, j)].to_bits(), sf2.to_bits());
                for i in j + 1..n {
                    let want = sf2 * KernelFamily::Matern52.correlation(r2_ref[p].sqrt());
                    assert_eq!(k[(i, j)].to_bits(), want.to_bits(), "dim {dim} K[{i}][{j}]");
                    p += 1;
                }
            }
        }
    }

    #[test]
    fn rebuild_matches_fresh_construction() {
        let mut ws = DistanceWorkspace::new(&random_inputs(4, 3, 7));
        for n in [6usize, 2, 9, 0, 5] {
            let xs = random_inputs(n, 3, n as u64 + 40);
            ws.rebuild(&xs);
            let fresh = DistanceWorkspace::new(&xs);
            assert_eq!(ws.n(), fresh.n());
            assert_eq!(ws.dim(), fresh.dim());
            assert_eq!(ws.sq, fresh.sq);
        }
    }

    #[test]
    fn single_observation_and_empty() {
        let ws = DistanceWorkspace::new(&[vec![0.5, 0.5]]);
        let mut r2 = Vec::new();
        let mut k = Mat::zeros(0, 0);
        ws.fill_kernel(KernelFamily::Matern32, 4.0, &[1.0, 1.0], &mut r2, &mut k);
        assert_eq!((k.rows(), k.cols()), (1, 1));
        assert_eq!(k[(0, 0)], 4.0);

        let empty = DistanceWorkspace::new(&[]);
        assert_eq!(empty.n(), 0);
    }
}
