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
//! `kernel.eval` calls over both triangles. The fit's lane kernel
//! (`mlcd_linalg::fastpath::NlmlLanes`) reads the planes through
//! [`DistanceWorkspace::planes`] for four θ at once.

// lint: allow(hot-index, file) — plane construction indexes rows by loop variables bounded
// by the validated input shape (n rows of `dim` entries each).

/// Cached per-dimension pairwise squared differences for a fixed input
/// set.
///
/// Layout: dimension-major, strict lower triangle in column order — entry
/// `d * n(n−1)/2 + p` holds `(xs[i][d] − xs[j][d])²` where `p` runs over
/// the pairs `(i, j)` with `j = 0..n`, `i = j+1..n`: the strict lower
/// triangle of K in column order, so each column's entries are contiguous.
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
    /// footprint fits its capacity. A BO refit loop grows `xs`
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

    /// The cached planes: `dim` planes of `n(n−1)/2` squared differences
    /// each, in the pair order described on the type.
    pub fn planes(&self) -> &[f64] {
        &self.sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_inputs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect()).collect()
    }

    #[test]
    fn planes_hold_each_pairs_squared_difference_in_column_order() {
        let xs = random_inputs(5, 3, 1);
        let ws = DistanceWorkspace::new(&xs);
        let np = 5 * 4 / 2;
        assert_eq!(ws.planes().len(), 3 * np);
        for (d, plane) in ws.planes().chunks(np).enumerate() {
            let mut pairs = plane.iter();
            for (j, xj) in xs.iter().enumerate() {
                for xi in &xs[j + 1..] {
                    let diff = xi[d] - xj[d];
                    assert_eq!(pairs.next().map(|v| v.to_bits()), Some((diff * diff).to_bits()));
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
        assert_eq!((ws.n(), ws.dim()), (1, 2));
        assert!(ws.planes().is_empty());

        let empty = DistanceWorkspace::new(&[]);
        assert_eq!(empty.n(), 0);
    }
}
