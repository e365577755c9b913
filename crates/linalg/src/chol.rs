//! Cholesky factorisation with jitter escalation, triangular solves and
//! log-determinants.
//!
//! Kernel matrices assembled from nearly-duplicate inputs (common when a BO
//! searcher re-probes neighbouring deployments) are numerically
//! semi-definite. [`Chol::factor_with_jitter`] retries with exponentially
//! growing diagonal jitter, which is the standard GP-library remedy.
//!
//! The factorisation and the single right-hand-side forward solve are the
//! hot loops of a GP posterior fit. Callers reach them through
//! [`crate::fastpath`], which runs their AVX2 compilation where the CPU
//! supports it; both compilations produce the same bits. The likelihood
//! evaluations of a hyperparameter fit factor four kernel matrices at once
//! in [`crate::fastpath::NlmlLanes`], whose lanes perform this
//! factorisation's operations in this order.

// lint: allow(hot-index, file) — factorisation kernels index columns by loop variables bounded
// by the matrix order (i, j, k ≤ n checked on entry); replacing slice indexing with checked
// `get` would defeat bounds-check elision and the blocked update's vectorisation.

use crate::mat::Mat;

/// Why a factorisation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CholError {
    /// The input matrix is not square.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// A non-positive pivot was hit at the given index even after the
    /// maximum jitter was applied.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot_index: usize,
        /// Its (non-positive) value.
        pivot_value: f64,
    },
    /// The input contained NaN or infinity.
    NotFinite,
}

impl std::fmt::Display for CholError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholError::NotSquare { rows, cols } => {
                write!(f, "cholesky: matrix is {rows}x{cols}, not square")
            }
            CholError::NotPositiveDefinite { pivot_index, pivot_value } => {
                write!(f, "cholesky: non-positive pivot {pivot_value:e} at index {pivot_index}")
            }
            CholError::NotFinite => write!(f, "cholesky: matrix contains non-finite entries"),
        }
    }
}

impl std::error::Error for CholError {}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Chol {
    l: Mat,
    /// Jitter that was actually added to the diagonal to make the
    /// factorisation succeed (0.0 when none was needed).
    jitter: f64,
}

/// Factor the lower triangle of `a` (plus `jitter` on the diagonal) into
/// `out`, which must already be `n×n`.
///
/// Each column of `a` is copied into `out` as the factorisation reaches
/// it, with the jitter added to the diagonal entry *during the copy* — so
/// a retry with a larger jitter restarts from the original matrix exactly
/// (no accumulated bumping) without `a` ever being cloned or mutated.
/// The strictly upper triangle of `a` is never read; `out`'s is zeroed on
/// success. Callers are responsible for rejecting non-square or
/// non-finite input.
///
/// Callers go through [`crate::fastpath::factor_into`], which runs this
/// body's AVX2 compilation where the fast path is on.
#[inline(always)]
pub(crate) fn factor_into(a: &Mat, jitter: f64, out: &mut Mat) -> Result<(), CholError> {
    let n = a.rows();
    debug_assert!(a.is_square());
    debug_assert_eq!((out.rows(), out.cols()), (n, n));
    for j in 0..n {
        {
            let src = a.col(j);
            let dst = out.col_mut(j);
            dst[j..n].copy_from_slice(&src[j..n]);
            dst[j] = src[j] + jitter;
        }
        // Left-looking update from the already-factored columns, four
        // source columns per pass over the target. Each element still
        // receives its subtractions one `k` at a time in ascending order,
        // so the result is bit-identical to the classic entry-indexed
        // loop — the blocking only cuts loop overhead and memory passes.
        let (done, colj) = out.split_col_mut(j);
        let target = &mut colj[j..];
        let mut k = 0;
        while k + 4 <= j {
            let block = &done[k * n..(k + 4) * n];
            let (c0, rest) = block.split_at(n);
            let (c1, rest) = rest.split_at(n);
            let (c2, c3) = rest.split_at(n);
            let (l0, l1, l2, l3) = (c0[j], c1[j], c2[j], c3[j]);
            let lanes = c0[j..].iter().zip(&c1[j..]).zip(&c2[j..]).zip(&c3[j..]);
            for (x, (((&a0, &a1), &a2), &a3)) in target.iter_mut().zip(lanes) {
                let mut v = *x;
                v -= a0 * l0;
                v -= a1 * l1;
                v -= a2 * l2;
                v -= a3 * l3;
                *x = v;
            }
            k += 4;
        }
        for k in k..j {
            let colk = &done[k * n..(k + 1) * n];
            let ljk = colk[j];
            if crate::is_exact_zero(ljk) {
                continue;
            }
            for (x, &lik) in target.iter_mut().zip(&colk[j..]) {
                *x -= lik * ljk;
            }
        }
        let pivot = colj[j];
        if pivot <= 0.0 || !pivot.is_finite() {
            return Err(CholError::NotPositiveDefinite { pivot_index: j, pivot_value: pivot });
        }
        let root = pivot.sqrt();
        for x in &mut colj[j..] {
            *x /= root;
        }
    }
    // Zero the strictly upper triangle so `out` really is lower-triangular.
    for j in 1..n {
        for x in &mut out.col_mut(j)[..j] {
            *x = 0.0;
        }
    }
    Ok(())
}

/// Jitter-escalation driver behind [`Chol::factor_with_jitter`]: validate
/// once, then retry `factor_into` with `0, base, 10·base, …` on the
/// diagonal. Resizes `out` if its order doesn't match and returns the
/// jitter that succeeded.
fn factor_with_jitter_into(
    a: &Mat,
    base: f64,
    max_tries: usize,
    out: &mut Mat,
) -> Result<f64, CholError> {
    if !a.is_square() {
        return Err(CholError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    if a.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(CholError::NotFinite);
    }
    let n = a.rows();
    if out.rows() != n || out.cols() != n {
        *out = Mat::zeros(n, n);
    }
    let diag_scale =
        if n == 0 { 1.0 } else { (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64 };
    let diag_scale = if diag_scale > 0.0 { diag_scale } else { 1.0 };

    let mut last_err = CholError::NotPositiveDefinite { pivot_index: 0, pivot_value: 0.0 };
    for attempt in 0..=max_tries {
        let jitter =
            if attempt == 0 { 0.0 } else { base * diag_scale * 10f64.powi(attempt as i32 - 1) };
        match crate::fastpath::factor_into(a, jitter, out) {
            Ok(()) => return Ok(jitter),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Forward substitution `L y = b`, overwriting `b` with `y`. The
/// ascending elimination order matches the historical entry-indexed loop,
/// so results are bit-identical to it (the slice zip just lets the update
/// vectorise). Single right-hand sides go through
/// [`crate::fastpath::solve_lower_in_place`].
#[inline(always)]
pub(crate) fn solve_lower_in_place(l: &Mat, y: &mut [f64]) {
    let n = l.rows();
    for j in 0..n {
        let col = l.col(j);
        y[j] /= col[j];
        let yj = y[j];
        for (yi, &lij) in y[j + 1..].iter_mut().zip(&col[j + 1..]) {
            *yi -= lij * yj;
        }
    }
}

/// Blocked forward substitution `L Y = B` in place on `y`, four
/// right-hand sides per pass over the factor. Within a pass the four
/// columns are eliminated in an interleaved inner loop, but each column's
/// own operation sequence (divide pivot, subtract updates in ascending
/// row order) is exactly [`solve_lower_in_place`]'s, so every column is
/// bit-identical to a one-at-a-time solve. The remainder (`cols % 4`)
/// runs the scalar path.
fn solve_lower_multi_in_place(l: &Mat, y: &mut Mat) {
    let n = l.rows();
    debug_assert_eq!(y.rows(), n);
    let cols = y.cols();
    let mut c = 0;
    while c + 4 <= cols {
        let block = y.col_block_mut(c, 4);
        let (y0, rest) = block.split_at_mut(n);
        let (y1, rest) = rest.split_at_mut(n);
        let (y2, y3) = rest.split_at_mut(n);
        for j in 0..n {
            let lcol = l.col(j);
            let ljj = lcol[j];
            y0[j] /= ljj;
            y1[j] /= ljj;
            y2[j] /= ljj;
            y3[j] /= ljj;
            let (v0, v1, v2, v3) = (y0[j], y1[j], y2[j], y3[j]);
            let ltail = &lcol[j + 1..];
            let tails = y0[j + 1..]
                .iter_mut()
                .zip(&mut y1[j + 1..])
                .zip(&mut y2[j + 1..])
                .zip(&mut y3[j + 1..]);
            for ((((t0, t1), t2), t3), &lij) in tails.zip(ltail) {
                *t0 -= lij * v0;
                *t1 -= lij * v1;
                *t2 -= lij * v2;
                *t3 -= lij * v3;
            }
        }
        c += 4;
    }
    for c in c..cols {
        solve_lower_in_place(l, y.col_mut(c));
    }
}

/// Back substitution `Lᵀ x = y`, overwriting `y` with `x`. Bit-identical
/// to the entry-indexed formulation, as above.
fn solve_upper_in_place(l: &Mat, x: &mut [f64]) {
    let n = l.rows();
    for j in (0..n).rev() {
        let col = l.col(j);
        let mut s = x[j];
        for (&lij, &xi) in col[j + 1..].iter().zip(&x[j + 1..]) {
            s -= lij * xi;
        }
        x[j] = s / col[j];
    }
}

/// `log |A| = 2 Σ log L_ii` for a lower-triangular factor.
fn log_det_of(l: &Mat) -> f64 {
    (0..l.rows()).map(|i| l[(i, i)].ln()).sum::<f64>() * 2.0
}

impl Chol {
    /// Factor an SPD matrix. Fails on the first non-positive pivot.
    pub fn factor(a: &Mat) -> Result<Self, CholError> {
        Self::factor_with_jitter(a, 0.0, 0)
    }

    /// Factor with escalating jitter: try `0, base, 10·base, …` added to the
    /// diagonal until the factorisation succeeds or `max_tries` is exhausted.
    ///
    /// `base` is scaled by the mean diagonal magnitude so the jitter is
    /// relative to the matrix's own scale. The input is never cloned: each
    /// retry re-copies columns into the one output buffer with the new
    /// jitter applied to the diagonal on the fly.
    pub fn factor_with_jitter(a: &Mat, base: f64, max_tries: usize) -> Result<Self, CholError> {
        let mut l = Mat::zeros(0, 0);
        let jitter = factor_with_jitter_into(a, base, max_tries, &mut l)?;
        Ok(Chol { l, jitter })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Diagonal jitter that was added to make the factorisation succeed.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// Solve `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.order(), "solve_lower: dimension mismatch");
        let mut y = b.to_vec();
        crate::fastpath::solve_lower_in_place(&self.l, &mut y);
        y
    }

    /// Solve `L Y = B` for every column of `B` at once (blocked forward
    /// substitution).
    ///
    /// The factor's column `j` is streamed once per pivot and applied to
    /// all right-hand sides while it is hot in cache, instead of
    /// re-traversing the whole factor for each RHS as repeated
    /// [`solve_lower`](Self::solve_lower) calls would. Per column the
    /// arithmetic (order of operations included) is identical to
    /// `solve_lower`, so results are bit-for-bit equal to the one-at-a-time
    /// path.
    pub fn solve_lower_multi(&self, b: &Mat) -> Mat {
        assert_eq!(b.rows(), self.order(), "solve_lower_multi: dimension mismatch");
        let mut y = b.clone();
        solve_lower_multi_in_place(&self.l, &mut y);
        y
    }

    /// Solve `Lᵀ x = y` (back substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.order(), "solve_upper: dimension mismatch");
        let mut x = y.to_vec();
        solve_upper_in_place(&self.l, &mut x);
        x
    }

    /// Solve `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        log_det_of(&self.l)
    }

    /// Quadratic form `bᵀ A⁻¹ b` computed stably as `‖L⁻¹ b‖²`.
    pub fn quad_form(&self, b: &[f64]) -> f64 {
        let y = self.solve_lower(b);
        crate::dot(&y, &y)
    }

    /// Extend the factorisation by one row/column in `O(n²)`: given
    /// `A' = [[A, k], [kᵀ, κ]]`, the new factor row is `l = L⁻¹k` and the
    /// new pivot `λ = √(κ − ‖l‖²)`.
    ///
    /// This is the fast path for Bayesian optimisation, where a kernel
    /// matrix grows by exactly one observation per step — a full refactor
    /// would cost `O(n³)`.
    pub fn extend(&self, k: &[f64], kappa: f64) -> Result<Chol, CholError> {
        let n = self.order();
        assert_eq!(k.len(), n, "extend: cross-covariance has wrong length");
        if k.iter().any(|v| !v.is_finite()) || !kappa.is_finite() {
            return Err(CholError::NotFinite);
        }
        let l_new = self.solve_lower(k);
        let pivot_sq = kappa - crate::dot(&l_new, &l_new);
        if pivot_sq <= 0.0 || !pivot_sq.is_finite() {
            return Err(CholError::NotPositiveDefinite { pivot_index: n, pivot_value: pivot_sq });
        }
        let lambda = pivot_sq.sqrt();
        let mut l = Mat::zeros(n + 1, n + 1);
        for j in 0..n {
            for i in j..n {
                l[(i, j)] = self.l[(i, j)];
            }
            l[(n, j)] = l_new[j];
        }
        l[(n, n)] = lambda;
        Ok(Chol { l, jitter: self.jitter })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EPS;

    fn spd3() -> Mat {
        Mat::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let c = Chol::factor(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = Chol::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = c.solve(&b);
        let back = a.matvec(&x);
        for k in 0..3 {
            assert!((back[k] - b[k]).abs() < 1e-10, "component {k}");
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // det(diag(2, 3, 4) ) = 24
        let a = Mat::from_rows(&[&[2.0, 0.0, 0.0], &[0.0, 3.0, 0.0], &[0.0, 0.0, 4.0]]);
        let c = Chol::factor(&a).unwrap();
        assert!((c.log_det() - 24f64.ln()).abs() < EPS);
    }

    #[test]
    fn quad_form_identity() {
        let c = Chol::factor(&Mat::eye(4)).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        assert!((c.quad_form(&b) - 30.0).abs() < EPS);
    }

    #[test]
    fn indefinite_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        match Chol::factor(&a) {
            Err(CholError::NotPositiveDefinite { pivot_index, .. }) => assert_eq!(pivot_index, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn not_square_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(Chol::factor(&a), Err(CholError::NotSquare { .. })));
    }

    #[test]
    fn nan_rejected() {
        let mut a = Mat::eye(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(Chol::factor(&a), Err(CholError::NotFinite)));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 Gram matrix: vvᵀ with v = (1, 1, 1) is PSD but singular.
        let a = Mat::from_fn(3, 3, |_, _| 1.0);
        assert!(Chol::factor(&a).is_err());
        let c = Chol::factor_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(c.jitter() > 0.0);
        // Factor must still approximately reconstruct A + jitter*I.
        let recon = c.l().matmul(&c.l().transpose());
        for i in 0..3 {
            assert!((recon[(i, i)] - (1.0 + c.jitter())).abs() < 1e-8);
        }
    }

    #[test]
    fn jitter_zero_when_unneeded() {
        let c = Chol::factor_with_jitter(&spd3(), 1e-10, 8).unwrap();
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn extend_matches_full_refactor() {
        let a3 = spd3();
        // Grow to a 4×4 SPD matrix by appending a compatible row/col.
        let k = [0.5, -0.2, 0.9];
        let kappa = 2.5;
        let a4 = Mat::from_fn(4, 4, |i, j| match (i, j) {
            (3, 3) => kappa,
            (3, j2) => k[j2],
            (i2, 3) => k[i2],
            _ => a3[(i, j)],
        });
        let full = Chol::factor(&a4).unwrap();
        let inc = Chol::factor(&a3).unwrap().extend(&k, kappa).unwrap();
        for i in 0..4 {
            for j in 0..=i {
                assert!(
                    (full.l()[(i, j)] - inc.l()[(i, j)]).abs() < 1e-12,
                    "L[{i}][{j}]: {} vs {}",
                    full.l()[(i, j)],
                    inc.l()[(i, j)]
                );
            }
        }
        // Solves agree too.
        let b = [1.0, 2.0, 3.0, 4.0];
        let x_full = full.solve(&b);
        let x_inc = inc.solve(&b);
        for t in 0..4 {
            assert!((x_full[t] - x_inc[t]).abs() < 1e-10);
        }
        assert!((full.log_det() - inc.log_det()).abs() < 1e-12);
    }

    #[test]
    fn extend_rejects_breaking_spd() {
        let c = Chol::factor(&Mat::eye(2)).unwrap();
        // κ too small: the extended matrix is indefinite.
        let err = c.extend(&[0.9, 0.9], 1.0).unwrap_err();
        assert!(matches!(err, CholError::NotPositiveDefinite { pivot_index: 2, .. }));
        assert!(matches!(c.extend(&[f64::NAN, 0.0], 1.0), Err(CholError::NotFinite)));
    }

    #[test]
    fn extend_from_empty() {
        let c = Chol::factor(&Mat::zeros(0, 0)).unwrap();
        let c1 = c.extend(&[], 4.0).unwrap();
        assert_eq!(c1.order(), 1);
        assert!((c1.l()[(0, 0)] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn empty_matrix_ok() {
        let c = Chol::factor(&Mat::zeros(0, 0)).unwrap();
        assert_eq!(c.log_det(), 0.0);
        assert!(c.solve(&[]).is_empty());
    }

    #[test]
    fn solve_lower_multi_matches_single_columns() {
        let a = spd3();
        let c = Chol::factor(&a).unwrap();
        let b = Mat::from_rows(&[&[0.3, 1.0, -2.0], &[1.0, 0.0, 4.5], &[-0.7, 2.2, 0.1]]);
        let y = c.solve_lower_multi(&b);
        for col in 0..3 {
            let single = c.solve_lower(b.col(col));
            assert_eq!(y.col(col), &single[..], "column {col} must be bit-identical");
        }
    }

    #[test]
    fn solve_lower_multi_blocked_matches_single_columns() {
        // Widths straddling the 4-RHS block boundary: the blocked path
        // must stay bit-identical to one-at-a-time forward substitution.
        let a = spd3();
        let c = Chol::factor(&a).unwrap();
        for cols in [1usize, 4, 5, 8, 11] {
            let b = Mat::from_fn(3, cols, |i, j| ((i * 7 + j * 13) as f64 - 9.0) * 0.83);
            let y = c.solve_lower_multi(&b);
            for col in 0..cols {
                let single = c.solve_lower(b.col(col));
                for (yv, sv) in y.col(col).iter().zip(&single) {
                    assert_eq!(yv.to_bits(), sv.to_bits(), "col {col} of width {cols}");
                }
            }
        }
    }

    #[test]
    fn solve_lower_multi_empty_rhs() {
        let c = Chol::factor(&spd3()).unwrap();
        let y = c.solve_lower_multi(&Mat::zeros(3, 0));
        assert_eq!((y.rows(), y.cols()), (3, 0));
    }

    #[test]
    fn solve_lower_upper_are_inverses_of_l() {
        let a = spd3();
        let c = Chol::factor(&a).unwrap();
        let b = [0.3, 1.0, -0.7];
        let y = c.solve_lower(&b);
        let back = c.l().matvec(&y);
        for k in 0..3 {
            assert!((back[k] - b[k]).abs() < 1e-12);
        }
        let x = c.solve_upper(&b);
        let back = c.l().transpose().matvec(&x);
        for k in 0..3 {
            assert!((back[k] - b[k]).abs() < 1e-12);
        }
    }
}
