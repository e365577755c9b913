//! A small dense, column-major matrix type.
//!
//! Kernel matrices in the GP are symmetric positive (semi-)definite and at
//! most a few hundred rows, so this type favours clarity over blocking or
//! SIMD. Column-major storage matches the access pattern of the Cholesky
//! factorisation in [`crate::chol`].

// lint: allow(hot-index, file) — the matrix type's own accessors (Index impls, column
// views, blocked matvec lanes) index `data[j * rows + i]` with i, j bounded by the
// asserted (rows, cols) shape; checked `get` here would put a branch inside every
// kernel-matrix access the GP hot loops make.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense column-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    /// Column-major: element (i, j) lives at `data[j * rows + i]`.
    data: Vec<f64>,
}

impl Mat {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from row slices. All rows must have equal length.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Mat::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "from_rows: ragged input at row {i}");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Build an `n × n` matrix from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow column `j` as a contiguous slice (column-major payoff).
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copy row `i` out into a new vector.
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.cols).map(|j| self[(i, j)]).collect()
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `self * x`.
    ///
    /// Four columns are applied per pass over `y`, but each element of `y`
    /// still receives its contributions one `j` at a time in ascending
    /// order, so the result is bit-identical to the classic one-column
    /// loop. The exact-zero skip is preserved as a true skip (adding
    /// `0.0 * c` could flip `-0.0` to `+0.0` or turn `∞` into NaN), so a
    /// block containing any zero coefficient falls back to the scalar
    /// path for those four columns.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let n = self.rows;
        let mut y = vec![0.0; n];
        let mut j = 0;
        while j + 4 <= self.cols {
            let (x0, x1, x2, x3) = (x[j], x[j + 1], x[j + 2], x[j + 3]);
            let any_zero = crate::is_exact_zero(x0)
                || crate::is_exact_zero(x1)
                || crate::is_exact_zero(x2)
                || crate::is_exact_zero(x3);
            if any_zero {
                for (dj, &xj) in [x0, x1, x2, x3].iter().enumerate() {
                    if crate::is_exact_zero(xj) {
                        continue;
                    }
                    for (yi, &cij) in y.iter_mut().zip(self.col(j + dj)) {
                        *yi += cij * xj;
                    }
                }
            } else {
                let block = &self.data[j * n..(j + 4) * n];
                let (c0, rest) = block.split_at(n);
                let (c1, rest) = rest.split_at(n);
                let (c2, c3) = rest.split_at(n);
                let lanes = c0.iter().zip(c1).zip(c2).zip(c3);
                for (yi, (((&a0, &a1), &a2), &a3)) in y.iter_mut().zip(lanes) {
                    let mut v = *yi;
                    v += a0 * x0;
                    v += a1 * x1;
                    v += a2 * x2;
                    v += a3 * x3;
                    *yi = v;
                }
            }
            j += 4;
        }
        for (j, &xj) in x.iter().enumerate().skip(j) {
            if crate::is_exact_zero(xj) {
                continue;
            }
            for (yi, &cij) in y.iter_mut().zip(self.col(j)) {
                *yi += cij * xj;
            }
        }
        y
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            let y = self.matvec(other.col(j));
            out.col_mut(j).copy_from_slice(&y);
        }
        out
    }

    /// `self + scale * I` in place; used to add jitter / noise variance to
    /// kernel matrices.
    ///
    /// # Panics
    /// Panics on non-square matrices.
    pub fn add_diag(&mut self, scale: f64) {
        assert!(self.is_square(), "add_diag: matrix must be square");
        for i in 0..self.rows {
            self[(i, i)] += scale;
        }
    }

    /// Maximum absolute element; zero for empty matrices.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Symmetry defect `max |A - Aᵀ|`; zero for empty or perfectly
    /// symmetric matrices.
    pub fn asymmetry(&self) -> f64 {
        if !self.is_square() {
            return f64::INFINITY;
        }
        let mut worst = 0.0_f64;
        for j in 0..self.cols {
            for i in 0..j {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Force exact symmetry by averaging with the transpose. Cheap
    /// insurance before factorising a kernel matrix assembled from
    /// floating-point kernel evaluations.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix must be square");
        for j in 0..self.cols {
            for i in 0..j {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Flat data access (column-major), mostly for tests.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Reshape to `rows × cols` with every element zeroed, reusing the
    /// existing allocation whenever the new shape fits its capacity. The
    /// workspace types build on this to stay allocation-free across
    /// repeated uses at (bounded) varying shapes.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Mutably borrow the contiguous storage of columns `c..c + w`
    /// (column `c + k` occupies `k*rows..(k+1)*rows` of the returned
    /// slice). Blocked multi-RHS solves split this further to update
    /// several right-hand sides per pass over the factor.
    #[inline]
    pub fn col_block_mut(&mut self, c: usize, w: usize) -> &mut [f64] {
        &mut self.data[c * self.rows..(c + w) * self.rows]
    }

    /// Split the storage at column `j`: read access to columns `0..j`
    /// (concatenated, column `k` at `k*rows..(k+1)*rows`) plus a mutable
    /// borrow of column `j` itself. This is the borrow shape a
    /// left-looking factorisation needs — update the current column from
    /// the already-finished ones without cloning either.
    #[inline]
    pub fn split_col_mut(&mut self, j: usize) -> (&[f64], &mut [f64]) {
        let n = self.rows;
        let (left, rest) = self.data.split_at_mut(j * n);
        (&*left, &mut rest[..n])
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[j * self.rows + i]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[j * self.rows + i]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_eye_shapes() {
        let z = Mat::zeros(2, 3);
        assert_eq!((z.rows(), z.cols()), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Mat::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_layout() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
        // Column-major storage.
        assert_eq!(m.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matvec_identity_and_general() {
        let i = Mat::eye(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn add_diag_and_symmetry() {
        let mut m = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        m.add_diag(0.5);
        assert_eq!(m[(0, 0)], 1.5);
        assert_eq!(m[(1, 1)], 1.5);
        assert_eq!(m.asymmetry(), 0.0);

        let mut skew = Mat::from_rows(&[&[1.0, 2.0], &[2.2, 1.0]]);
        assert!((skew.asymmetry() - 0.2).abs() < 1e-12);
        skew.symmetrize();
        assert_eq!(skew.asymmetry(), 0.0);
        assert!((skew[(0, 1)] - 2.1).abs() < 1e-12);
    }

    #[test]
    fn row_and_col_access() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), vec![1.0, 2.0]);
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn matvec_zero_shortcut_is_correct() {
        let m = Mat::from_rows(&[&[1.0, 5.0], &[2.0, 6.0]]);
        assert_eq!(m.matvec(&[0.0, 1.0]), vec![5.0, 6.0]);
    }

    /// Scalar reference for the blocked `matvec`: one column at a time,
    /// ascending `j`, exact-zero coefficients skipped.
    fn matvec_scalar(m: &Mat, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.rows()];
        for (j, &xj) in x.iter().enumerate() {
            if crate::is_exact_zero(xj) {
                continue;
            }
            for (yi, &cij) in y.iter_mut().zip(m.col(j)) {
                *yi += cij * xj;
            }
        }
        y
    }

    #[test]
    fn matvec_blocked_matches_scalar_bitwise() {
        // Shapes straddling the 4-column block boundary, awkward values
        // (negative zero, subnormals, huge magnitudes) and zero
        // coefficients inside an otherwise full block.
        for (rows, cols) in [(1usize, 1usize), (3, 4), (5, 7), (2, 8), (4, 9), (6, 13)] {
            let m = Mat::from_fn(rows, cols, |i, j| {
                ((i * 31 + j * 17) as f64 - 20.0) * 1.7e3
                    + if (i + j) % 5 == 0 { 1e-310 } else { 0.0 }
            });
            let x: Vec<f64> = (0..cols)
                .map(|j| match j % 4 {
                    0 => (j as f64 + 1.0) * 0.37,
                    1 => -(j as f64) * 1.9e7,
                    2 => {
                        if j % 8 == 2 {
                            0.0
                        } else {
                            -0.0
                        }
                    }
                    _ => 1.0 / (j as f64 + 2.0),
                })
                .collect();
            let blocked = m.matvec(&x);
            let scalar = matvec_scalar(&m, &x);
            for (b, s) in blocked.iter().zip(&scalar) {
                assert_eq!(b.to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn matvec_blocked_preserves_zero_skip_semantics() {
        // A -0.0 row accumulator must stay -0.0 when the only coefficient
        // that could touch it is an exact zero; an ∞ entry must not
        // produce NaN through a skipped 0·∞.
        let m = Mat::from_rows(&[&[f64::INFINITY, 1.0, 2.0, 3.0, 4.0]]);
        let y = m.matvec(&[0.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(y, vec![10.0]);
    }

    #[test]
    fn reshape_zeroed_reuses_and_clears() {
        let mut m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.reshape_zeroed(1, 3);
        assert_eq!((m.rows(), m.cols()), (1, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        m.reshape_zeroed(2, 2);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn col_block_mut_is_contiguous_columns() {
        let mut m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let block = m.col_block_mut(1, 2);
        assert_eq!(block, &[2.0, 5.0, 3.0, 6.0]);
        block[0] = 9.0;
        assert_eq!(m[(0, 1)], 9.0);
    }
}
