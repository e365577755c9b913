//! The GP negative log marginal likelihood for [`LANES`] hyperparameter
//! vectors at once, one `f64` lane per vector.
//!
//! The starts of one GP fit share the observations, so they share the
//! distance planes, `n` and the targets `z`, and differ only in θ. Every
//! buffer here is lane-interleaved (`[f64; LANES]` per element): element
//! `e` of lane `t` sits at `buf[e][t]`, so one AVX2 register holds one
//! element for all four θ and every pass runs on full vectors however
//! small the matrix is.
//!
//! The accumulation and the passes after the correlation are written once
//! against a four-lane value type `V` (`fastpath/vector.rs`) and compiled
//! twice:
//! with `V = [f64; 4]` and libm for the baseline, and with `V` one
//! `__m256d` and the `exp`/`log` ports under `avx2,fma`. The factor is
//! stored by rows (row `i` at `i(i+1)/2`), so each of its elements is a
//! dot product over two contiguous rows, and the forward solve and `Σ y²`
//! run inside it, one row per finished column.
//!
//! # Per lane, the scalar operation sequence
//!
//! Each lane performs the operations of a one-θ evaluation in that
//! evaluation's order, so its result has the same bits:
//!
//! - `exp(θ)` (the port, with `f64::exp` for off-range inputs), then
//!   `1.0 / (ℓ·ℓ)` per dimension;
//! - the squared distances accumulated from `0.0` over the dim-major
//!   planes, in ascending dimension;
//! - the correlation `sf2 · (poly · exp(x))` of each pair, with inputs off
//!   the port's main range (duplicate inputs give `exp(−0)`) recomputed by
//!   `f64::exp`;
//! - the diagonal `sf2`, then `+ sn2`, then `+ jitter`;
//! - the Cholesky: each element's subtractions `− L_ik·L_jk` in ascending
//!   `k`, those of the last `j mod 4` columns skipped where `L_jk` is
//!   zero (a per-lane select), as the scalar body's 4-column blocks and
//!   remainder do; then the pivot test, `root = √pivot`, and every entry
//!   of the column, the diagonal included, divided by `root`;
//! - the forward solve by rows, `y_j = (z_j − Σ_{k<j} L_jk·y_k) / L_jj`,
//!   which performs the scalar column-oriented solve's subtractions in
//!   the same order;
//! - `Σ y²` and `Σ ln L_jj` in ascending `j` (the `log` port, with
//!   `f64::ln` for the inputs it leaves to libm), `(Σ ln L_jj) · 2` and
//!   `0.5·quad + 0.5·logdet + 0.5·n·ln 2π`.
//!
//! A lane whose pivot fails retries with its own jitter,
//! `base · mean|K_ii| · 10^(a−1)` for attempt `a`, up to the retry limit;
//! the whole batch is refactored, and lanes that had succeeded redo the
//! same operations with the same jitter, so they keep their factor. A lane
//! out of tries returns `+∞`. Lanes never read each other's elements, so a
//! failing lane's values cannot reach another lane.
//!
//! No `mul_add` appears outside the `exp` and `log` ports: Rust never
//! contracts `a * b + c`, so the AVX2 compilation rounds exactly as the
//! baseline one.

// lint: allow(hot-index, file) — lane loops index `[f64; LANES]` arrays with `t < LANES`, element
// loops index slices of the element count they run to, and the packed-factor offsets are bounded
// by the order `n` that `NlmlProblem::new` checked against the planes and targets; indexing keeps
// the loops straight-line.

use super::vector::Lanes;
use super::{Correlation, LANES};

/// What a likelihood evaluation runs over: the fit's fixed data, checked
/// for consistency once, when it is built.
#[derive(Debug, Clone, Copy)]
pub struct NlmlProblem<'a> {
    kind: Correlation,
    planes: &'a [f64],
    n: usize,
    dim: usize,
    z: &'a [f64],
    jitter: (f64, usize),
}

impl<'a> NlmlProblem<'a> {
    /// The problem of `n` observations in `dim` dimensions:
    ///
    /// - `kind`: the correlation family;
    /// - `planes`: pairwise squared differences, dimension-major: entry
    ///   `d·n(n−1)/2 + p` for the pairs `(i, j)`, `j = 0..n`,
    ///   `i = j+1..n` (the strict lower triangle in column order);
    /// - `z`: standardised targets, one per observation;
    /// - `jitter`: the base relative jitter and the number of retries.
    ///
    /// θ then has `dim + 2` entries `[log σ_f², log ℓ₁…log ℓ_d, log σ_n²]`.
    ///
    /// # Panics
    /// Panics if `n` is 0, or `z` or `planes` has the wrong length.
    pub fn new(
        kind: Correlation,
        planes: &'a [f64],
        n: usize,
        dim: usize,
        z: &'a [f64],
        jitter: (f64, usize),
    ) -> Self {
        assert!(n >= 1, "NlmlProblem: no observations");
        assert_eq!(z.len(), n, "NlmlProblem: target count");
        assert_eq!(planes.len(), dim * n * (n - 1) / 2, "NlmlProblem: plane size");
        NlmlProblem { kind, planes, n, dim, z, jitter }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn pairs(&self) -> usize {
        self.n * (self.n - 1) / 2
    }
}

/// The lane evaluator's reusable buffers. Once they have grown to a
/// problem's size, an evaluation allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct NlmlLanes {
    theta: Vec<Lanes>,
    exp_theta: Vec<Lanes>,
    inv_l2: Vec<Lanes>,
    r2: Vec<Lanes>,
    entries: Vec<Lanes>,
    /// The factor's lower triangle, packed by row.
    l: Vec<Lanes>,
    y: Vec<Lanes>,
}

impl NlmlLanes {
    /// An empty evaluator; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow every buffer to hold a problem of `n` observations in `dim`
    /// dimensions. Evaluations then reuse them without allocating, so
    /// buffers reserved on one thread are not reallocated by the pool
    /// helper that happens to run the group.
    pub fn reserve(&mut self, n: usize, dim: usize) {
        let fit = |buf: &mut Vec<Lanes>, len: usize| buf.reserve(len.saturating_sub(buf.len()));
        fit(&mut self.theta, dim + 2);
        fit(&mut self.exp_theta, dim + 2);
        fit(&mut self.inv_l2, dim);
        fit(&mut self.r2, n * n.saturating_sub(1) / 2);
        fit(&mut self.entries, n * n.saturating_sub(1) / 2);
        fit(&mut self.l, n * (n + 1) / 2);
        fit(&mut self.y, n);
    }

    /// The negative log marginal likelihood at each θ of `thetas` (one to
    /// [`LANES`] of them) into `out[..thetas.len()]`, or `+∞` where the
    /// kernel matrix cannot be factored within the jitter policy. Unused
    /// lanes repeat the first θ.
    ///
    /// # Panics
    /// Panics on zero or more than [`LANES`] θ, on a θ of the wrong
    /// length, or on a short `out`.
    pub fn eval(&mut self, problem: &NlmlProblem<'_>, thetas: &[&[f64]], out: &mut [f64]) {
        let m = thetas.len();
        assert!((1..=LANES).contains(&m), "NlmlLanes::eval: {m} θ");
        assert!(out.len() >= m, "NlmlLanes::eval: output too short");
        self.stage(thetas, problem.dim + 2);
        let values = super::nlml_lanes(self, problem);
        out[..m].copy_from_slice(&values[..m]);
    }

    /// Interleave `thetas` into the lanes, repeating the first in unused ones.
    fn stage(&mut self, thetas: &[&[f64]], len: usize) {
        self.theta.clear();
        self.theta.resize(len, [0.0; LANES]);
        for t in 0..LANES {
            let theta = thetas.get(t).unwrap_or(&thetas[0]);
            assert_eq!(theta.len(), len, "NlmlLanes::eval: θ length");
            for (slot, &v) in self.theta.iter_mut().zip(theta.iter()) {
                slot[t] = v;
            }
        }
    }
}

/// A correlation family's per-pair expression: `(x, poly)` from `r²`, with
/// `ρ = poly · exp(x)`.
pub(super) trait Rho {
    fn arg(r2: f64) -> (f64, f64);
}

pub(super) struct SquaredExp;
pub(super) struct Matern32;
pub(super) struct Matern52;

impl Rho for SquaredExp {
    #[inline(always)]
    fn arg(r2: f64) -> (f64, f64) {
        (-0.5 * r2, 1.0)
    }
}

impl Rho for Matern32 {
    #[inline(always)]
    fn arg(r2: f64) -> (f64, f64) {
        let s = 3.0_f64.sqrt() * r2.sqrt();
        (-s, 1.0 + s)
    }
}

impl Rho for Matern52 {
    #[inline(always)]
    fn arg(r2: f64) -> (f64, f64) {
        let s = 5.0_f64.sqrt() * r2.sqrt();
        (-s, 1.0 + s + s * s / 3.0)
    }
}

/// The evaluator's body, written once and compiled twice: `baseline`
/// with libm's `exp` and the `[f64; 4]` lane value, and `avx2` with the
/// ports and the `__m256d` one under
/// `#[target_feature(enable = "avx2,fma")]`.
///
/// Each pass is its own function so that LLVM compiles its loops on their
/// own (inlined into one large function, the `exp` loop stays scalar).
/// Calls between functions with the same target features are safe, so the
/// kernel's only `unsafe` is the dispatch into `avx2::nlml`; the lane
/// value's loads, stores and table lookups carry their own.
macro_rules! lane_kernels {
    ($exp:ty, $v:ty $(, #[$feature:meta])?) => {
        use super::{Lanes, NlmlLanes, NlmlProblem, Rho, LANES};
        use super::{Matern32, Matern52, SquaredExp};
        use crate::fastpath::{Correlation, Exp};

        /// The lane value this compilation runs on.
        type V = $v;

        /// The negative log marginal likelihood of every lane's θ.
        $(#[$feature])?
        pub(in crate::fastpath) fn nlml(s: &mut NlmlLanes, p: &NlmlProblem<'_>) -> Lanes {
            match p.kind {
                Correlation::SquaredExp => nlml_rho::<SquaredExp>(s, p),
                Correlation::Matern32 => nlml_rho::<Matern32>(s, p),
                Correlation::Matern52 => nlml_rho::<Matern52>(s, p),
            }
        }

        $(#[$feature])?
        fn nlml_rho<R: Rho>(s: &mut NlmlLanes, p: &NlmlProblem<'_>) -> Lanes {
            let (n, dim, np) = (p.n, p.dim, p.pairs());
            s.exp_theta.clear();
            s.exp_theta.resize(dim + 2, [0.0; LANES]);
            map_exp(&s.theta, &mut s.exp_theta, |v| (v, 1.0), [1.0; LANES]);
            let (sf2, sn2) = (s.exp_theta[0], s.exp_theta[dim + 1]);
            s.inv_l2.clear();
            for l in &s.exp_theta[1..=dim] {
                let l = V::load(l);
                s.inv_l2.push(V::splat(1.0).div(l.mul(l)).to_array());
            }

            accumulate(p.planes, np, &s.inv_l2, &mut s.r2);
            // Every entry, every element of the factor's lower triangle
            // and every y is written before it is read, so no buffer is
            // cleared.
            s.entries.resize(np, [0.0; LANES]);
            map_exp(&s.r2, &mut s.entries, R::arg, sf2);

            // K's diagonal is sf2 + sn2; each lane retries with its own jitter.
            let diag = V::load(&sf2).add(V::load(&sn2)).to_array();
            s.l.resize(n * (n + 1) / 2, [0.0; LANES]);
            s.y.resize(n, [0.0; LANES]);
            let (base, max_tries) = p.jitter;
            let mut jitter = [0.0; LANES];
            let mut tries = [0usize; LANES];
            let mut dead = [false; LANES];
            let quad = loop {
                let (failed, quad) = factor(diag, jitter, &s.entries, p.z, &mut s.l, &mut s.y);
                let mut again = false;
                for t in 0..LANES {
                    if !failed[t] || dead[t] {
                        continue;
                    }
                    if tries[t] == max_tries {
                        dead[t] = true;
                        continue;
                    }
                    tries[t] += 1;
                    // The mean |K_ii|, summed over the diagonal as a one-θ
                    // evaluation sums it.
                    let mut sum = 0.0;
                    for _ in 0..n {
                        sum += diag[t].abs();
                    }
                    let scale = sum / n as f64;
                    let scale = if scale > 0.0 { scale } else { 1.0 };
                    jitter[t] = base * scale * 10f64.powi(tries[t] as i32 - 1);
                    again = true;
                }
                if !again {
                    break quad;
                }
            };

            let log_sum = log_diagonal(&s.l);
            let mut out = [0.0; LANES];
            for t in 0..LANES {
                out[t] = if dead[t] {
                    f64::INFINITY
                } else {
                    let log_det = log_sum[t] * 2.0;
                    0.5 * quad[t]
                        + 0.5 * log_det
                        + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
                };
            }
            out
        }

        /// `out[e][t] = scale[t] · (poly · exp(x))` with
        /// `(x, poly) = arg(src[e][t])`.
        ///
        /// The first pass runs over the flattened buffers, branch-free, so
        /// that it vectorises with the port; elements the `exp` does not
        /// cover are then recomputed with [`f64::exp`], and the per-lane
        /// scale is applied last. With libm's `exp` the fix-up pass is dead
        /// and compiles away.
        #[inline(never)]
        $(#[$feature])?
        pub(in crate::fastpath) fn map_exp(
            src: &[Lanes],
            out: &mut [Lanes],
            arg: impl Fn(f64) -> (f64, f64),
            scale: Lanes,
        ) {
            let (src_f, out_f) = (src.as_flattened(), out.as_flattened_mut());
            let mut covered = true;
            for (o, &v) in out_f.iter_mut().zip(src_f) {
                let (x, poly) = arg(v);
                covered &= <$exp>::covers(x);
                *o = poly * <$exp>::exp(x);
            }
            if !covered {
                for (o, &v) in out_f.iter_mut().zip(src_f) {
                    let (x, poly) = arg(v);
                    if !<$exp>::covers(x) {
                        *o = poly * x.exp();
                    }
                }
            }
            let scale = V::load(&scale);
            for o in out {
                V::load(o).mul(scale).store(o);
            }
        }

        /// `acc[p] = Σ_d planes[d][p] · inv_l2[d]` for the `np` pairs,
        /// four pairs per pass over the dimensions.
        #[inline(never)]
        $(#[$feature])?
        fn accumulate(planes: &[f64], np: usize, inv_l2: &[Lanes], acc: &mut Vec<Lanes>) {
            acc.resize(np, [0.0; LANES]);
            let (blocks, rest) = acc.as_chunks_mut::<4>();
            for (b, out) in blocks.iter_mut().enumerate() {
                accumulate_pairs(planes, np, 4 * b, inv_l2, out);
            }
            let first = np - rest.len();
            for (e, out) in rest.iter_mut().enumerate() {
                accumulate_pairs(planes, np, first + e, inv_l2, std::array::from_mut(out));
            }
        }

        /// `out[k] = Σ_d planes[d][p + k] · inv_l2[d]` for `k < K`, each
        /// accumulated from `0.0` in ascending `d`.
        #[inline]
        $(#[$feature])?
        fn accumulate_pairs<const K: usize>(
            planes: &[f64],
            np: usize,
            p: usize,
            inv_l2: &[Lanes],
            out: &mut [Lanes; K],
        ) {
            let mut v = [V::splat(0.0); K];
            for (d, inv) in inv_l2.iter().enumerate() {
                let inv = V::load(inv);
                let sq = &planes[d * np + p..][..K];
                for k in 0..K {
                    v[k] = v[k].add(V::splat(sq[k]).mul(inv));
                }
            }
            for (a, v) in out.iter_mut().zip(v) {
                v.store(a);
            }
        }

        /// `v − Σ_k a[k]·b[k]`, one subtraction at a time in ascending `k`.
        #[inline]
        $(#[$feature])?
        fn sub_dot(mut v: V, a: &[Lanes], b: &[Lanes]) -> V {
            for (x, y) in a.iter().zip(b) {
                v = v.sub(V::load(x).mul(V::load(y)));
            }
            v
        }

        /// [`sub_dot`] over `k < b.len()`, except that in the last
        /// `b.len() mod 4` terms a lane skips its subtraction where its
        /// `b[k]` is zero, as the scalar factor's remainder columns do.
        #[inline]
        $(#[$feature])?
        fn sub_dot_skipping_zeros(v: V, a: &[Lanes], b: &[Lanes]) -> V {
            let blocked = b.len() - b.len() % 4;
            let mut v = sub_dot(v, &a[..blocked], &b[..blocked]);
            for (x, y) in a[blocked..b.len()].iter().zip(&b[blocked..]) {
                let y = V::load(y);
                v = y.is_zero().select(v, v.sub(V::load(x).mul(y)));
            }
            v
        }

        /// Factor every lane's `K + jitter·I` into `l` (lower triangle
        /// packed by row: row `i` at `i(i+1)/2` holds columns `0..=i`), one
        /// column at a time from `diag` and the pair `entries` (column
        /// `j`'s pairs follow column `j − 1`'s), so a retry starts from K
        /// exactly. As each column is finished, the forward solve
        /// `L y = z` gains its row `j`.
        ///
        /// Returns the lanes that hit a non-positive or non-finite pivot,
        /// and each lane's `Σ y²`.
        #[inline(never)]
        $(#[$feature])?
        pub(in crate::fastpath) fn factor(
            diag: Lanes,
            jitter: Lanes,
            entries: &[Lanes],
            z: &[f64],
            l: &mut [Lanes],
            y: &mut [Lanes],
        ) -> ([bool; LANES], Lanes) {
            let n = z.len();
            let d0 = V::load(&diag).add(V::load(&jitter));
            let mut failed = [false; LANES];
            let mut quad = V::splat(0.0);
            // `rj`: row j's offset in `l`; `pj`: column j's first pair in `entries`.
            let (mut rj, mut pj) = (0, 0);
            for j in 0..n {
                let (above, below) = l.split_at_mut(rj + j);
                let row_j = &above[rj..];
                let pivot = sub_dot_skipping_zeros(d0, row_j, row_j);
                let good = pivot.is_positive_finite().set_lanes();
                for t in 0..LANES {
                    failed[t] |= !good[t];
                }
                let root = pivot.sqrt();
                let ljj = pivot.div(root);
                ljj.store(&mut below[0]);
                // Row i > j starts at i(i+1)/2, `below[ri − rj − j]`.
                let mut ri = rj + j + 1;
                for (i, e) in (j + 1..n).zip(&entries[pj..pj + n - j - 1]) {
                    let row_i = &mut below[ri - rj - j..ri - rj + 1];
                    let v = sub_dot_skipping_zeros(V::load(e), &row_i[..j], row_j);
                    v.div(root).store(&mut row_i[j]);
                    ri += i + 1;
                }
                let yj = sub_dot(V::splat(z[j]), row_j, &y[..j]).div(ljj);
                yj.store(&mut y[j]);
                quad = quad.add(yj.mul(yj));
                rj += j + 1;
                pj += n - j - 1;
            }
            (failed, quad.to_array())
        }

        /// `Σ_j ln L_jj` over a row-packed factor, in ascending `j`.
        #[inline(never)]
        $(#[$feature])?
        pub(in crate::fastpath) fn log_diagonal(l: &[Lanes]) -> Lanes {
            let mut sum = V::splat(0.0);
            let (mut j, mut at) = (0, 0);
            while at < l.len() {
                sum = sum.add(V::load(&l[at]).ln());
                j += 1;
                at += j + 1;
            }
            sum.to_array()
        }
    };
}

/// The baseline compilation, with libm's `exp` and `ln`.
pub(super) mod baseline {
    lane_kernels!(crate::fastpath::Libm, crate::fastpath::vector::Array4);
}

/// The AVX2 + FMA compilation, with the `exp` and `log` ports. Callers must
/// have checked [`super::super::fast_path_enabled`].
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
pub(super) mod avx2 {
    lane_kernels!(
        crate::fastpath::port::Port,
        crate::fastpath::vector::Ymm,
        #[target_feature(enable = "avx2,fma")]
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chol, Mat};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const JITTER: (f64, usize) = (1e-12, 6);

    /// The one-θ evaluation, operation for operation: `exp` of each θ,
    /// 4-plane-blocked accumulation, the family's correlation, K's lower
    /// triangle with diagonal `sf2 + sn2`, the jitter-escalating Cholesky,
    /// the forward solve and the final sum. Returns the value and the
    /// jitter the factorisation needed.
    fn scalar_nlml(p: &NlmlProblem<'_>, theta: &[f64]) -> (f64, f64) {
        let (n, dim) = (p.n, p.dim);
        let np = p.pairs();
        let et: Vec<f64> = theta.iter().map(|v| v.exp()).collect();
        let (sf2, sn2) = (et[0], et[dim + 1]);
        let mut acc = vec![0.0; np];
        let mut d = 0;
        while d + 4 <= dim {
            let inv = |dd: usize| 1.0 / (et[1 + dd] * et[1 + dd]);
            let (i0, i1, i2, i3) = (inv(d), inv(d + 1), inv(d + 2), inv(d + 3));
            for (q, a) in acc.iter_mut().enumerate() {
                let mut v = *a;
                v += p.planes[d * np + q] * i0;
                v += p.planes[(d + 1) * np + q] * i1;
                v += p.planes[(d + 2) * np + q] * i2;
                v += p.planes[(d + 3) * np + q] * i3;
                *a = v;
            }
            d += 4;
        }
        for d in d..dim {
            let inv = 1.0 / (et[1 + d] * et[1 + d]);
            for (q, a) in acc.iter_mut().enumerate() {
                *a += p.planes[d * np + q] * inv;
            }
        }
        let rho = |v: f64| match p.kind {
            Correlation::SquaredExp => sf2 * (-0.5 * v).exp(),
            Correlation::Matern32 => {
                let s = 3.0_f64.sqrt() * v.sqrt();
                sf2 * ((1.0 + s) * (-s).exp())
            }
            Correlation::Matern52 => {
                let s = 5.0_f64.sqrt() * v.sqrt();
                sf2 * ((1.0 + s + s * s / 3.0) * (-s).exp())
            }
        };
        let mut k = Mat::zeros(n, n);
        let mut q = 0;
        for j in 0..n {
            k[(j, j)] = sf2;
            for i in j + 1..n {
                k[(i, j)] = rho(acc[q]);
                q += 1;
            }
        }
        k.add_diag(sn2);
        let Ok(chol) = Chol::factor_with_jitter(&k, p.jitter.0, p.jitter.1) else {
            return (f64::INFINITY, f64::NAN);
        };
        let y = chol.solve_lower(p.z);
        let quad: f64 = y.iter().map(|v| v * v).sum();
        let value =
            0.5 * quad + 0.5 * chol.log_det() + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        (value, chol.jitter())
    }

    /// Dim-major pair planes of `xs`, in the evaluator's layout.
    fn planes_of(xs: &[Vec<f64>]) -> Vec<f64> {
        let (n, dim) = (xs.len(), xs[0].len());
        let mut out = Vec::new();
        for d in 0..dim {
            for j in 0..n {
                for row in &xs[j + 1..] {
                    let diff = row[d] - xs[j][d];
                    out.push(diff * diff);
                }
            }
        }
        out
    }

    /// `n` points in the unit cube, a third of them duplicates (r² = 0).
    fn inputs(rng: &mut SmallRng, n: usize, dim: usize) -> Vec<Vec<f64>> {
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            if i % 3 == 2 {
                xs.push(xs[i / 2].clone());
            } else {
                xs.push((0..dim).map(|_| rng.gen::<f64>()).collect());
            }
        }
        xs
    }

    /// θ vectors spanning the fit's box and its soft walls: inside, at
    /// every edge (tiny lengthscales put far pairs' `exp` arguments past
    /// −512), exactly zero (`exp(0)` is off the port's main range), very
    /// long lengthscales with vanishing noise (near-singular K that needs
    /// jitter), and a NaN that no jitter can rescue.
    fn thetas(rng: &mut SmallRng, dim: usize) -> Vec<Vec<f64>> {
        let (ls_lo, ls_hi) = ((0.02f64).ln() - 0.7, (20.0f64).ln() + 0.7);
        let (sf_lo, sf_hi) = ((0.05f64).ln() - 0.7, (20.0f64).ln() + 0.7);
        let (sn_lo, sn_hi) = ((1e-6f64).ln() - 0.7, 0.7);
        let with = |sf: f64, ls: f64, sn: f64| {
            let mut t = vec![sf];
            t.extend(std::iter::repeat_n(ls, dim));
            t.push(sn);
            t
        };
        let mut out = vec![
            with(sf_lo, ls_lo, sn_lo),
            with(sf_hi, 8.0, -40.0),
            with(sf_hi, ls_hi, sn_hi),
            with(0.0, 0.0, 0.0),
            with(0.0, 6.0, -36.0),
            with(f64::NAN, 0.0, 0.0),
            with(sf_hi, ls_hi, sn_lo),
            with(sf_lo, ls_hi, sn_lo),
        ];
        for _ in 0..9 {
            let mut t = vec![rng.gen_range(sf_lo..sf_hi)];
            t.extend((0..dim).map(|_| rng.gen_range(ls_lo..ls_hi)));
            t.push(rng.gen_range(sn_lo..sn_hi));
            out.push(t);
        }
        out
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn featured() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// Each compilation of the body that can run here, with its name.
    fn compilations(s: &mut NlmlLanes, p: &NlmlProblem<'_>) -> Vec<(&'static str, Lanes)> {
        let mut out = vec![("baseline", baseline::nlml(s, p))];
        #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
        if featured() {
            // SAFETY: both target features were detected just above.
            out.push(("avx2", unsafe { avx2::nlml(s, p) }));
        }
        out
    }

    #[test]
    fn every_lane_matches_the_scalar_evaluation_bitwise() {
        let mut rng = SmallRng::seed_from_u64(0x1a4e);
        let mut s = NlmlLanes::new();
        let (mut mixed_jitter, mut dead_lanes) = (0, 0);
        for kind in [Correlation::SquaredExp, Correlation::Matern32, Correlation::Matern52] {
            for n in [2usize, 3, 5, 8, 13, 29] {
                for dim in [1usize, 3, 4, 5, 8] {
                    let xs = inputs(&mut rng, n, dim);
                    let planes = planes_of(&xs);
                    let z: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    let p = NlmlProblem::new(kind, &planes, n, dim, &z, JITTER);
                    let all = thetas(&mut rng, dim);
                    // Batches of 4, 3, 2 and 1 θ: unused lanes repeat the first.
                    let mut rest = &all[..];
                    for width in [4usize, 4, 3, 2, 1].iter().cycle() {
                        if rest.is_empty() {
                            break;
                        }
                        let (batch, tail) = rest.split_at((*width).min(rest.len()));
                        rest = tail;
                        let refs: Vec<&[f64]> = batch.iter().map(|t| &t[..]).collect();
                        let want: Vec<(f64, f64)> =
                            refs.iter().map(|t| scalar_nlml(&p, t)).collect();
                        let jittered = want.iter().filter(|w| w.1 > 0.0).count();
                        mixed_jitter += usize::from(jittered > 0 && jittered < want.len());
                        dead_lanes += want.iter().filter(|w| w.0 == f64::INFINITY).count();
                        s.stage(&refs, dim + 2);
                        for (name, got) in compilations(&mut s, &p) {
                            for (t, w) in want.iter().enumerate() {
                                assert_eq!(
                                    got[t].to_bits(),
                                    w.0.to_bits(),
                                    "{name} {kind:?} n={n} dim={dim} θ={:?}: {} vs {}",
                                    refs[t],
                                    got[t],
                                    w.0
                                );
                            }
                        }
                        // The dispatched entry point agrees too.
                        let mut out = [f64::NAN; LANES];
                        s.eval(&p, &refs, &mut out);
                        for (got, w) in out.iter().zip(&want) {
                            assert_eq!(got.to_bits(), w.0.to_bits(), "dispatch {kind:?} n={n}");
                        }
                    }
                }
            }
        }
        // The cold paths ran: some batches mixed jittered and clean lanes,
        // and some lanes ran out of tries.
        assert!(mixed_jitter > 0, "no batch mixed jittered and clean lanes");
        assert!(dead_lanes > 0, "no lane exhausted its jitter retries");
    }

    /// One compilation's fused factorisation and solve: the row-packed
    /// factor, `y`, the failed lanes, `Σ y²` and `Σ ln L_jj`.
    struct Fused {
        name: &'static str,
        l: Vec<Lanes>,
        y: Vec<Lanes>,
        failed: [bool; LANES],
        quad: Lanes,
        log_sum: Lanes,
    }

    /// Each compilation's fused factorisation and solve.
    fn factors(diag: Lanes, jitter: Lanes, entries: &[Lanes], z: &[f64]) -> Vec<Fused> {
        let n = z.len();
        let fresh = || (vec![[f64::NAN; LANES]; n * (n + 1) / 2], vec![[f64::NAN; LANES]; n]);
        let (mut l, mut y) = fresh();
        let (failed, quad) = baseline::factor(diag, jitter, entries, z, &mut l, &mut y);
        let log_sum = baseline::log_diagonal(&l);
        let mut out = vec![Fused { name: "baseline", l, y, failed, quad, log_sum }];
        #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
        if featured() {
            let (mut l, mut y) = fresh();
            // SAFETY: both target features were detected just above.
            let (failed, quad) = unsafe { avx2::factor(diag, jitter, entries, z, &mut l, &mut y) };
            // SAFETY: as above.
            let log_sum = unsafe { avx2::log_diagonal(&l) };
            out.push(Fused { name: "avx2", l, y, failed, quad, log_sum });
        }
        out
    }

    /// The scalar factorisation, forward solve, `Σ y²` and `Σ ln L_jj` of
    /// `a + jitter·I`, or `None` where the factorisation fails.
    fn scalar_factor(a: &Mat, jitter: f64, z: &[f64]) -> Option<(Mat, Vec<f64>, f64, f64)> {
        let n = a.rows();
        let mut l = Mat::zeros(n, n);
        crate::chol::factor_into(a, jitter, &mut l).ok()?;
        let mut y = z.to_vec();
        crate::chol::solve_lower_in_place(&l, &mut y);
        let (mut quad, mut log_sum) = (0.0, 0.0);
        for (j, v) in y.iter().enumerate() {
            quad += v * v;
            log_sum += l[(j, j)].ln();
        }
        Some((l, y, quad, log_sum))
    }

    #[test]
    fn every_lane_factors_as_the_scalar_cholesky_does() {
        // Lane 0 holds a matrix with signed zeros: without the per-lane
        // zero-`l_jk` skip, `−0 − (−0.5 · +0)` would give +0 where the
        // scalar body keeps −0, and the targets' own −0 must come through
        // the solve. The other lanes hold seeded SPD matrices (one made
        // indefinite) with a constant diagonal, as K has; in a second
        // round lane 2's diagonal is NaN, a lane no jitter can rescue.
        let mut rng = SmallRng::seed_from_u64(0xfac7);
        let (mut failures, mut mixed) = (0, 0);
        for n in [1usize, 2, 3, 4, 5, 6, 9, 13, 29] {
            let mut mats: Vec<Mat> = Vec::new();
            let mut crafted = Mat::zeros(n, n);
            for i in 0..n {
                crafted[(i, i)] = 1.0;
            }
            if n >= 3 {
                crafted[(2, 1)] = -0.0;
                crafted[(2, 0)] = -0.5;
            }
            mats.push(crafted);
            for lane in 1..LANES {
                let b = Mat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
                let mut a = b.matmul(&b.transpose());
                let mean = (0..n).map(|i| a[(i, i)]).sum::<f64>() / n as f64;
                for i in 0..n {
                    a[(i, i)] = if lane == 3 { 0.05 * mean } else { mean + 0.1 };
                }
                mats.push(a);
            }
            let z: Vec<f64> =
                (0..n).map(|i| if i % 3 == 1 { -0.0 } else { rng.gen_range(-2.0..2.0) }).collect();
            for nan_lane in [false, true] {
                if nan_lane {
                    for i in 0..n {
                        mats[2][(i, i)] = f64::NAN;
                    }
                }
                let mut diag = [0.0; LANES];
                let mut entries = vec![[0.0; LANES]; n * (n - 1) / 2];
                for (t, a) in mats.iter().enumerate() {
                    diag[t] = a[(0, 0)];
                    let mut p = 0;
                    for j in 0..n {
                        for i in j + 1..n {
                            entries[p][t] = a[(i, j)];
                            p += 1;
                        }
                    }
                }
                for jitter in [[0.0; LANES], [0.0, 1e-9, 1e-6, 1e-3]] {
                    for got in factors(diag, jitter, &entries, &z) {
                        let name = got.name;
                        let mut failed = 0;
                        for (t, a) in mats.iter().enumerate() {
                            let want = scalar_factor(a, jitter[t], &z);
                            assert_eq!(got.failed[t], want.is_none(), "{name} n={n} lane {t}");
                            let Some((want_l, want_y, quad, log_sum)) = want else {
                                failed += 1;
                                continue;
                            };
                            let mut o = 0;
                            for i in 0..n {
                                for j in 0..=i {
                                    let (g, w) = (got.l[o + j][t], want_l[(i, j)]);
                                    let what = format!("{name} n={n} lane {t} L[{i}][{j}]");
                                    assert_eq!(g.to_bits(), w.to_bits(), "{what}");
                                }
                                o += i + 1;
                            }
                            for (j, w) in want_y.iter().enumerate() {
                                let g = got.y[j][t];
                                let what = format!("{name} n={n} lane {t} y[{j}]");
                                assert_eq!(g.to_bits(), w.to_bits(), "{what}");
                            }
                            assert_eq!(got.quad[t].to_bits(), quad.to_bits(), "{name} Σ y²");
                            assert_eq!(got.log_sum[t].to_bits(), log_sum.to_bits(), "{name} Σ ln");
                        }
                        failures += failed;
                        mixed += usize::from(failed > 0 && failed < LANES);
                    }
                }
            }
        }
        assert!(failures > 0, "no lane hit a bad pivot");
        assert!(mixed > 0, "no batch mixed failed and factored lanes");
    }

    #[test]
    #[should_panic(expected = "θ length")]
    fn a_short_theta_is_rejected() {
        let planes = [0.25];
        let p = NlmlProblem::new(Correlation::Matern52, &planes, 2, 1, &[0.5, -0.5], JITTER);
        NlmlLanes::new().eval(&p, &[&[0.0, 0.0]], &mut [0.0]);
    }
}
