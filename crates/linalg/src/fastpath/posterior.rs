//! A GP posterior over a batch of queries: the cross-covariance block
//! `K*` and, from it, each query's two reductions, bit for bit what
//! `mlcd-gp`'s one-query path computes.
//!
//! A BO step predicts the posterior at every candidate of its pool, so
//! `K*` holds `n · m` kernel values (n observations, m candidates, several
//! hundred of them). One pair or one column at a time, that work is
//! scalar: five divides, a square root, the Matérn `/3` and a libm `exp`
//! per pair, then per column a forward solve and two dot products, each a
//! chain of dependent operations. Both passes here run on the four-lane
//! value of `fastpath/vector.rs`, compiled for the baseline target and
//! under `avx2,fma` (with the `exp` port there).
//!
//! # The `K*` fill ([`super::cross_covariance`])
//!
//! Two sweeps over `K*`'s own column-major storage:
//!
//! 1. `r²` per pair, four observations of one column at a time: each lane
//!    starts at `0.0` and gains `z·z` with `z = (x_i[d] − q_c[d]) / ℓ_d`
//!    for each dimension in ascending `d`, exactly as
//!    `ArdKernel::scaled_dist` accumulates it. The observations are read
//!    dimension-major, so each dimension's four values are contiguous.
//! 2. The correlation in place, four entries at a time: `r = √r²`, then
//!    the family's expression as `KernelFamily::correlation` evaluates it
//!    from `r`, then `σ_f² ·` that value.
//!
//! The squared exponential here is `exp(−0.5·r·r)` with `r = √r²`, as the
//! posterior's kernel computes it, **not** the likelihood's `exp(−½·r²)`
//! (`lanes::SquaredExp`): `√r²·√r²` need not round back to `r²`. The
//! Matérn expressions take `s = √k·√r²` in both.
//!
//! # The moments ([`super::posterior_moments`])
//!
//! Four queries at a time, one lane each: their `K*` columns are
//! interleaved into a small block, and each lane runs the one-column
//! operations in their order: `Σ_i k*_i·α_i` from the empty sum's `−0.0`
//! (as `mlcd_linalg::dot` folds it), the forward solve `v = L⁻¹k*` (each
//! `v_i` loses `L_ij·v_j` for ascending `j`, then is divided by `L_ii`, as
//! `chol::solve_lower_in_place` does it), and `Σ_i v_i·v_i`. The solve
//! needs no `n × m` buffer: the block is the only scratch.

// lint: allow(hot-index, file) — the factor's pivots `lcol[j]` and sub-column `lcol[j + 1..]`
// index a column of the `n × n` factor with `j < n`, the block's rows `block[j]` and
// `block[j + 1..]` likewise; the tail copies index `b[..tail.len()]` with `tail.len() < LANES`.

use super::vector::Lanes;
use crate::optimize::LANES;

/// The four elements of `s` from `at`.
#[inline(always)]
fn lanes_at(s: &[f64], at: usize) -> Lanes {
    let mut a = [0.0; LANES];
    a.copy_from_slice(&s[at..at + LANES]);
    a
}

/// The passes, written once and compiled twice (see the module docs).
macro_rules! posterior_kernels {
    ($v:ty $(, #[$feature:meta])?) => {
        use super::lanes_at;
        use crate::fastpath::vector::Lanes;
        use crate::fastpath::Correlation;
        use crate::mat::Mat;
        use crate::optimize::LANES;

        /// The lane value this compilation runs on.
        type V = $v;

        /// Fill `out` (column-major, `n` rows, one column per query) with
        /// `signal_var · ρ` for every pair; see the module docs.
        $(#[$feature])?
        pub(in crate::fastpath) fn cross_covariance(
            kind: Correlation,
            signal_var: f64,
            lengthscales: &[f64],
            obs: &[f64],
            queries: &[f64],
            out: &mut [f64],
        ) {
            squared_distances(lengthscales, obs, queries, out);
            correlate(kind, signal_var, out);
        }

        /// For each query `c` in order, `f(Σ_i k*_ic·α_i, Σ_i v_i²)` with
        /// `v = L⁻¹ k*_c`, four queries at a time through `block` (see the
        /// module docs).
        $(#[$feature])?
        pub(in crate::fastpath) fn moments(
            l: &Mat,
            alpha: &[f64],
            kstar: &[f64],
            block: &mut Vec<Lanes>,
            mut f: impl FnMut(f64, f64),
        ) {
            let n = alpha.len();
            let m = kstar.len() / n;
            let empty_sum = V::splat(std::iter::empty::<f64>().sum::<f64>());
            block.clear();
            block.resize(n, [0.0; LANES]);
            for c in (0..m).step_by(LANES) {
                let width = (m - c).min(LANES);
                // Lane t holds query c + t; a short last block repeats its
                // last query.
                for t in 0..LANES {
                    let col = &kstar[(c + t.min(width - 1)) * n..][..n];
                    for (row, &k) in block.iter_mut().zip(col) {
                        row[t] = k;
                    }
                }
                let mut mean = empty_sum;
                for (row, &a) in block.iter().zip(alpha) {
                    mean = mean.add(V::load(row).mul(V::splat(a)));
                }
                for j in 0..n {
                    let lcol = l.col(j);
                    let (head, below) = block.split_at_mut(j + 1);
                    let vj = V::load(&head[j]).div(V::splat(lcol[j]));
                    vj.store(&mut head[j]);
                    for (row, &lij) in below.iter_mut().zip(&lcol[j + 1..]) {
                        V::load(row).sub(V::splat(lij).mul(vj)).store(row);
                    }
                }
                let mut sq = empty_sum;
                for row in block.iter() {
                    let v = V::load(row);
                    sq = sq.add(v.mul(v));
                }
                let (mean, sq) = (mean.to_array(), sq.to_array());
                for t in 0..width {
                    f(mean[t], sq[t]);
                }
            }
        }

        /// `r²` of every pair into `out`, one column per query, four
        /// observations at a time: each lane's sum stays in a register
        /// across the dimensions. A column whose length is not a multiple
        /// of four ends with a block that overlaps the one before it; the
        /// overlapped entries are recomputed with the same operations, so
        /// rewriting them changes no bit.
        #[inline(never)]
        $(#[$feature])?
        fn squared_distances(lengthscales: &[f64], obs: &[f64], queries: &[f64], out: &mut [f64]) {
            let dim = lengthscales.len();
            let n = obs.len() / dim;
            for (col, q) in out.chunks_exact_mut(n).zip(queries.chunks_exact(dim)) {
                if n < LANES {
                    for (i, r2) in col.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for ((plane, &qd), &l) in obs.chunks_exact(n).zip(q).zip(lengthscales) {
                            let z = (plane[i] - qd) / l;
                            acc += z * z;
                        }
                        *r2 = acc;
                    }
                    continue;
                }
                let mut i = 0;
                loop {
                    let at = i.min(n - LANES);
                    let mut acc = V::splat(0.0);
                    for ((plane, &qd), &l) in obs.chunks_exact(n).zip(q).zip(lengthscales) {
                        let x = V::load(&lanes_at(plane, at));
                        let z = x.sub(V::splat(qd)).div(V::splat(l));
                        acc = acc.add(z.mul(z));
                    }
                    col[at..at + LANES].copy_from_slice(&acc.to_array());
                    i += LANES;
                    if i >= n {
                        break;
                    }
                }
            }
        }

        /// `buf[e] ← signal_var · (poly · exp(x))` with `(x, poly)` the
        /// family's expression of `r = √buf[e]`, four elements at a time;
        /// a short tail goes through a padded copy.
        #[inline(never)]
        $(#[$feature])?
        fn correlate(kind: Correlation, signal_var: f64, buf: &mut [f64]) {
            let (blocks, tail) = buf.as_chunks_mut::<LANES>();
            for b in blocks {
                correlate_lanes(kind, signal_var, b);
            }
            if !tail.is_empty() {
                let mut b = [0.0; LANES];
                b[..tail.len()].copy_from_slice(tail);
                correlate_lanes(kind, signal_var, &mut b);
                tail.copy_from_slice(&b[..tail.len()]);
            }
        }

        /// One block of [`correlate`], in `KernelFamily::correlation`'s
        /// operations: `r = √r²`, then `exp(−0.5·r·r)`, `(1 + s)·exp(−s)`
        /// with `s = √3·r`, or `(1 + s + s·s/3)·exp(−s)` with `s = √5·r`.
        #[inline]
        $(#[$feature])?
        fn correlate_lanes(kind: Correlation, signal_var: f64, b: &mut Lanes) {
            let r = V::load(b).sqrt();
            let rho = match kind {
                Correlation::SquaredExp => V::splat(-0.5).mul(r).mul(r).exp(),
                Correlation::Matern32 => {
                    let s = V::splat(3.0_f64.sqrt()).mul(r);
                    V::splat(1.0).add(s).mul(s.neg().exp())
                }
                Correlation::Matern52 => {
                    let s = V::splat(5.0_f64.sqrt()).mul(r);
                    let poly = V::splat(1.0).add(s).add(s.mul(s).div(V::splat(3.0)));
                    poly.mul(s.neg().exp())
                }
            };
            V::splat(signal_var).mul(rho).store(b);
        }
    };
}

/// The baseline compilation, with libm's `exp`.
pub(super) mod baseline {
    posterior_kernels!(crate::fastpath::vector::Array4);
}

/// The AVX2 + FMA compilation, with the `exp` port. Callers must have
/// checked [`crate::fastpath::fast_path_enabled`].
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
pub(super) mod avx2 {
    posterior_kernels!(crate::fastpath::vector::Ymm, #[target_feature(enable = "avx2,fma")]);
}
