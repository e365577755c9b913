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
//! # Per lane, the scalar operation sequence
//!
//! Each lane performs the operations of a one-θ evaluation in that
//! evaluation's order, so its result has the same bits:
//!
//! - `exp(θ)` (the port, with `f64::exp` for off-range inputs), then
//!   `1.0 / (ℓ·ℓ)` per dimension;
//! - the squared distances accumulated from `0.0` over the dim-major planes
//!   in 4-dimension blocks, then the remainder, in ascending dimension;
//! - the correlation `sf2 · (poly · exp(x))` of each pair, with inputs off
//!   the port's main range (duplicate inputs give `exp(−0)`) recomputed by
//!   `f64::exp`;
//! - the diagonal `sf2`, then `+ sn2`, then `+ jitter`;
//! - the left-looking Cholesky, 4-column blocks then the remainder, whose
//!   zero-`l_jk` skip is a per-lane select; then the pivot test, the square
//!   root and the divide;
//! - the forward solve, `Σ y²`, `(Σ ln L_jj) · 2` and
//!   `0.5·quad + 0.5·logdet + 0.5·n·ln 2π`.
//!
//! A lane whose pivot fails retries with its own jitter,
//! `base · mean|K_ii| · 10^(a−1)` for attempt `a`, up to the retry limit;
//! the whole batch is refactored, and lanes that had succeeded redo the
//! same operations with the same jitter, so they keep their factor. A lane
//! out of tries returns `+∞`. Lanes never read each other's elements, so a
//! failing lane's values cannot reach another lane.
//!
//! No `mul_add` appears outside the `exp` port: Rust never contracts
//! `a * b + c`, so the AVX2 compilation rounds exactly as the baseline one.

// lint: allow(hot-index, file) — lane loops index `[f64; LANES]` arrays with `t < LANES`, element
// loops index slices of the element count they run to, and the packed-factor offsets are bounded
// by the order `n` checked in `NlmlProblem::check`; indexing keeps the loops straight-line so LLVM
// packs each element's lanes into one vector.

use super::{Correlation, LANES};

/// One element for every lane.
type Lanes = [f64; LANES];

/// What a likelihood evaluation runs over: the fit's fixed data.
#[derive(Debug, Clone, Copy)]
pub struct NlmlProblem<'a> {
    /// The correlation family.
    pub kind: Correlation,
    /// Pairwise squared differences, dimension-major: entry
    /// `d·n(n−1)/2 + p` for the pairs `(i, j)`, `j = 0..n`, `i = j+1..n`
    /// (the strict lower triangle in column order).
    pub planes: &'a [f64],
    /// Number of observations (at least 1).
    pub n: usize,
    /// Input dimensionality; θ has `dim + 2` entries
    /// `[log σ_f², log ℓ₁…log ℓ_d, log σ_n²]`.
    pub dim: usize,
    /// Standardised targets, one per observation.
    pub z: &'a [f64],
    /// Jitter policy: the base relative jitter and the number of retries.
    pub jitter: (f64, usize),
}

impl NlmlProblem<'_> {
    fn pairs(&self) -> usize {
        self.n * (self.n - 1) / 2
    }

    fn check(&self) {
        assert!(self.n >= 1, "NlmlProblem: no observations");
        assert_eq!(self.z.len(), self.n, "NlmlProblem: target count");
        assert_eq!(self.planes.len(), self.dim * self.pairs(), "NlmlProblem: plane size");
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
    /// The factor's lower triangle, packed by column.
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
    /// Panics on an inconsistent problem, on zero or more than [`LANES`]
    /// θ, on a θ of the wrong length, or on a short `out`.
    pub fn eval(&mut self, problem: &NlmlProblem<'_>, thetas: &[&[f64]], out: &mut [f64]) {
        problem.check();
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
/// with libm's `exp`, and `avx2` with the port under
/// `#[target_feature(enable = "avx2,fma")]`.
///
/// Each pass is its own function so that LLVM vectorises its loops on
/// their own (inlined into one large function, the `exp` loop stays
/// scalar). Calls between functions with the same target features are
/// safe, so the only `unsafe` is the dispatch into `avx2::nlml`.
macro_rules! lane_kernels {
    ($exp:ty $(, #[$feature:meta])?) => {
        use super::{Lanes, NlmlLanes, NlmlProblem, Rho, LANES};
        use super::{Matern32, Matern52, SquaredExp};
        use crate::fastpath::{Correlation, Exp};

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
                let mut inv = [0.0; LANES];
                for t in 0..LANES {
                    inv[t] = 1.0 / (l[t] * l[t]);
                }
                s.inv_l2.push(inv);
            }

            accumulate(p.planes, np, &s.inv_l2, &mut s.r2);
            // Every entry and every element of the factor's lower triangle
            // is written before it is read, so neither buffer is cleared.
            s.entries.resize(np, [0.0; LANES]);
            map_exp(&s.r2, &mut s.entries, R::arg, sf2);

            // K's diagonal is sf2 + sn2; each lane retries with its own jitter.
            let mut diag = [0.0; LANES];
            for t in 0..LANES {
                diag[t] = sf2[t] + sn2[t];
            }
            s.l.resize(n * (n + 1) / 2, [0.0; LANES]);
            let (base, max_tries) = p.jitter;
            let mut jitter = [0.0; LANES];
            let mut tries = [0usize; LANES];
            let mut dead = [false; LANES];
            loop {
                let failed = factor(n, diag, jitter, &s.entries, &mut s.l);
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
                    break;
                }
            }

            let (quad, log_sum) = solve(n, &s.l, p.z, &mut s.y);
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
            super::zip_each(out, [] as [&[f64]; 0], |o, []| {
                for t in 0..LANES {
                    o[t] *= scale[t];
                }
            });
        }

        /// `acc[p][t] = Σ_d planes[d][p] · inv_l2[d][t]`, accumulated from
        /// `0.0` four dimension planes per pass and then the remainder.
        /// Each element still receives its contributions one `d` at a time
        /// in ascending order.
        #[inline(never)]
        $(#[$feature])?
        fn accumulate(planes: &[f64], np: usize, inv_l2: &[Lanes], acc: &mut Vec<Lanes>) {
            acc.clear();
            acc.resize(np, [0.0; LANES]);
            let dim = inv_l2.len();
            let mut d = 0;
            while d + 4 <= dim {
                let (i0, i1, i2, i3) = (inv_l2[d], inv_l2[d + 1], inv_l2[d + 2], inv_l2[d + 3]);
                let block = &planes[d * np..(d + 4) * np];
                let (s0, rest) = block.split_at(np);
                let (s1, rest) = rest.split_at(np);
                let (s2, s3) = rest.split_at(np);
                super::zip_each(acc, [s0, s1, s2, s3], |a, [&a0, &a1, &a2, &a3]| {
                    for t in 0..LANES {
                        let mut v = a[t];
                        v += a0 * i0[t];
                        v += a1 * i1[t];
                        v += a2 * i2[t];
                        v += a3 * i3[t];
                        a[t] = v;
                    }
                });
                d += 4;
            }
            for (d, inv) in inv_l2.iter().enumerate().skip(d) {
                let sq = &planes[d * np..(d + 1) * np];
                super::zip_each(acc, [sq], |a, [&s]| {
                    for t in 0..LANES {
                        a[t] += s * inv[t];
                    }
                });
            }
        }

        /// Factor every lane's `K + jitter·I` into `l` (lower triangle
        /// packed by column: column `j` holds rows `j..n`). Column `j` is
        /// copied in from the diagonal and the pair entries as the
        /// factorisation reaches it, so a retry starts from K exactly.
        /// Returns the lanes that hit a non-positive or non-finite pivot.
        #[inline(never)]
        $(#[$feature])?
        pub(in crate::fastpath) fn factor(
            n: usize,
            diag: Lanes,
            jitter: Lanes,
            entries: &[Lanes],
            l: &mut [Lanes],
        ) -> [bool; LANES] {
            let mut failed = [false; LANES];
            // `oj`: column j's offset in `l`; `pj`: its first pair in `entries`.
            let (mut oj, mut pj) = (0, 0);
            for j in 0..n {
                let len = n - j;
                let (done, rest) = l.split_at_mut(oj);
                let col = &mut rest[..len];
                for t in 0..LANES {
                    col[0][t] = diag[t] + jitter[t];
                }
                col[1..].copy_from_slice(&entries[pj..pj + len - 1]);
                // Left-looking update from the finished columns k < j,
                // whose rows j..n sit at done[ok + (j − k)..ok + (n − k)],
                // four per pass.
                let rows = |k: usize, ok: usize| &done[ok + j - k..ok + n - k];
                let (mut k, mut ok) = (0, 0);
                while k + 4 <= j {
                    let o1 = ok + n - k;
                    let o2 = o1 + n - k - 1;
                    let o3 = o2 + n - k - 2;
                    let (c0, c1, c2, c3) =
                        (rows(k, ok), rows(k + 1, o1), rows(k + 2, o2), rows(k + 3, o3));
                    let (l0, l1, l2, l3) = (c0[0], c1[0], c2[0], c3[0]);
                    super::zip_each(col, [c0, c1, c2, c3], |x, [a0, a1, a2, a3]| {
                        for t in 0..LANES {
                            let mut v = x[t];
                            v -= a0[t] * l0[t];
                            v -= a1[t] * l1[t];
                            v -= a2[t] * l2[t];
                            v -= a3[t] * l3[t];
                            x[t] = v;
                        }
                    });
                    ok = o3 + n - k - 3;
                    k += 4;
                }
                for k in k..j {
                    let ck = rows(k, ok);
                    let ljk = ck[0];
                    let mut skip = [false; LANES];
                    for t in 0..LANES {
                        skip[t] = crate::is_exact_zero(ljk[t]);
                    }
                    super::zip_each(col, [ck], |x, [a]| {
                        for t in 0..LANES {
                            x[t] = super::select(skip[t], x[t], x[t] - a[t] * ljk[t]);
                        }
                    });
                    ok += n - k;
                }
                let mut root = [0.0; LANES];
                for t in 0..LANES {
                    let pivot = col[0][t];
                    failed[t] |= pivot <= 0.0 || !pivot.is_finite();
                    root[t] = pivot.sqrt();
                }
                super::zip_each(col, [] as [&[f64]; 0], |x, []| {
                    for t in 0..LANES {
                        x[t] /= root[t];
                    }
                });
                oj += len;
                pj += len - 1;
            }
            failed
        }

        /// The forward solve `L y = z` in every lane, then `Σ y²` and
        /// `Σ ln L_jj`.
        #[inline(never)]
        $(#[$feature])?
        fn solve(n: usize, l: &[Lanes], z: &[f64], y: &mut Vec<Lanes>) -> (Lanes, Lanes) {
            y.clear();
            y.extend(z.iter().map(|&v| [v; LANES]));
            let mut log_sum = [0.0; LANES];
            let mut oj = 0;
            for j in 0..n {
                let col = &l[oj..oj + (n - j)];
                let (head, below) = y[j..].split_at_mut(1);
                let yj = &mut head[0];
                for t in 0..LANES {
                    yj[t] /= col[0][t];
                }
                let yj = *yj;
                super::zip_each(below, [&col[1..]], |yi, [lij]| {
                    for t in 0..LANES {
                        yi[t] -= lij[t] * yj[t];
                    }
                });
                oj += n - j;
            }
            let mut quad = [0.0; LANES];
            for v in y.iter() {
                for t in 0..LANES {
                    quad[t] += v[t] * v[t];
                }
            }
            let mut oj = 0;
            for j in 0..n {
                let ljj = l[oj];
                for t in 0..LANES {
                    log_sum[t] += ljj[t].ln();
                }
                oj += n - j;
            }
            (quad, log_sum)
        }
    };
}

/// `f(x[e], [s[e] for s in srcs])` for every element `e` of `xs`, four
/// elements per pass.
///
/// Each `f` updates one element's four lanes. A pass over a fixed block of
/// four elements is unrolled early, which leaves each element's lanes to
/// LLVM's SLP vectoriser: one vector per element. A one-element loop is
/// instead vectorised across elements, with a shuffle per lane. Every
/// element is independent, so the grouping does not change any result.
///
/// # Panics
/// Panics if a source is shorter than `xs`.
#[inline(always)]
fn zip_each<T, const K: usize>(
    xs: &mut [Lanes],
    srcs: [&[T]; K],
    mut f: impl FnMut(&mut Lanes, [&T; K]),
) {
    let len = xs.len();
    let srcs = srcs.map(|s| s[..len].as_chunks::<4>());
    let (blocks, rest) = xs.as_chunks_mut::<4>();
    for (b, block) in blocks.iter_mut().enumerate() {
        for (e, x) in block.iter_mut().enumerate() {
            f(x, srcs.map(|(chunks, _)| &chunks[b][e]));
        }
    }
    for (e, x) in rest.iter_mut().enumerate() {
        f(x, srcs.map(|(_, tail)| &tail[e]));
    }
}

/// `a` where `keep` is set, else `b`, by bits (never a branch or a
/// masked store).
#[inline(always)]
fn select(keep: bool, a: f64, b: f64) -> f64 {
    let mask = u64::from(keep).wrapping_neg();
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// The baseline compilation, with libm's `exp`.
pub(super) mod baseline {
    lane_kernels!(crate::fastpath::Libm);
}

/// The AVX2 + FMA compilation, with the `exp` port. Callers must have
/// checked [`super::super::fast_path_enabled`].
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
pub(super) mod avx2 {
    lane_kernels!(crate::fastpath::port::Port, #[target_feature(enable = "avx2,fma")]);
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
                    let p = NlmlProblem { kind, planes: &planes, n, dim, z: &z, jitter: JITTER };
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

    /// Each compilation's lane factorisation, with its name.
    fn factors(
        n: usize,
        diag: Lanes,
        jitter: Lanes,
        entries: &[Lanes],
    ) -> Vec<(&'static str, Vec<Lanes>, [bool; LANES])> {
        let mut l = vec![[f64::NAN; LANES]; n * (n + 1) / 2];
        let failed = baseline::factor(n, diag, jitter, entries, &mut l);
        let mut out = vec![("baseline", l, failed)];
        #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
        if featured() {
            let mut l = vec![[f64::NAN; LANES]; n * (n + 1) / 2];
            // SAFETY: both target features were detected just above.
            let failed = unsafe { avx2::factor(n, diag, jitter, entries, &mut l) };
            out.push(("avx2", l, failed));
        }
        out
    }

    #[test]
    fn every_lane_factors_as_the_scalar_cholesky_does() {
        // Lane 0 holds a matrix with signed zeros: without the per-lane
        // zero-`l_jk` skip, `−0 − (−0.5 · +0)` would give +0 where the
        // scalar body keeps −0. The other lanes hold seeded SPD matrices
        // (one made indefinite) with a constant diagonal, as K has.
        let mut rng = SmallRng::seed_from_u64(0xfac7);
        let mut failures = 0;
        for n in [3usize, 4, 5, 6, 9, 13] {
            let mut mats: Vec<Mat> = Vec::new();
            let mut crafted = Mat::zeros(n, n);
            for i in 0..n {
                crafted[(i, i)] = 1.0;
            }
            crafted[(2, 1)] = -0.0;
            crafted[(2, 0)] = -0.5;
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
                for (name, l, failed) in factors(n, diag, jitter, &entries) {
                    for (t, a) in mats.iter().enumerate() {
                        let mut want = Mat::zeros(n, n);
                        let ok = crate::chol::factor_into(a, jitter[t], &mut want).is_ok();
                        assert_eq!(failed[t], !ok, "{name} n={n} lane {t}");
                        if !ok {
                            failures += 1;
                            continue;
                        }
                        let mut o = 0;
                        for j in 0..n {
                            for i in j..n {
                                let (got, w) = (l[o + i - j][t], want[(i, j)]);
                                assert_eq!(
                                    got.to_bits(),
                                    w.to_bits(),
                                    "{name} n={n} lane {t} L[{i}][{j}]"
                                );
                            }
                            o += n - j;
                        }
                    }
                }
            }
        }
        assert!(failures > 0, "no lane hit a bad pivot");
    }

    #[test]
    #[should_panic(expected = "θ length")]
    fn a_short_theta_is_rejected() {
        let planes = [0.25];
        let p = NlmlProblem {
            kind: Correlation::Matern52,
            planes: &planes,
            n: 2,
            dim: 1,
            z: &[0.5, -0.5],
            jitter: JITTER,
        };
        NlmlLanes::new().eval(&p, &[&[0.0, 0.0]], &mut [0.0]);
    }
}
