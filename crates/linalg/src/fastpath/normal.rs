//! The standard normal's Φ and φ over a batch, four arguments at a time,
//! bit for bit [`crate::norm_cdf`] and [`crate::norm_pdf`] per element.
//!
//! Expected improvement needs `Φ(z)` and `φ(z)` for every admitted
//! candidate of a BO step. `Φ` goes through `stats::erfc`, whose
//! recurrences (a Maclaurin series and Lentz's continued fraction) are
//! each a long chain of dependent divides: one argument at a time, the
//! divider sits idle waiting on the previous step. Here eight arguments
//! of the same branch run through the recurrence side by side, one lane
//! each in two four-lane blocks of the lane value of `fastpath/vector.rs`
//! (two independent chains keep the divider busy), compiled for the
//! baseline target and under `avx2,fma`.
//!
//! # Per lane, the scalar operation sequence
//!
//! `Φ(x) = 0.5 · erfc(y)` with `y = (−x) · 1/√2`, and `erfc` branches on
//! `y`. Each argument joins a group of its own branch, and each lane of a
//! group performs the scalar function's operations in its order:
//!
//! - `y < −2`: the reflection `2 − erfc(−y)`, the continued fraction at
//!   `−y`; `y = −2` too, which the scalar code reaches through `erf` as
//!   `1 − (erfc(2) − 1)`, the same bits as `2 − erfc(2)` (the edge test
//!   pins it);
//! - `−2 < y < 2`: `1 − erf(y)`, erf's Maclaurin series, where `−y²` is a
//!   sign flip (not `0 − y²`), so that `±0` keeps its bits;
//! - otherwise (`y ≥ 2`, NaN): the continued fraction at `y`.
//!
//! A group iterates until every lane's own stopping test has fired; a
//! lane whose test fired keeps its sum (a select), so the iterations it
//! sits through change nothing. The caps (`n > 200` for the series,
//! `k > 300` for the fraction) stop the whole group, as they stop every
//! scalar evaluation at the same count. The fraction's `exp(−a²)` and
//! φ's `exp(−0.5·x·x)` go through the `exp` port, with [`f64::exp`] for
//! inputs off its main range.

// lint: allow(hot-index, file) — group slots index `[_; SLOTS]` arrays with `t < len ≤ SLOTS`
// (and their blocks with `t / LANES < BLOCKS`), and results are written at the batch indices
// the group recorded, each `< out.len()` because the batch loop enumerated them from an input
// of that length (checked equal on entry).

use crate::optimize::LANES;

/// `erfc`'s split between the series and the continued fraction.
const ERF_SPLIT: f64 = 2.0;

/// Four-lane blocks a group runs side by side: the recurrences are chains
/// of dependent divides, so two independent chains keep the divider busy
/// while each waits on its own previous step.
const BLOCKS: usize = 2;

/// Arguments per group.
const SLOTS: usize = BLOCKS * LANES;

/// Up to [`SLOTS`] arguments of one `erfc` branch, with where their
/// results go.
#[derive(Clone, Copy)]
struct Group {
    /// Index into the batch of each slot.
    at: [usize; SLOTS],
    /// The recurrence's argument: `y` for the series, `|y|` (`y` when it is
    /// NaN) for the fraction.
    arg: [f64; SLOTS],
    /// Whether a fraction slot's `erfc` is the reflection `2 − tail`
    /// (unused by the series).
    reflected: [bool; SLOTS],
    len: usize,
}

impl Group {
    const EMPTY: Group =
        Group { at: [0; SLOTS], arg: [0.0; SLOTS], reflected: [false; SLOTS], len: 0 };

    /// Add a slot; returns whether the group is now full.
    #[inline(always)]
    fn push(&mut self, at: usize, arg: f64, reflected: bool) -> bool {
        self.at[self.len] = at;
        self.arg[self.len] = arg;
        self.reflected[self.len] = reflected;
        self.len += 1;
        self.len == SLOTS
    }

    /// The arguments by block, unused slots repeating the first.
    #[inline(always)]
    fn blocks(&self) -> [[f64; LANES]; BLOCKS] {
        let mut a = self.arg;
        for v in &mut a[self.len..] {
            *v = self.arg[0];
        }
        let (blocks, _) = a.as_chunks::<LANES>();
        std::array::from_fn(|j| blocks[j])
    }
}

/// The passes, written once and compiled twice: `baseline` with the
/// `[f64; 4]` lane value and libm's `exp`, `avx2` with one `__m256d` and
/// the `exp` port under `#[target_feature(enable = "avx2,fma")]`.
macro_rules! normal_kernels {
    ($v:ty $(, #[$feature:meta])?) => {
        use super::{Group, BLOCKS, ERF_SPLIT};
        use crate::fastpath::vector::Lanes;
        use crate::optimize::LANES;
        use crate::stats::{INV_SQRT_2PI, INV_SQRT_PI, TINY};

        /// The lane value this compilation runs on.
        type V = $v;

        /// `out[i] = Φ(xs[i]) = 0.5 · erfc((−xs[i]) · 1/√2)`.
        $(#[$feature])?
        pub(in crate::fastpath) fn norm_cdf(xs: &[f64], out: &mut [f64]) {
            erfc_of(xs, out, |x| -x * std::f64::consts::FRAC_1_SQRT_2, 0.5);
        }

        /// `out[i] = erfc(ys[i])`, for the tests of the branch edges.
        #[cfg(test)]
        $(#[$feature])?
        pub(in crate::fastpath) fn erfc(ys: &[f64], out: &mut [f64]) {
            erfc_of(ys, out, |y| y, 1.0);
        }

        /// `out[i] = scale · erfc(y(xs[i]))`, grouping the arguments by
        /// branch.
        #[inline]
        $(#[$feature])?
        fn erfc_of(xs: &[f64], out: &mut [f64], y: impl Fn(f64) -> f64, scale: f64) {
            let (mut series, mut fraction) = (Group::EMPTY, Group::EMPTY);
            for (i, &x) in xs.iter().enumerate() {
                let y = y(x);
                if y.abs() < ERF_SPLIT {
                    if series.push(i, y, false) {
                        finish_series(&series, out, scale);
                        series.len = 0;
                    }
                    continue;
                }
                let reflected = y <= -ERF_SPLIT;
                if fraction.push(i, if reflected { -y } else { y }, reflected) {
                    finish_fraction(&fraction, out, scale);
                    fraction.len = 0;
                }
            }
            if series.len > 0 {
                finish_series(&series, out, scale);
            }
            if fraction.len > 0 {
                finish_fraction(&fraction, out, scale);
            }
        }

        /// `out[i] = φ(xs[i]) = 1/√(2π) · exp((−0.5·x)·x)`, four at a time;
        /// a short tail goes through a padded copy.
        #[inline(never)]
        $(#[$feature])?
        pub(in crate::fastpath) fn norm_pdf(xs: &[f64], out: &mut [f64]) {
            let (blocks, tail) = xs.as_chunks::<LANES>();
            let (outs, out_tail) = out.as_chunks_mut::<LANES>();
            for (x, o) in blocks.iter().zip(outs) {
                pdf_lanes(x).store(o);
            }
            if !tail.is_empty() {
                let mut x = [0.0; LANES];
                x[..tail.len()].copy_from_slice(tail);
                let y = pdf_lanes(&x).to_array();
                out_tail.copy_from_slice(&y[..tail.len()]);
            }
        }

        #[inline]
        $(#[$feature])?
        fn pdf_lanes(x: &Lanes) -> V {
            let x = V::load(x);
            V::splat(INV_SQRT_2PI).mul(V::splat(-0.5).mul(x).mul(x).exp())
        }

        /// `scale · (1 − 2/√π · Σ)` for a group of series arguments.
        #[inline(never)]
        $(#[$feature])?
        fn finish_series(g: &Group, out: &mut [f64], scale: f64) {
            let args = g.blocks();
            let sum = erf_series(std::array::from_fn(|j| V::load(&args[j])));
            let sum: [Lanes; BLOCKS] = std::array::from_fn(|j| sum[j].to_array());
            for t in 0..g.len {
                let erf = std::f64::consts::FRAC_2_SQRT_PI * sum[t / LANES][t % LANES];
                out[g.at[t]] = scale * (1.0 - erf);
            }
        }

        /// `scale · erfc` for a group of continued-fraction arguments: the
        /// tail `exp((−a)·a) · 1/√π · K`, reflected where the group says.
        #[inline(never)]
        $(#[$feature])?
        fn finish_fraction(g: &Group, out: &mut [f64], scale: f64) {
            let args = g.blocks();
            let x: [V; BLOCKS] = std::array::from_fn(|j| V::load(&args[j]));
            let f = erfc_fraction(x);
            let mut tails = [[0.0; LANES]; BLOCKS];
            for j in 0..BLOCKS {
                let e = x[j].neg().mul(x[j]).exp();
                tails[j] = e.mul(V::splat(INV_SQRT_PI)).mul(f[j]).to_array();
            }
            for t in 0..g.len {
                let tail = tails[t / LANES][t % LANES];
                let erfc = if g.reflected[t] { 2.0 - tail } else { tail };
                out[g.at[t]] = scale * erfc;
            }
        }

        /// erf's Maclaurin sum `Σ (−1)ⁿ y^{2n+1} / (n! (2n+1))` per lane,
        /// each lane stopping where `stats::erf` stops.
        #[inline]
        $(#[$feature])?
        fn erf_series(y: [V; BLOCKS]) -> [V; BLOCKS] {
            let (zero, all) = (V::splat(0.0), V::splat(f64::from_bits(!0)));
            let mut neg_y2 = y;
            for v in &mut neg_y2 {
                *v = v.mul(*v).neg();
            }
            let (mut term, mut sum, mut live) = (y, y, [all; BLOCKS]);
            let mut n = 0u32;
            loop {
                n += 1;
                let (nf, odd) = (V::splat(f64::from(n)), V::splat(f64::from(2 * n + 1)));
                let mut any = false;
                for j in 0..BLOCKS {
                    term[j] = term[j].mul(neg_y2[j].div(nf));
                    let contrib = term[j].div(odd);
                    let next = sum[j].add(contrib);
                    sum[j] = live[j].select(next, sum[j]);
                    let floor = V::splat(1e-18).mul(next.abs().max(V::splat(1e-300)));
                    live[j] = contrib.abs().lt(floor).select(zero, live[j]);
                    any |= live[j].set_lanes().contains(&true);
                }
                if n > 200 || !any {
                    break sum;
                }
            }
        }

        /// Lentz's continued fraction `K = 1/(x+) (1/2)/(x+) (2/2)/(x+) …`
        /// per lane, each lane stopping where `stats::erfc` stops.
        #[inline]
        $(#[$feature])?
        fn erfc_fraction(x: [V; BLOCKS]) -> [V; BLOCKS] {
            let (zero, all) = (V::splat(0.0), V::splat(f64::from_bits(!0)));
            let (tiny, one) = (V::splat(TINY), V::splat(1.0));
            let (mut f, mut c, mut d, mut live) = ([tiny; BLOCKS], [tiny; BLOCKS], [zero; BLOCKS], [all; BLOCKS]);
            let mut k = 0u32;
            loop {
                let a = V::splat(if k == 0 { 1.0 } else { f64::from(k) / 2.0 });
                let mut any = false;
                for j in 0..BLOCKS {
                    let dj = x[j].add(a.mul(d[j]));
                    let dj = dj.is_zero().select(tiny, dj);
                    let cj = x[j].add(a.div(c[j]));
                    c[j] = cj.is_zero().select(tiny, cj);
                    d[j] = one.div(dj);
                    let delta = c[j].mul(d[j]);
                    f[j] = live[j].select(f[j].mul(delta), f[j]);
                    let done = delta.sub(one).abs().lt(V::splat(1e-17));
                    live[j] = done.select(zero, live[j]);
                    any |= live[j].set_lanes().contains(&true);
                }
                if k > 300 || !any {
                    break f;
                }
                k += 1;
            }
        }
    };
}

/// The baseline compilation, with libm's `exp`.
pub(super) mod baseline {
    normal_kernels!(crate::fastpath::vector::Array4);
}

/// The AVX2 + FMA compilation, with the `exp` port. Callers must have
/// checked [`crate::fastpath::fast_path_enabled`].
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
pub(super) mod avx2 {
    normal_kernels!(crate::fastpath::vector::Ymm, #[target_feature(enable = "avx2,fma")]);
}
