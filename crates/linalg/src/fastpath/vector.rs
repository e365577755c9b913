//! The four-lane `f64` value that the lane kernel's passes are written
//! against, in two backends with the same inherent methods:
//!
//! - [`Array4`], a plain `[f64; 4]` looped over lane by lane, for the
//!   baseline compilation; its `ln` is libm's;
//! - [`Ymm`], one AVX2 register, for the `avx2,fma` compilation, so that
//!   each operation on an element is one full-width instruction; its `ln`
//!   is the port in `fastpath/log.rs`.
//!
//! Every arithmetic method is one IEEE-754 operation per lane (add, sub,
//! mul, div, sqrt), rounded as the scalar operation rounds it, so a pass
//! gives the same bits in either backend. A mask is a value of the same
//! type whose lanes are all ones (set) or all zeros (clear), as the AVX
//! compares produce them; `select` picks by those bits. The only fused
//! multiply-adds are inside the `ln` and `exp` ports.
//!
//! `Ymm`'s methods carry `#[target_feature(enable = "avx2,fma")]`, so they
//! are safe to call only from code compiled with those features: the
//! `avx2` instantiation of the lane kernel. Its `unsafe` is confined to the
//! loads and stores, each from a reference to exactly four `f64`.

use crate::optimize::LANES;

/// One element for every lane, as the kernel's buffers store it.
pub(super) type Lanes = [f64; LANES];

/// The lane value of the baseline compilation.
#[derive(Debug, Clone, Copy)]
pub(super) struct Array4(Lanes);

/// All ones where `c` holds, all zeros elsewhere.
#[inline(always)]
fn mask_bit(c: bool) -> f64 {
    f64::from_bits(u64::from(c).wrapping_neg())
}

impl Array4 {
    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Array4(self.0.map(f))
    }

    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut out = self.0;
        for (x, y) in out.iter_mut().zip(o.0) {
            *x = f(*x, y);
        }
        Array4(out)
    }

    /// `v` in every lane.
    #[inline(always)]
    pub(super) fn splat(v: f64) -> Self {
        Array4([v; LANES])
    }

    /// The lanes of one buffer element.
    #[inline(always)]
    pub(super) fn load(src: &Lanes) -> Self {
        Array4(*src)
    }

    /// Write the lanes into one buffer element.
    #[inline(always)]
    pub(super) fn store(self, dst: &mut Lanes) {
        *dst = self.0;
    }

    /// The lanes as an array.
    #[inline(always)]
    pub(super) fn to_array(self) -> Lanes {
        self.0
    }

    #[inline(always)]
    pub(super) fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }

    #[inline(always)]
    pub(super) fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }

    #[inline(always)]
    pub(super) fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }

    #[inline(always)]
    pub(super) fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }

    #[inline(always)]
    pub(super) fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }

    /// The sign flipped (not `0 − lane`, which loses `−0`'s sign).
    #[inline(always)]
    pub(super) fn neg(self) -> Self {
        self.map(|a| -a)
    }

    /// The sign cleared.
    #[inline(always)]
    pub(super) fn abs(self) -> Self {
        self.map(f64::abs)
    }

    /// The larger lane, or `o`'s where either is NaN or both are zero, as
    /// x86's `maxpd` orders its operands.
    #[inline(always)]
    pub(super) fn max(self, o: Self) -> Self {
        self.zip(o, |a, b| if a > b { a } else { b })
    }

    /// Mask: `lane < o` (false where either is NaN).
    #[inline(always)]
    pub(super) fn lt(self, o: Self) -> Self {
        self.zip(o, |a, b| mask_bit(a < b))
    }

    /// The exponential, libm's.
    #[inline(always)]
    pub(super) fn exp(self) -> Self {
        self.map(f64::exp)
    }

    /// The natural logarithm, libm's.
    #[inline(always)]
    pub(super) fn ln(self) -> Self {
        self.map(f64::ln)
    }

    /// Mask: the lane is `±0`.
    #[inline(always)]
    pub(super) fn is_zero(self) -> Self {
        self.map(|a| mask_bit(crate::is_exact_zero(a)))
    }

    /// Mask: `0 < lane < +∞` (false for NaN).
    #[inline(always)]
    pub(super) fn is_positive_finite(self) -> Self {
        self.map(|a| mask_bit(a > 0.0 && a < f64::INFINITY))
    }

    /// `a` in the lanes where `self` (a mask) is set, `b` elsewhere, by
    /// bits (never a branch).
    #[inline(always)]
    pub(super) fn select(self, a: Self, b: Self) -> Self {
        let mut out = b.0;
        for ((o, m), x) in out.iter_mut().zip(self.0).zip(a.0) {
            let m = m.to_bits();
            *o = f64::from_bits((x.to_bits() & m) | (o.to_bits() & !m));
        }
        Array4(out)
    }

    /// The lanes where `self` (a mask) is set.
    #[inline(always)]
    pub(super) fn set_lanes(self) -> [bool; LANES] {
        self.0.map(|m| m.to_bits() != 0)
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
pub(super) use ymm::Ymm;

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod ymm {
    use super::{Lanes, LANES};
    use std::arch::x86_64::*;

    /// The lane value of the AVX2 compilation: one `__m256d`.
    #[derive(Debug, Clone, Copy)]
    pub(in crate::fastpath) struct Ymm(pub(in crate::fastpath) __m256d);

    impl Ymm {
        /// `v` in every lane.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn splat(v: f64) -> Self {
            Ymm(_mm256_set1_pd(v))
        }

        /// The lanes of one buffer element.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn load(src: &Lanes) -> Self {
            // SAFETY: `src` is a live reference to four contiguous `f64`,
            // 32 readable bytes; `loadu` has no alignment requirement.
            Ymm(unsafe { _mm256_loadu_pd(src.as_ptr()) })
        }

        /// Write the lanes into one buffer element.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn store(self, dst: &mut Lanes) {
            // SAFETY: `dst` is a unique live reference to four contiguous
            // `f64`, 32 writable bytes; `storeu` has no alignment requirement.
            unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), self.0) }
        }

        /// The lanes as an array.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn to_array(self) -> Lanes {
            let mut out = [0.0; LANES];
            self.store(&mut out);
            out
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn add(self, o: Self) -> Self {
            Ymm(_mm256_add_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn sub(self, o: Self) -> Self {
            Ymm(_mm256_sub_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn mul(self, o: Self) -> Self {
            Ymm(_mm256_mul_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn div(self, o: Self) -> Self {
            Ymm(_mm256_div_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn sqrt(self) -> Self {
            Ymm(_mm256_sqrt_pd(self.0))
        }

        /// The sign flipped (not `0 − lane`, which loses `−0`'s sign).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn neg(self) -> Self {
            Ymm(_mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)))
        }

        /// The sign cleared.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn abs(self) -> Self {
            Ymm(_mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0))
        }

        /// The larger lane, or `o`'s where either is NaN or both are zero
        /// (`maxpd`'s operand order).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn max(self, o: Self) -> Self {
            Ymm(_mm256_max_pd(self.0, o.0))
        }

        /// Mask: `lane < o` (false where either is NaN).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn lt(self, o: Self) -> Self {
            Ymm(_mm256_cmp_pd::<_CMP_LT_OQ>(self.0, o.0))
        }

        /// `self · b + c` with one rounding (the ports only).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn fma(self, b: Self, c: Self) -> Self {
            Ymm(_mm256_fmadd_pd(self.0, b.0, c.0))
        }

        /// The exponential, bit for bit glibc's (the `exp` port, with libm
        /// for lanes off its main range).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn exp(self) -> Self {
            crate::fastpath::port::exp_lanes(self)
        }

        /// The natural logarithm, bit for bit glibc's (see `fastpath/log.rs`).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn ln(self) -> Self {
            crate::fastpath::log::ln(self)
        }

        /// Mask: the lane is `±0`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn is_zero(self) -> Self {
            Ymm(_mm256_cmp_pd::<_CMP_EQ_OQ>(self.0, _mm256_setzero_pd()))
        }

        /// Mask: `0 < lane < +∞` (false for NaN).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn is_positive_finite(self) -> Self {
            let pos = _mm256_cmp_pd::<_CMP_GT_OQ>(self.0, _mm256_setzero_pd());
            let fin = _mm256_cmp_pd::<_CMP_LT_OQ>(self.0, _mm256_set1_pd(f64::INFINITY));
            Ymm(_mm256_and_pd(pos, fin))
        }

        /// `a` in the lanes where `self` (a mask) is set, `b` elsewhere.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn select(self, a: Self, b: Self) -> Self {
            Ymm(_mm256_blendv_pd(b.0, a.0, self.0))
        }

        /// The lanes where `self` (a mask) is set.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::fastpath) fn set_lanes(self) -> [bool; LANES] {
            let bits = _mm256_movemask_pd(self.0);
            std::array::from_fn(|t| bits >> t & 1 == 1)
        }
    }
}
