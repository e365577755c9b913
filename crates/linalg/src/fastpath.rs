//! GP fast path: bit-exact ports of glibc's `exp` and `log` and AVX2
//! compilations of the likelihood kernels and of the candidate-scoring
//! passes, chosen once per process.
//!
//! Every marginal-likelihood evaluation of a GP fit fills a kernel matrix
//! (one `exp` per pair of observations), factors it, runs one forward
//! solve and sums `ln L_jj`. The matrices are small (n = 2 to 30 or so in
//! a search), too narrow for vectors within one matrix, so the likelihood
//! is evaluated for [`LANES`] hyperparameter vectors at once, one AVX2
//! `f64` lane each: [`NlmlLanes`] (in `fastpath/lanes.rs`) holds that
//! evaluator, from the distance planes to the final sum. It and the
//! single-matrix Cholesky factorisation and forward solve behind
//! [`crate::Chol`] are each compiled twice from one source: once for the
//! baseline target and once under `#[target_feature(enable = "avx2,fma")]`.
//! The evaluator's passes after the correlation are written against a
//! four-lane value type (`fastpath/vector.rs`): `[f64; 4]` in the baseline
//! compilation, one `__m256d` in the AVX2 one.
//!
//! A BO step's scoring pass has three more, each compiled the same two
//! ways on the same lane type: the posterior's cross-covariance fill and
//! its per-query mean and forward solve, four queries at a time
//! ([`cross_covariance`], [`posterior_moments`], `fastpath/posterior.rs`),
//! and the standard normal's Φ and φ over a batch of arguments
//! ([`norm_cdf_into`], [`norm_pdf_into`], `fastpath/normal.rs`), whose
//! `erfc` recurrences run four arguments a lane each. Each lane performs
//! the scalar function's operations in its order, so every value has the
//! bits of the one-at-a-time path.
//!
//! # The `exp` port
//!
//! glibc (2.28 and later) evaluates `exp` with a fixed algorithm: reduce
//! `x = k·ln2/128 + r`, look `2^(k/128)` up in a 128-entry table, and
//! evaluate a degree-5 polynomial in `r`. On a CPU with FMA and AVX2 its
//! ifunc selects the `__exp_fma` build, whose fused multiply-adds sit at
//! fixed places. The port below reproduces that build step for step with
//! explicit [`f64::mul_add`]s at exactly those places, so on the main
//! range `2⁻⁵⁴ ≤ |x| < 512` it returns the same bits as [`f64::exp`]. The
//! port is branch-free, so LLVM vectorises the loops around it; inputs
//! outside the main range (tiny, huge, NaN, ±∞) are recomputed by
//! [`f64::exp`] in a second pass that runs only when such an input occurs.
//! The scoring passes call the same port written on four lanes (the
//! lane value's `exp`, the table read by two gathers), which the
//! self-check probes alongside the scalar one.
//!
//! # The `log` port
//!
//! `fastpath/log.rs` ports glibc's `__log_fma` the same way, on four
//! lanes at once: its table path and its near-1 polynomial, fused where
//! that build fuses. `1.0`, zero, subnormals, negatives, ±∞ and NaN go to
//! [`f64::ln`] in a fix-up pass.
//!
//! # Why the AVX2 copies are bit-identical
//!
//! Rust never contracts `a * b + c` into a fused multiply-add, and every
//! IEEE-754 add, multiply, divide and square root rounds the same at any
//! vector width, so a loop that LLVM vectorises with AVX2, or that is
//! written on `__m256d` one IEEE operation per lane at a time, produces
//! the same bits as its scalar compilation. The ports' fused operations
//! are the only ones, and they are fused in glibc too. Lanes never mix:
//! each lane performs the scalar evaluation's operations in the scalar
//! order.
//!
//! # Dispatch
//!
//! The AVX2 copies run only on x86_64 Linux with glibc, only when the CPU
//! reports both `fma` and `avx2` (the condition under which glibc's ifunc
//! picks `__exp_fma` and `__log_fma`), and only when a one-time self-check
//! passes: each port must equal libm bit for bit on probes covering every
//! table index and on inputs where glibc's result is not the correctly
//! rounded one (so a correctly rounding libm fails the check). Everywhere
//! else every kernel takes its baseline compilation with libm's `exp` and
//! `ln`, which is the same code the fast path replaces. One check decides
//! the whole fast path. [`fast_path_enabled`] reports the choice; it is
//! made once and cached, and neither it nor the self-check allocates.

// lint: allow(hot-index, file) — the one real index is the exp table lookup, `2·(ki & 127)`
// and `+ 1`, masked into 0..=255 for the 256-entry table and so in bounds by construction;
// LLVM proves the same and drops the check, which keeps the correlation loop vectorisable.
// The rule's other hits here are slice types after `mut` and array literals after `in`.

mod lanes;
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod log;
mod normal;
mod posterior;
mod vector;

pub use lanes::{NlmlLanes, NlmlProblem};

use crate::chol::{self, CholError};
use crate::mat::Mat;
use crate::optimize::LANES;

/// The stationary correlation `ρ` the likelihood applies to a squared
/// scaled distance `r²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correlation {
    /// Squared exponential, `ρ = exp(−½·r²)` (evaluated from `r²` directly,
    /// without a square root).
    SquaredExp,
    /// Matérn ν = 3/2, `ρ = (1 + s)·exp(−s)` with `s = √3·r`.
    Matern32,
    /// Matérn ν = 5/2, `ρ = (1 + s + s²/3)·exp(−s)` with `s = √5·r`.
    Matern52,
}

/// Whether this process runs the AVX2 kernels with the inlined `exp`
/// (decided once, on first use; see the module docs for the condition).
pub fn fast_path_enabled() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    {
        static FAST: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *FAST.get_or_init(avx2::detect)
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// The lane evaluator's body through the dispatch.
fn nlml_lanes(s: &mut NlmlLanes, p: &NlmlProblem<'_>) -> [f64; LANES] {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if fast_path_enabled() {
        // SAFETY: `fast_path_enabled` is true only after `is_x86_feature_detected!`
        // reported both `avx2` and `fma` on this CPU.
        return unsafe { lanes::avx2::nlml(s, p) };
    }
    lanes::baseline::nlml(s, p)
}

/// [`chol::factor_into`] through the dispatch.
pub(crate) fn factor_into(a: &Mat, jitter: f64, out: &mut Mat) -> Result<(), CholError> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if fast_path_enabled() {
        // SAFETY: `fast_path_enabled` is true only after `is_x86_feature_detected!`
        // reported both `avx2` and `fma` on this CPU.
        return unsafe { avx2::factor_into(a, jitter, out) };
    }
    chol::factor_into(a, jitter, out)
}

/// [`chol::solve_lower_in_place`] through the dispatch.
pub(crate) fn solve_lower_in_place(l: &Mat, y: &mut [f64]) {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if fast_path_enabled() {
        // SAFETY: `fast_path_enabled` is true only after `is_x86_feature_detected!`
        // reported both `avx2` and `fma` on this CPU.
        return unsafe { avx2::solve_lower_in_place(l, y) };
    }
    chol::solve_lower_in_place(l, y)
}

/// The cross-covariance block `K*` of a GP posterior: for `n`
/// observations and `m` queries in `lengthscales.len()` dimensions,
/// `out[c·n + i] = signal_var · ρ(r)` with
/// `r² = Σ_d ((obs[d·n + i] − queries[c·dim + d]) / ℓ_d)²`, column-major
/// with one column per query. Bit for bit what `mlcd-gp`'s
/// `ArdKernel::eval(x_i, q_c)` returns for the family `kind`, whose
/// squared exponential here is `exp(−0.5·r·r)` from `r = √r²` (see
/// `fastpath/posterior.rs`).
///
/// `obs` is dimension-major (all observations' first feature, then all
/// second features, …); `queries` holds one query's features after
/// another.
///
/// # Panics
/// Panics when there are no lengthscales or the buffers do not agree on
/// `n` and `m`.
pub fn cross_covariance(
    kind: Correlation,
    signal_var: f64,
    lengthscales: &[f64],
    obs: &[f64],
    queries: &[f64],
    out: &mut [f64],
) {
    let dim = lengthscales.len();
    assert!(dim > 0, "cross_covariance: no lengthscales");
    assert!(obs.len().is_multiple_of(dim), "cross_covariance: ragged observations");
    assert!(queries.len().is_multiple_of(dim), "cross_covariance: ragged queries");
    let (n, m) = (obs.len() / dim, queries.len() / dim);
    assert_eq!(out.len(), n * m, "cross_covariance: output size");
    if out.is_empty() {
        return;
    }
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if fast_path_enabled() {
        // SAFETY: `fast_path_enabled` is true only after `is_x86_feature_detected!`
        // reported both `avx2` and `fma` on this CPU.
        return unsafe {
            posterior::avx2::cross_covariance(kind, signal_var, lengthscales, obs, queries, out)
        };
    }
    posterior::baseline::cross_covariance(kind, signal_var, lengthscales, obs, queries, out)
}

/// The two reductions a GP posterior takes of each query's `K*` column,
/// four queries at a time: for every query `c` in order,
/// `f(mean, sq)` with `mean = Σ_i kstar[c·n + i]·alpha[i]` and
/// `sq = Σ_i v_i²` for `v = L⁻¹ k*_c` (`l` the lower Cholesky factor).
/// Bit for bit `dot(k*_c, α)` and `dot(v, v)` after
/// [`crate::Chol::solve_lower`] (see `fastpath/posterior.rs`). `block` is
/// scratch of `n` rows, kept by the caller so that a warm call allocates
/// nothing.
///
/// # Panics
/// Panics when `l` is not `n × n` for `n = alpha.len() > 0`, or `kstar`
/// is not whole columns of `n`.
pub fn posterior_moments(
    l: &Mat,
    alpha: &[f64],
    kstar: &[f64],
    block: &mut Vec<[f64; LANES]>,
    f: impl FnMut(f64, f64),
) {
    let n = alpha.len();
    assert!(n > 0 && l.rows() == n && l.cols() == n, "posterior_moments: factor order");
    assert!(kstar.len().is_multiple_of(n), "posterior_moments: ragged K*");
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if fast_path_enabled() {
        // SAFETY: `fast_path_enabled` is true only after `is_x86_feature_detected!`
        // reported both `avx2` and `fma` on this CPU.
        return unsafe { posterior::avx2::moments(l, alpha, kstar, block, f) };
    }
    posterior::baseline::moments(l, alpha, kstar, block, f)
}

/// `out[i] = Φ(xs[i])`, bit for bit [`crate::norm_cdf`], four arguments
/// at a time (see `fastpath/normal.rs`).
///
/// # Panics
/// Panics when the slices differ in length.
pub fn norm_cdf_into(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "norm_cdf_into: length mismatch");
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if fast_path_enabled() {
        // SAFETY: `fast_path_enabled` is true only after `is_x86_feature_detected!`
        // reported both `avx2` and `fma` on this CPU.
        return unsafe { normal::avx2::norm_cdf(xs, out) };
    }
    normal::baseline::norm_cdf(xs, out)
}

/// `out[i] = φ(xs[i])`, bit for bit [`crate::norm_pdf`].
///
/// # Panics
/// Panics when the slices differ in length.
pub fn norm_pdf_into(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "norm_pdf_into: length mismatch");
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if fast_path_enabled() {
        // SAFETY: `fast_path_enabled` is true only after `is_x86_feature_detected!`
        // reported both `avx2` and `fma` on this CPU.
        return unsafe { normal::avx2::norm_pdf(xs, out) };
    }
    normal::baseline::norm_pdf(xs, out)
}

/// An `exp` for the likelihood's passes: exact wherever `covers` holds,
/// unspecified (but harmless) elsewhere.
trait Exp {
    fn exp(x: f64) -> f64;
    fn covers(x: f64) -> bool;
}

/// libm's `exp`, exact everywhere: the baseline compilation.
struct Libm;

impl Exp for Libm {
    #[inline(always)]
    fn exp(x: f64) -> f64 {
        x.exp()
    }

    #[inline(always)]
    fn covers(_: f64) -> bool {
        true
    }
}

/// glibc's `exp` main path, ported from its `__exp_fma` build.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod port {
    use super::vector::Ymm;

    /// `128 / ln 2`.
    const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
    /// `1.5 · 2⁵²`: adding it rounds to an integer held in the low mantissa bits.
    const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
    /// `−ln 2 / 128`, high part (trailing zero bits make `k · hi` exact).
    const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
    /// `−ln 2 / 128`, low part.
    const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
    /// Polynomial coefficients for `exp(r) − 1 − r`.
    const C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
    const C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
    const C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
    const C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);

    /// glibc's `__exp_data.tab`: with `H_k = RN(2^(k/128))` and
    /// `T_k = RN(2^(k/128) / H_k − 1)`, entry `2k` is `bits(T_k)` and entry
    /// `2k + 1` is `bits(H_k) − (k << 45)`, so that adding `ki << 45`
    /// restores `H_k`'s exponent scaled by `2^⌊k/128⌋`.
    #[rustfmt::skip]
    static TAB: [u64; 256] = [
        0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
        0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
        0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
        0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
        0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
        0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
        0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
        0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
        0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
        0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
        0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
        0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
        0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
        0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
        0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
        0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
        0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
        0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
        0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
        0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
        0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
        0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
        0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
        0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
        0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
        0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
        0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
        0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
        0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
        0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
        0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
        0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
        0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
        0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
        0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
        0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
        0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
        0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
        0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
        0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
        0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
        0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
        0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
        0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
        0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
        0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
        0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
        0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
        0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
        0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
        0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
        0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
        0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
        0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
        0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
        0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
        0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
        0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
        0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
        0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
        0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
        0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
        0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
        0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
    ];

    /// Whether `x` is on the main path: `2⁻⁵⁴ ≤ |x| < 512`.
    #[inline(always)]
    pub(super) fn covers(x: f64) -> bool {
        let abstop = (x.to_bits() >> 52) & 0x7ff;
        abstop.wrapping_sub(0x3c9) < 0x408 - 0x3c9
    }

    /// `exp(x)` for `x` on the main path, with glibc's `__exp_fma` rounding.
    /// Off the main path the result is meaningless (but computed without
    /// panicking). Only call this from a function compiled with `fma`:
    /// elsewhere each `mul_add` becomes a libm call.
    #[inline(always)]
    pub(super) fn exp(x: f64) -> f64 {
        // x = k·ln2/128 + r with |r| ≤ ln2/256; `ki` holds k in its low bits.
        let kd = x.mul_add(INV_LN2_N, SHIFT);
        let ki = kd.to_bits();
        let kd = kd - SHIFT;
        let r = kd.mul_add(NEG_LN2_LO_N, kd.mul_add(NEG_LN2_HI_N, x));
        // 2^(k/128) = scale · (1 + tail).
        let idx = 2 * (ki & 127) as usize;
        let tail = f64::from_bits(TAB[idx]);
        let sbits = TAB[idx + 1].wrapping_add(ki << 45);
        let r2 = r * r;
        let tmp = (r2 * r2).mul_add(r.mul_add(C5, C4), r2.mul_add(r.mul_add(C3, C2), tail + r));
        let scale = f64::from_bits(sbits);
        scale.mul_add(tmp, scale)
    }

    /// [`exp`] on four lanes at once, the table read by two gathers; lanes
    /// off the main range are recomputed by [`f64::exp`], so every lane
    /// has libm's bits.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn exp_lanes(x: Ymm) -> Ymm {
        use std::arch::x86_64::*;
        let splat = Ymm::splat;
        let int = |v: i64| _mm256_set1_epi64x(v);
        let kd = x.fma(splat(INV_LN2_N), splat(SHIFT));
        let ki = _mm256_castpd_si256(kd.0);
        let kd = kd.sub(splat(SHIFT));
        let r = kd.fma(splat(NEG_LN2_LO_N), kd.fma(splat(NEG_LN2_HI_N), x));
        let at = _mm256_slli_epi64::<1>(_mm256_and_si256(ki, int(127)));
        let base = TAB.as_ptr().cast::<f64>();
        // SAFETY: every index is `2·(k & 127)`, so at most 254, inside the
        // 256-entry table; `u64` and `f64` have the same size and alignment.
        let tail = Ymm(unsafe { _mm256_i64gather_pd::<8>(base, at) });
        // SAFETY: as above, with `2·(k & 127) + 1 ≤ 255`.
        let hi = unsafe { _mm256_i64gather_pd::<8>(base, _mm256_add_epi64(at, int(1))) };
        let sbits = _mm256_add_epi64(_mm256_castpd_si256(hi), _mm256_slli_epi64::<45>(ki));
        let r2 = r.mul(r);
        let tmp = r2
            .mul(r2)
            .fma(r.fma(splat(C5), splat(C4)), r2.fma(r.fma(splat(C3), splat(C2)), tail.add(r)));
        let scale = Ymm(_mm256_castsi256_pd(sbits));
        let y = scale.fma(tmp, scale);
        // Off the main path (`2⁻⁵⁴ ≤ |x| < 512` fails): libm.
        let abstop =
            _mm256_and_si256(_mm256_srli_epi64::<52>(_mm256_castpd_si256(x.0)), int(0x7ff));
        let below = _mm256_cmpgt_epi64(int(0x3c9), abstop);
        let above = _mm256_cmpgt_epi64(abstop, int(0x407));
        let missed = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_or_si256(below, above)));
        if missed == 0 {
            return y;
        }
        let (xs, mut out) = (x.to_array(), y.to_array());
        for (t, (o, v)) in out.iter_mut().zip(xs).enumerate() {
            if missed >> t & 1 == 1 {
                *o = v.exp();
            }
        }
        Ymm::load(&out)
    }

    /// The port as an [`Exp`](super::Exp) for the featured instantiations.
    pub(super) struct Port;

    impl super::Exp for Port {
        #[inline(always)]
        fn exp(x: f64) -> f64 {
            exp(x)
        }

        #[inline(always)]
        fn covers(x: f64) -> bool {
            covers(x)
        }
    }
}

/// The AVX2 + FMA compilations and the one-time detection.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod avx2 {
    use super::port;
    use super::vector::Ymm;
    use super::{chol, CholError, Mat};

    /// Inputs where glibc's `exp` is not correctly rounded: a libm that
    /// rounds correctly (glibc before 2.28, or another libm) disagrees with
    /// the port on them and fails the self-check.
    const EXP_MISROUNDED: [u64; 6] = [
        0x4042_4ebd_d6c4_d0de, // 36.615…
        0xc043_7c27_3e71_c13b, // −38.969…
        0xc022_8496_a27b_c3dc, // −9.258…
        0xc011_8407_e751_1cd8, // −4.378…
        0x402c_bc46_07a1_4e2c, // 14.367…
        0xc03a_6454_8684_1297, // −26.391…
    ];

    /// Inputs where glibc's `log` is not correctly rounded, as above.
    const LOG_MISROUNDED: [u64; 8] = [
        0x3ff0_744a_b6c0_77cf, // 1.028…
        0x3ffb_2a6c_c0fe_8963, // 1.697…
        0x3fef_a126_e761_8881, // 0.988…
        0x3fee_ac54_fe12_fdc7, // 0.958…
        0x4002_e228_118f_fb37, // 2.360…
        0x3fe2_0096_5b25_9d77, // 0.562…
        0x3ff0_3a75_a6a9_6177, // 1.014…
        0x3ff0_7b40_effe_c12d, // 1.030…
    ];

    /// The edges of `log`'s near-1 window and the neighbours of 1.
    const LOG_EDGES: [u64; 6] = [
        0x3fed_ffff_ffff_ffff,
        0x3fee_0000_0000_0000,
        0x3fef_ffff_ffff_ffff,
        0x3ff0_0000_0000_0001,
        0x3ff1_08ff_ffff_ffff,
        0x3ff1_0900_0000_0000,
    ];

    /// A self-check probe on which a port disagreed with libm.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(super) struct Mismatch {
        /// `"exp"` or `"log"`.
        pub(super) function: &'static str,
        /// The input.
        pub(super) x: f64,
    }

    /// CPU check, then the self-check. Runs once per process.
    pub(super) fn detect() -> bool {
        if !(is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2")) {
            return false;
        }
        // SAFETY: both target features were detected just above.
        unsafe { first_mismatch() }.is_none()
    }

    /// The self-check: the first probe on which a port differs from libm,
    /// or `None`. The `exp` port is probed on every table index at several
    /// exponents and on [`EXP_MISROUNDED`]; the `log` port on every table
    /// index at several exponents (some fall in the near-1 window), on
    /// [`LOG_EDGES`] and on [`LOG_MISROUNDED`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn first_mismatch() -> Option<Mismatch> {
        let step = std::f64::consts::LN_2 / 128.0;
        for k in 0..128i32 {
            for m in [-600i32, -7, 0, 1, 600] {
                // Rounds to the table step 128·m + k, so `ki & 127 == k`.
                let x = (f64::from(128 * m + k) + 0.3) * step;
                if !exp_agrees(x) {
                    return Some(Mismatch { function: "exp", x });
                }
            }
        }
        let exp_hard = EXP_MISROUNDED.map(f64::from_bits);
        if let Some(&x) = exp_hard.iter().find(|&&x| !exp_agrees(x)) {
            return Some(Mismatch { function: "exp", x });
        }
        for i in 0..128u64 {
            for e in [-1020i64, -3, -1, 0, 1, 5, 1000] {
                // The middle of subinterval i, scaled by 2^e.
                let bits = 0x3fe6_0000_0000_0000 + (i << 45) + (1 << 44);
                let x = f64::from_bits(bits.wrapping_add_signed(e << 52));
                if !log_agrees(x) {
                    return Some(Mismatch { function: "log", x });
                }
            }
        }
        let log_hard = LOG_EDGES.into_iter().chain(LOG_MISROUNDED).map(f64::from_bits);
        log_hard.into_iter().find(|&x| !log_agrees(x)).map(|x| Mismatch { function: "log", x })
    }

    /// The scalar port and its four-lane form both give libm's bits.
    #[target_feature(enable = "avx2,fma")]
    fn exp_agrees(x: f64) -> bool {
        let x = std::hint::black_box(x);
        let want = x.exp().to_bits();
        let lanes = Ymm::splat(x).exp().to_array();
        port::covers(x)
            && port::exp(x).to_bits() == want
            && lanes.iter().all(|v| v.to_bits() == want)
    }

    #[target_feature(enable = "avx2,fma")]
    fn log_agrees(x: f64) -> bool {
        let x = std::hint::black_box(x);
        let got = Ymm::splat(x).ln().to_array();
        got.iter().all(|g| g.to_bits() == x.ln().to_bits())
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn factor_into(a: &Mat, jitter: f64, out: &mut Mat) -> Result<(), CholError> {
        chol::factor_into(a, jitter, out)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn solve_lower_in_place(l: &Mat, y: &mut [f64]) {
        chol::solve_lower_in_place(l, y)
    }
}

#[cfg(test)]
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Whether this CPU can run the featured copies at all.
    fn featured() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    #[target_feature(enable = "avx2,fma")]
    fn port_exp(x: f64) -> f64 {
        port::exp(x)
    }

    fn raw_port(x: f64) -> f64 {
        assert!(featured());
        // SAFETY: callers skip the test unless both features are present.
        unsafe { port_exp(x) }
    }

    /// The vector `log` port on four inputs.
    fn port_ln(xs: [f64; LANES]) -> [f64; LANES] {
        assert!(featured());
        #[target_feature(enable = "avx2,fma")]
        fn run(xs: [f64; LANES]) -> [f64; LANES] {
            vector::Ymm::load(&xs).ln().to_array()
        }
        // SAFETY: callers skip the test unless both features are present.
        unsafe { run(xs) }
    }

    /// The `log` port on `xs`, four at a time, against `f64::ln`; returns
    /// how many inputs were checked.
    fn assert_ln_matches(xs: impl Iterator<Item = f64>) -> u64 {
        let (mut batch, mut m, mut count) = ([1.0; LANES], 0, 0);
        let check = |batch: [f64; LANES]| {
            for (g, x) in port_ln(batch).into_iter().zip(batch) {
                let want = x.ln();
                assert!(same_bits(g, want), "log {x:e} ({:#x}): {g:e} vs {want:e}", x.to_bits());
            }
        };
        for x in xs {
            batch[m] = x;
            m += 1;
            count += 1;
            if m == LANES {
                check(batch);
                m = 0;
            }
        }
        check(batch);
        count
    }

    /// The same bits, or both NaN.
    fn same_bits(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    fn assert_same_bits(got: f64, want: f64, what: &str) {
        assert!(same_bits(got, want), "{what}: {got:e} vs {want:e}");
    }

    /// The lane `exp` on one value, through every compilation that runs
    /// here; all must agree before the value is returned.
    fn exp1(x: f64) -> f64 {
        let src = [[x; LANES]];
        let mut base = [[f64::NAN; LANES]];
        lanes::baseline::map_exp(&src, &mut base, |v| (v, 1.0), [1.0; LANES]);
        if featured() {
            let mut fast = [[f64::NAN; LANES]];
            // SAFETY: both target features were detected just above.
            unsafe { lanes::avx2::map_exp(&src, &mut fast, |v| (v, 1.0), [1.0; LANES]) };
            assert_eq!(format!("{fast:?}"), format!("{base:?}"), "x = {x:e}");
        }
        base[0][0]
    }

    #[test]
    fn fast_path_is_selected_on_glibc_hosts_with_avx2_and_fma() {
        // A failing self-check would silently leave every fit on the
        // baseline kernels; on a host where glibc's ifunc picks
        // `__exp_fma` that is a bug, not a fallback.
        if featured() {
            assert!(fast_path_enabled(), "avx2+fma glibc host did not select the fast path");
        }
        assert_eq!(fast_path_enabled(), fast_path_enabled(), "the choice is cached");
    }

    #[test]
    fn port_matches_libm_on_every_table_index() {
        if !featured() {
            return;
        }
        let step = std::f64::consts::LN_2 / 128.0;
        for k in 0..128i32 {
            for m in [-738i32, -300, -1, 0, 2, 300, 738] {
                for frac in [-0.49, -0.25, 0.0, 0.125, 0.4999] {
                    let x = (f64::from(128 * m + k) + frac) * step;
                    if !port::covers(x) {
                        continue;
                    }
                    assert_same_bits(raw_port(x), x.exp(), &format!("x = {x:e} (index {k})"));
                }
            }
        }
    }

    #[test]
    fn port_matches_libm_on_random_main_range_inputs() {
        if !featured() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(0xe4b);
        for i in 0..1_000_000 {
            // Alternate uniform draws with log-uniform magnitudes so the
            // small-|x| end of the main range is exercised too.
            let x = if i % 2 == 0 {
                rng.gen_range(-511.99..511.99)
            } else {
                let mag = rng.gen_range(-37.0f64..9.0).exp2();
                if rng.gen::<bool>() {
                    mag
                } else {
                    -mag
                }
            };
            if port::covers(x) {
                assert_same_bits(raw_port(x), x.exp(), &format!("x = {x:e}"));
            }
        }
    }

    #[test]
    #[ignore = "sweeps 10⁸ inputs; run with --ignored in release"]
    fn exp_port_sweep_matches_libm() {
        if !featured() {
            eprintln!("exp sweep skipped: no avx2+fma");
            return;
        }
        let mut rng = SmallRng::seed_from_u64(0xe4b5);
        let mut checked = 0u64;
        for i in 0..100_000_000u64 {
            // Uniform draws over the main range alternate with log-uniform
            // magnitudes down to its small end.
            let x = if i % 2 == 0 {
                rng.gen_range(-512.0..512.0)
            } else {
                let mag = rng.gen_range(-54.0f64..9.0).exp2();
                if rng.gen::<bool>() {
                    mag
                } else {
                    -mag
                }
            };
            if port::covers(x) {
                let (got, want) = (raw_port(x), x.exp());
                assert!(
                    same_bits(got, want),
                    "exp {x:e} ({:#x}): {got:e} vs {want:e}",
                    x.to_bits()
                );
                checked += 1;
            }
        }
        eprintln!("exp sweep: {checked} inputs equal libm");
        assert!(checked >= 99_000_000);
    }

    #[test]
    fn log_port_matches_libm_on_every_table_index_and_special_input() {
        if !featured() {
            return;
        }
        // Every subinterval, at several offsets within it and many scales
        // (subnormal and huge ones included), then the near-1 window's
        // edges, 1 and its neighbours, and the inputs left to libm.
        let mut xs = Vec::new();
        for i in 0..128u64 {
            for off in [0u64, 1, 1 << 20, 1 << 44, (1 << 45) - 1] {
                for e in [-1074i64, -1030, -1022, -200, -2, -1, 0, 1, 2, 300, 1023, 1024] {
                    let bits =
                        (0x3fe6_0000_0000_0000 + (i << 45) + off).wrapping_add_signed(e << 52);
                    xs.push(f64::from_bits(bits));
                }
            }
        }
        for edge in [0x3fee_0000_0000_0000u64, 0x3ff1_0900_0000_0000, 0x3ff0_0000_0000_0000] {
            for d in -3i64..=3 {
                xs.push(f64::from_bits(edge.wrapping_add_signed(d)));
            }
        }
        let specials = [
            0.0,
            -0.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_down(),
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        xs.extend(specials);
        assert_ln_matches(xs.into_iter());
    }

    #[test]
    fn log_port_matches_libm_on_random_inputs() {
        if !featured() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(0x109);
        let xs = (0..1_000_000).map(|i| match i % 3 {
            0 => f64::from_bits(rng.gen_range(0x0010_0000_0000_0000..0x7ff0_0000_0000_0000)),
            1 => rng.gen_range(0.9..1.1),
            _ => rng.gen_range(-12.0f64..12.0).exp2(),
        });
        assert_ln_matches(xs);
    }

    #[test]
    #[ignore = "sweeps 10⁸ inputs; run with --ignored in release"]
    fn log_port_sweep_matches_libm() {
        if !featured() {
            eprintln!("log sweep skipped: no avx2+fma");
            return;
        }
        // A third over every positive normal bit pattern, a third across
        // the near-1 window and its surroundings, a third log-uniform over
        // the magnitudes a factor's diagonal takes.
        let mut rng = SmallRng::seed_from_u64(0x1095);
        let xs = (0..100_000_000u64).map(|i| match i % 3 {
            0 => f64::from_bits(rng.gen_range(0x0010_0000_0000_0000..0x7ff0_0000_0000_0000)),
            1 => rng.gen_range(0.9..1.1),
            _ => rng.gen_range(-40.0f64..40.0).exp2(),
        });
        let checked = assert_ln_matches(xs);
        eprintln!("log sweep: {checked} inputs equal libm");
    }

    #[test]
    #[ignore = "a report for CI logs; run with --ignored --nocapture"]
    fn report_fast_path_selection() {
        if !featured() {
            println!("fast path: off (the CPU lacks avx2 or fma)");
        } else if fast_path_enabled() {
            println!("fast path: on (avx2+fma, the exp and log ports equal libm on every probe)");
        } else {
            // SAFETY: both target features were detected just above.
            let m = unsafe { avx2::first_mismatch() }.expect("the self-check failed on some probe");
            let port = match m.function {
                "exp" => raw_port(m.x),
                _ => port_ln([m.x; LANES])[0],
            };
            let libm = if m.function == "exp" { m.x.exp() } else { m.x.ln() };
            println!(
                "fast path: off; first disagreeing probe {}({:e} = {:#x}): port {:e}, libm {:e}",
                m.function,
                m.x,
                m.x.to_bits(),
                port,
                libm
            );
        }
    }

    #[test]
    fn lane_exp_matches_libm_at_the_edges_of_the_main_range() {
        let tiny = 2f64.powi(-54);
        let edges = [
            tiny,
            -tiny,
            512.0,
            -512.0,
            709.78,
            709.782_712_893_384,
            -745.13,
            -745.133_219_101_941_1,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            1e-300,
            -1e-300,
            1000.0,
            -1000.0,
        ];
        for e in edges {
            for x in [e, e.next_up(), e.next_down()] {
                assert_same_bits(exp1(x), x.exp(), &format!("x = {x:e}"));
            }
        }
    }

    /// The four-lane `exp` of the AVX2 lane value on four inputs.
    fn vector_exp(xs: [f64; LANES]) -> [f64; LANES] {
        assert!(featured());
        #[target_feature(enable = "avx2,fma")]
        fn run(xs: [f64; LANES]) -> [f64; LANES] {
            vector::Ymm::load(&xs).exp().to_array()
        }
        // SAFETY: callers skip the test unless both features are present.
        unsafe { run(xs) }
    }

    #[test]
    fn vector_exp_matches_libm_on_edges_and_random_inputs() {
        if !featured() {
            return;
        }
        let tiny = 2f64.powi(-54);
        let mut xs = vec![0.0, -0.0, 1e-300, -1e-300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for e in [tiny, -tiny, 512.0, -512.0, 709.78, -745.13, 1.0, -1.0] {
            xs.extend([e, e.next_up(), e.next_down()]);
        }
        let mut rng = SmallRng::seed_from_u64(0xe4);
        xs.extend((0..1_000_000).map(|_| rng.gen_range(-750.0..750.0)));
        for chunk in xs.chunks(LANES) {
            let mut batch = [chunk[0]; LANES];
            batch[..chunk.len()].copy_from_slice(chunk);
            for (g, x) in vector_exp(batch).into_iter().zip(batch) {
                assert_same_bits(g, x.exp(), &format!("exp({x:e})"));
            }
        }
    }

    #[test]
    fn lane_exp_matches_libm_on_random_inputs() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let mut xs = vec![[0.0; LANES]; 250];
        let mut base = vec![[0.0; LANES]; 250];
        let mut fast = vec![[0.0; LANES]; 250];
        for _ in 0..1000 {
            for x in xs.iter_mut().flatten() {
                *x = rng.gen_range(-745.0..710.0);
            }
            lanes::baseline::map_exp(&xs, &mut base, |v| (v, 1.0), [1.0; LANES]);
            if featured() {
                // SAFETY: both target features were detected just above.
                unsafe { lanes::avx2::map_exp(&xs, &mut fast, |v| (v, 1.0), [1.0; LANES]) };
                assert_eq!(fast, base);
            }
            for (&x, &y) in xs.iter().flatten().zip(base.iter().flatten()) {
                assert_same_bits(y, x.exp(), &format!("x = {x:e}"));
            }
        }
    }

    /// Squared distances spanning duplicates (r² = 0), the main range and
    /// far pairs whose `exp` argument falls past −512.
    fn random_r2(rng: &mut SmallRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 7 {
                0 => 0.0,
                1 => rng.gen_range(0.0..1e-30),
                2 => rng.gen_range(1e5..1e7),
                _ => rng.gen_range(0.0..60.0),
            })
            .collect()
    }

    /// The per-family expression `KernelFamily::correlation` evaluates.
    fn scalar_entry(kind: Correlation, sf2: f64, r2: f64) -> f64 {
        match kind {
            Correlation::SquaredExp => sf2 * (-0.5 * r2).exp(),
            Correlation::Matern32 => {
                let s = 3.0_f64.sqrt() * r2.sqrt();
                sf2 * ((1.0 + s) * (-s).exp())
            }
            Correlation::Matern52 => {
                let s = 5.0_f64.sqrt() * r2.sqrt();
                sf2 * ((1.0 + s + s * s / 3.0) * (-s).exp())
            }
        }
    }

    /// Both compilations of the lane correlation pass for family `R`; they
    /// must agree, and the baseline's values are returned.
    fn correlate_lanes<R: lanes::Rho>(r2: &[[f64; LANES]], sf2: [f64; LANES]) -> Vec<[f64; LANES]> {
        let mut base = vec![[f64::NAN; LANES]; r2.len()];
        lanes::baseline::map_exp(r2, &mut base, R::arg, sf2);
        if featured() {
            let mut fast = vec![[f64::NAN; LANES]; r2.len()];
            // SAFETY: both target features were detected just above.
            unsafe { lanes::avx2::map_exp(r2, &mut fast, R::arg, sf2) };
            for (f, b) in fast.iter().flatten().zip(base.iter().flatten()) {
                assert_eq!(f.to_bits(), b.to_bits());
            }
        }
        base
    }

    #[test]
    fn lane_correlation_matches_the_scalar_kernel_for_every_family() {
        let mut rng = SmallRng::seed_from_u64(17);
        for kind in [Correlation::SquaredExp, Correlation::Matern32, Correlation::Matern52] {
            for n in [0usize, 1, 3, 4, 7, 45, 1000] {
                let flat = random_r2(&mut rng, n * LANES);
                let r2: Vec<[f64; LANES]> =
                    flat.chunks_exact(LANES).map(|c| [c[0], c[1], c[2], c[3]]).collect();
                let sf2 = [(); LANES].map(|_| rng.gen_range(0.05..20.0));
                let got = match kind {
                    Correlation::SquaredExp => correlate_lanes::<lanes::SquaredExp>(&r2, sf2),
                    Correlation::Matern32 => correlate_lanes::<lanes::Matern32>(&r2, sf2),
                    Correlation::Matern52 => correlate_lanes::<lanes::Matern52>(&r2, sf2),
                };
                for (v, g) in r2.iter().zip(&got) {
                    for t in 0..LANES {
                        let want = scalar_entry(kind, sf2[t], v[t]);
                        assert_same_bits(g[t], want, &format!("{kind:?} r2 = {:e}", v[t]));
                    }
                }
            }
        }
    }

    /// One of the batch passes of `fastpath/normal.rs` through each
    /// compilation that runs here; all must agree before the baseline's
    /// values are returned.
    fn normal_pass(
        xs: &[f64],
        base: fn(&[f64], &mut [f64]),
        // SAFETY: `fast` is an `avx2,fma` compilation; it is called only
        // after `featured()` reports both features.
        fast: unsafe fn(&[f64], &mut [f64]),
    ) -> Vec<f64> {
        let mut want = vec![f64::NAN; xs.len()];
        base(xs, &mut want);
        if featured() {
            let mut got = vec![f64::NAN; xs.len()];
            // SAFETY: both target features were detected just above.
            unsafe { fast(xs, &mut got) };
            for ((g, w), x) in got.iter().zip(&want).zip(xs) {
                assert_same_bits(*g, *w, &format!("avx2 vs baseline at {x:e}"));
            }
        }
        want
    }

    fn lane_erfc(ys: &[f64]) -> Vec<f64> {
        normal_pass(ys, normal::baseline::erfc, normal::avx2::erfc)
    }

    fn lane_norm_cdf(xs: &[f64]) -> Vec<f64> {
        normal_pass(xs, normal::baseline::norm_cdf, normal::avx2::norm_cdf)
    }

    fn lane_norm_pdf(xs: &[f64]) -> Vec<f64> {
        normal_pass(xs, normal::baseline::norm_pdf, normal::avx2::norm_pdf)
    }

    /// `v` and its `k` nearest neighbours on each side.
    fn around(v: f64, k: usize) -> impl Iterator<Item = f64> {
        let (mut up, mut down) = (v, v);
        let mut out = vec![v];
        for _ in 0..k {
            up = up.next_up();
            down = down.next_down();
            out.extend([up, down]);
        }
        out.into_iter()
    }

    /// Arguments on every branch edge and special value of `erfc` and `Φ`.
    fn normal_edges() -> Vec<f64> {
        let mut xs = Vec::new();
        let r2 = 2.0 * std::f64::consts::SQRT_2;
        for edge in [2.0, -2.0, r2, -r2, 0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 38.5, -38.5] {
            xs.extend(around(edge, 6));
        }
        xs.extend([
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_down(),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ]);
        xs
    }

    /// `n` arguments: uniform over `±span`, log-uniform magnitudes and the
    /// neighbourhoods of the branch edges.
    fn random_normal_args(rng: &mut SmallRng, n: usize, span: f64) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 4 {
                0 | 1 => rng.gen_range(-span..span),
                2 => {
                    let mag = rng.gen_range(-40.0f64..6.0).exp2();
                    if rng.gen::<bool>() {
                        mag
                    } else {
                        -mag
                    }
                }
                _ => {
                    let edge = [2.0, -2.0, 2.0 * std::f64::consts::SQRT_2][i / 4 % 3];
                    edge + rng.gen_range(-1e-9..1e-9)
                }
            })
            .collect()
    }

    #[test]
    fn lane_erfc_matches_the_scalar_on_branch_edges_and_special_inputs() {
        let ys = normal_edges();
        // Every group shape: the same inputs at every offset mod 4, so
        // each one lands in each lane and in partial groups.
        for skip in 0..LANES {
            let ys = &ys[skip..];
            for (g, &y) in lane_erfc(ys).iter().zip(ys) {
                let want = crate::stats::erfc(y);
                assert_same_bits(*g, want, &format!("erfc({y:e} = {:#x})", y.to_bits()));
            }
        }
        // Both signs of zero reach the series and come back as 1.
        assert_eq!(lane_erfc(&[0.0, -0.0]), [1.0, 1.0]);
    }

    #[test]
    fn lane_norm_cdf_and_pdf_match_the_scalar_on_edges_and_random_inputs() {
        let mut rng = SmallRng::seed_from_u64(0xcdf);
        let mut xs = normal_edges();
        xs.extend(random_normal_args(&mut rng, 1_000_000, 45.0));
        for (g, &x) in lane_norm_cdf(&xs).iter().zip(&xs) {
            let want = crate::norm_cdf(x);
            assert_same_bits(*g, want, &format!("Φ({x:e} = {:#x})", x.to_bits()));
        }
        for (g, &x) in lane_norm_pdf(&xs).iter().zip(&xs) {
            let want = crate::norm_pdf(x);
            assert_same_bits(*g, want, &format!("φ({x:e} = {:#x})", x.to_bits()));
        }
        // The dispatched entry points agree too.
        let (mut cdf, mut pdf) = (vec![0.0; 4099], vec![0.0; 4099]);
        norm_cdf_into(&xs[..4099], &mut cdf);
        norm_pdf_into(&xs[..4099], &mut pdf);
        for ((c, p), &x) in cdf.iter().zip(&pdf).zip(&xs) {
            assert_same_bits(*c, crate::norm_cdf(x), "dispatched Φ");
            assert_same_bits(*p, crate::norm_pdf(x), "dispatched φ");
        }
    }

    #[test]
    #[ignore = "sweeps 10⁸ inputs; run with --ignored in release"]
    fn lane_erfc_sweep_matches_the_scalar() {
        // The compilation this host dispatches to; the random-input test
        // above holds the two to each other.
        let lane_erfc = |ys: &[f64]| {
            let mut out = vec![f64::NAN; ys.len()];
            if fast_path_enabled() {
                // SAFETY: the fast path is enabled only on an avx2+fma CPU.
                unsafe { normal::avx2::erfc(ys, &mut out) };
            } else {
                normal::baseline::erfc(ys, &mut out);
            }
            out
        };
        let mut rng = SmallRng::seed_from_u64(0xe7fc);
        let mut checked = 0u64;
        for _ in 0..100 {
            let ys = random_normal_args(&mut rng, 1_000_000, 30.0);
            for (g, &y) in lane_erfc(&ys).iter().zip(&ys) {
                let want = crate::stats::erfc(y);
                assert!(same_bits(*g, want), "erfc {y:e} ({:#x}): {g:e} vs {want:e}", y.to_bits());
            }
            checked += ys.len() as u64;
        }
        eprintln!("erfc sweep: {checked} inputs equal the scalar");
    }

    /// `ArdKernel::eval`'s expression for one pair: `r²` accumulated over
    /// `(x_d − q_d) / ℓ_d`, `r = √r²`, the family's correlation of `r`.
    fn scalar_kernel(kind: Correlation, sf2: f64, ls: &[f64], x: &[f64], q: &[f64]) -> f64 {
        let mut r2 = 0.0;
        for d in 0..ls.len() {
            let z = (x[d] - q[d]) / ls[d];
            r2 += z * z;
        }
        let r = r2.sqrt();
        let rho = match kind {
            Correlation::SquaredExp => (-0.5 * r * r).exp(),
            Correlation::Matern32 => {
                let s = 3.0_f64.sqrt() * r;
                (1.0 + s) * (-s).exp()
            }
            Correlation::Matern52 => {
                let s = 5.0_f64.sqrt() * r;
                (1.0 + s + s * s / 3.0) * (-s).exp()
            }
        };
        sf2 * rho
    }

    #[test]
    fn cross_covariance_matches_the_scalar_kernel_for_every_family() {
        let mut rng = SmallRng::seed_from_u64(0x5ca7);
        for kind in [Correlation::SquaredExp, Correlation::Matern32, Correlation::Matern52] {
            // n·m runs through multiples of 4 and every remainder, past
            // the 64-element chunk.
            for (n, m, dim) in
                [(1, 1, 1), (2, 3, 5), (5, 7, 5), (4, 16, 3), (13, 29, 5), (30, 9, 2)]
            {
                let ls: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.05..1.5)).collect();
                // Tiny lengthscales put far pairs' `exp` argument past −512.
                let ls_tiny: Vec<f64> = ls.iter().map(|l| l * 1e-3).collect();
                let xs: Vec<Vec<f64>> =
                    (0..n).map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect()).collect();
                // Every third query duplicates an observation (r² = 0).
                let qs: Vec<Vec<f64>> = (0..m)
                    .map(|c| {
                        if c % 3 == 0 {
                            xs[c % n].clone()
                        } else {
                            (0..dim).map(|_| rng.gen_range(-0.5..1.5)).collect()
                        }
                    })
                    .collect();
                let obs: Vec<f64> = (0..dim).flat_map(|d| xs.iter().map(move |x| x[d])).collect();
                let flat_q: Vec<f64> = qs.concat();
                let sf2 = rng.gen_range(0.1..10.0);
                for ls in [&ls, &ls_tiny] {
                    let mut base = vec![f64::NAN; n * m];
                    posterior::baseline::cross_covariance(kind, sf2, ls, &obs, &flat_q, &mut base);
                    let mut dispatched = vec![f64::NAN; n * m];
                    cross_covariance(kind, sf2, ls, &obs, &flat_q, &mut dispatched);
                    let mut fast = base.clone();
                    if featured() {
                        // SAFETY: both target features were detected just above.
                        unsafe {
                            posterior::avx2::cross_covariance(
                                kind, sf2, ls, &obs, &flat_q, &mut fast,
                            )
                        };
                    }
                    for c in 0..m {
                        for i in 0..n {
                            let want = scalar_kernel(kind, sf2, ls, &xs[i], &qs[c]);
                            let what = format!("{kind:?} n={n} m={m} ({i}, {c})");
                            for got in [&base, &fast, &dispatched] {
                                assert_same_bits(got[c * n + i], want, &what);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn posterior_moments_match_dot_and_the_forward_solve() {
        let mut rng = SmallRng::seed_from_u64(0x3e5);
        for n in [1usize, 2, 3, 5, 8, 13, 30] {
            let chol = crate::Chol::factor(&seeded_gram(&mut rng, n, n, 0.5)).unwrap();
            let mixed: Vec<f64> =
                (0..n).map(|i| if i == 1 { -0.0 } else { rng.gen_range(-2.0..2.0) }).collect();
            // All non-positive: the zero column's mean is then −0.0, the
            // empty sum's sign, and +0.0 from any other start.
            let negative: Vec<f64> = mixed.iter().map(|a| -a.abs()).collect();
            let cases = [&mixed, &negative].map(|a| [1usize, 3, 4, 7, 9].map(|m| (a, m)));
            for (alpha, m) in cases.into_iter().flatten() {
                // Column 0 is all zeros, so its sums come out of the empty
                // sum's sign; the others are random.
                let kstar: Vec<f64> = (0..n * m)
                    .map(|e| if e < n { 0.0 } else { rng.gen_range(-1.0..1.0) })
                    .collect();
                let want: Vec<(u64, u64)> = kstar
                    .chunks_exact(n)
                    .map(|col| {
                        let v = chol.solve_lower(col);
                        (crate::dot(col, alpha).to_bits(), crate::dot(&v, &v).to_bits())
                    })
                    .collect();
                let mut block = Vec::new();
                let mut runs: Vec<(&str, Vec<(u64, u64)>)> = Vec::new();
                let mut got = Vec::new();
                posterior::baseline::moments(chol.l(), alpha, &kstar, &mut block, |a, b| {
                    got.push((a.to_bits(), b.to_bits()))
                });
                runs.push(("baseline", got));
                if featured() {
                    let mut got = Vec::new();
                    // SAFETY: both target features were detected just above.
                    unsafe {
                        posterior::avx2::moments(chol.l(), alpha, &kstar, &mut block, |a, b| {
                            got.push((a.to_bits(), b.to_bits()))
                        })
                    };
                    runs.push(("avx2", got));
                }
                let mut got = Vec::new();
                posterior_moments(chol.l(), alpha, &kstar, &mut block, |a, b| {
                    got.push((a.to_bits(), b.to_bits()))
                });
                runs.push(("dispatched", got));
                for (name, got) in runs {
                    assert_eq!(got, want, "{name} n={n} m={m}");
                }
            }
        }
    }

    /// A seeded SPD matrix `B Bᵀ + shift·I`; `rank < n` with a tiny shift
    /// gives a near-singular one that needs jitter.
    fn seeded_gram(rng: &mut SmallRng, n: usize, rank: usize, shift: f64) -> Mat {
        let b = Mat::from_fn(n, rank, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = b.matmul(&b.transpose());
        a.add_diag(shift);
        a
    }

    /// Runs the jitter-escalation sequence through the baseline body and
    /// the AVX2 copy side by side; every attempt must agree bit for bit.
    fn assert_factor_copies_agree(a: &Mat, what: &str) {
        let n = a.rows();
        let (mut scalar, mut fast) = (Mat::zeros(n, n), Mat::zeros(n, n));
        for attempt in 0..8 {
            let jitter = if attempt == 0 { 0.0 } else { 1e-12 * 10f64.powi(attempt - 1) };
            let s = chol::factor_into(a, jitter, &mut scalar);
            // SAFETY: callers skip the test unless both features are present.
            let f = unsafe { avx2::factor_into(a, jitter, &mut fast) };
            assert_eq!(format!("{s:?}"), format!("{f:?}"), "{what}, jitter {jitter:e}");
            for (x, y) in scalar.as_slice().iter().zip(fast.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}, jitter {jitter:e}");
            }
            if s.is_ok() {
                let mut rng = SmallRng::seed_from_u64(n as u64);
                let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let (mut ys, mut yf) = (b.clone(), b);
                chol::solve_lower_in_place(&scalar, &mut ys);
                // SAFETY: as above.
                unsafe { avx2::solve_lower_in_place(&fast, &mut yf) };
                for (x, y) in ys.iter().zip(&yf) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what}: forward solve");
                }
                return;
            }
        }
    }

    #[test]
    fn avx2_cholesky_matches_the_scalar_body_bitwise() {
        if !featured() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(23);
        for n in [1usize, 2, 3, 4, 5, 8, 9, 13, 17, 31, 40, 64] {
            let spd = seeded_gram(&mut rng, n, n, 0.5);
            assert_factor_copies_agree(&spd, &format!("SPD n = {n}"));
            // Rank-deficient plus a vanishing shift: fails at jitter 0 and
            // succeeds only after some escalation.
            let near = seeded_gram(&mut rng, n, (n / 2).max(1), 1e-15);
            assert_factor_copies_agree(&near, &format!("near-singular n = {n}"));
        }
        // Indefinite: every attempt fails, with the same pivot and value.
        let mut bad = seeded_gram(&mut rng, 6, 6, 0.1);
        bad[(4, 4)] = -3.0;
        assert_factor_copies_agree(&bad, "indefinite");
        let mut out = Mat::zeros(6, 6);
        // SAFETY: the features were checked at the top of the test.
        let err = unsafe { avx2::factor_into(&bad, 0.0, &mut out) };
        assert!(matches!(err, Err(CholError::NotPositiveDefinite { .. })), "{err:?}");
    }
}
