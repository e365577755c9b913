//! Standard-normal distribution functions and summary statistics.
//!
//! Expected Improvement evaluates Φ and φ deep in the tails (a candidate far
//! below the incumbent), so the cdf needs full double-precision accuracy
//! there — a short Abramowitz–Stegun polynomial flushes to zero far too
//! early. We compute erf by its Maclaurin series for small arguments and
//! erfc by the Laplace continued fraction (evaluated with the modified
//! Lentz algorithm) for large ones; both converge to machine precision and
//! need no tabulated minimax constants.

/// Exact bit-level zero test: `true` iff `x` is `+0.0` or `-0.0`.
///
/// Semantically identical to `x == 0.0` (NaN is not zero, both signed
/// zeros are), but states the intent explicitly: this is a *guard against
/// a degenerate exact value* (division by a zero width, skipping a zero
/// multiplier), not a tolerance comparison. The determinism lint bans raw
/// float `==`/`!=` (`mlcd-lint` rule `float-cmp`) because most such
/// comparisons are representation-sensitive bugs; exact-zero guards go
/// through this helper instead.
#[inline]
pub fn is_exact_zero(x: f64) -> bool {
    x.abs().to_bits() == 0
}

/// Exact bit-pattern float equality: `true` iff `a` and `b` are the same
/// bits. Distinguishes `+0.0` from `-0.0` and treats identical NaN
/// payloads as equal — the same notion of equality the golden
/// `SearchOutcome` digests use, and the lint-sanctioned way to compare
/// floats for identity (e.g. cache keys, change detection).
#[inline]
pub fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// `1/√(2π)`, φ's normalising constant.
pub(crate) const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
/// `1/√π`, the continued fraction's prefactor in [`erfc`].
pub(crate) const INV_SQRT_PI: f64 = 0.564_189_583_547_756_3;
/// The modified Lentz algorithm's stand-in for a zero denominator.
pub(crate) const TINY: f64 = 1e-300;

/// Standard normal probability density function φ(x).
#[inline]
pub fn norm_pdf(x: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal cumulative distribution function Φ(x).
///
/// Accurate in both tails via `erfc`; `norm_cdf(-40.0)` is a correctly
/// rounded subnormal rather than 0 flushed from a polynomial.
#[inline]
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Crossover between the erf series (below) and the erfc continued
/// fraction (above). Both converge quickly near 2.0.
const ERF_SPLIT: f64 = 2.0;

/// Complementary error function.
///
/// For `|x| < 2` computed as `1 - erf(x)` from the Maclaurin series; for
/// larger arguments via the Laplace continued fraction
/// `erfc(x) = exp(-x²)/√π · 1/(x + 1/2/(x + 1/(x + 3/2/(x + …))))`,
/// evaluated with the modified Lentz algorithm. Relative accuracy is at
/// machine-precision level across the range (verified against reference
/// values in the tests).
pub fn erfc(x: f64) -> f64 {
    if x < -ERF_SPLIT {
        return 2.0 - erfc(-x);
    }
    if x < ERF_SPLIT {
        return 1.0 - erf(x);
    }
    // Modified Lentz evaluation of the continued fraction
    //   K = 1/(x+) (1/2)/(x+) (2/2)/(x+) (3/2)/(x+) …
    let mut f = TINY;
    let mut c = f;
    let mut d = 0.0;
    let mut k = 0u32;
    loop {
        // a_1 = 1, a_{j+1} = j/2 (alternating 1/2, 1, 3/2, 2, …); b_j = x.
        let a = if k == 0 { 1.0 } else { k as f64 / 2.0 };
        let b = x;
        d = b + a * d;
        if is_exact_zero(d) {
            d = TINY;
        }
        c = b + a / c;
        if is_exact_zero(c) {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-17 || k > 300 {
            break;
        }
        k += 1;
    }
    (-x * x).exp() * INV_SQRT_PI * f
}

/// Error function.
///
/// For `|x| < 2` the Maclaurin series
/// `erf(x) = (2/√π) Σ_{n≥0} (-1)ⁿ x^{2n+1} / (n! (2n+1))`
/// summed to machine precision; beyond that reflected through `erfc`.
pub fn erf(x: f64) -> f64 {
    let ax = x.abs();
    if ax >= ERF_SPLIT {
        let tail = erfc(ax);
        return if x > 0.0 { 1.0 - tail } else { tail - 1.0 };
    }
    // Term recurrence: t_{n+1} = t_n * (-x²)/(n+1); accumulate t_n/(2n+1).
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 0u32;
    loop {
        n += 1;
        term *= -x2 / n as f64;
        let contrib = term / (2 * n + 1) as f64;
        sum += contrib;
        if contrib.abs() < 1e-18 * sum.abs().max(1e-300) || n > 200 {
            break;
        }
    }
    std::f64::consts::FRAC_2_SQRT_PI * sum
}

/// Standard-normal arguments staged for one batched evaluation of Φ and
/// φ, with the results.
///
/// A caller pushes the arguments it will need, calls
/// [`eval`](Self::eval) once, and reads [`cdf`](Self::cdf) and
/// [`pdf`](Self::pdf) by position. The batch goes through
/// [`crate::fastpath::norm_cdf_into`] and
/// [`crate::fastpath::norm_pdf_into`], so every value has the bits
/// [`norm_cdf`] and [`norm_pdf`] give for the same argument. Buffers are
/// kept across batches; after [`reserve`](Self::reserve) a batch within
/// that size allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct NormalBatch {
    x: Vec<f64>,
    cdf: Vec<f64>,
    pdf: Vec<f64>,
}

impl NormalBatch {
    /// An empty batch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow every buffer to hold `m` arguments.
    pub fn reserve(&mut self, m: usize) {
        for buf in [&mut self.x, &mut self.cdf, &mut self.pdf] {
            buf.reserve(m.saturating_sub(buf.len()));
        }
    }

    /// Start a new batch (buffers are retained).
    pub fn clear(&mut self) {
        self.x.clear();
        self.cdf.clear();
        self.pdf.clear();
    }

    /// Stage one argument.
    pub fn push(&mut self, x: f64) {
        self.x.push(x);
    }

    /// The staged arguments, in push order.
    pub fn args(&self) -> &[f64] {
        &self.x
    }

    /// Evaluate Φ at every staged argument, and φ too when `with_pdf`.
    pub fn eval(&mut self, with_pdf: bool) {
        self.cdf.resize(self.x.len(), 0.0);
        crate::fastpath::norm_cdf_into(&self.x, &mut self.cdf);
        self.pdf.clear();
        if with_pdf {
            self.pdf.resize(self.x.len(), 0.0);
            crate::fastpath::norm_pdf_into(&self.x, &mut self.pdf);
        }
    }

    /// Φ of each staged argument, after [`eval`](Self::eval).
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// φ of each staged argument, after [`eval`](Self::eval) with
    /// `with_pdf` (empty otherwise).
    pub fn pdf(&self) -> &[f64] {
        &self.pdf
    }
}

/// Inverse of the standard normal cdf (the quantile / probit function).
///
/// Acklam's algorithm refined by one Halley step; relative error < 1e-13
/// over (0, 1).
///
/// # Panics
/// Panics when `p` is outside the open interval (0, 1).
pub fn norm_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_quantile: p={p} not in (0,1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the accurate cdf.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Welford online mean/variance accumulator.
///
/// Used by the Profiler to decide whether throughput across probe
/// iterations has stabilised.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation σ/μ; 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if is_exact_zero(self.mean) {
            0.0
        } else {
            self.stddev() / self.mean.abs()
        }
    }

    /// Snapshot of the accumulated summary.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            mean: self.mean,
            stddev: self.stddev(),
            min: if self.n == 0 { f64::NAN } else { self.min },
            max: if self.n == 0 { f64::NAN } else { self.max },
        }
    }
}

/// Immutable summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Smallest observation (NaN when empty).
    pub min: f64,
    /// Largest observation (NaN when empty).
    pub max: f64,
}

/// Quartile summary of a sample, used by the fig-12 whisker plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Minimum.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Compute min/q1/median/q3/max of a sample by linear-interpolation
/// percentiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> Quartiles {
    assert!(!xs.is_empty(), "quartiles: empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        let idx = p * (sorted.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    };
    Quartiles {
        min: sorted[0],
        q1: pct(0.25),
        median: pct(0.5),
        q3: pct(0.75),
        max: *sorted.last().unwrap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_batch_equals_the_scalar_functions_and_reuses_its_buffers() {
        let mut b = NormalBatch::new();
        b.reserve(64);
        for round in 0..3 {
            b.clear();
            let xs: Vec<f64> = (0..37).map(|i| (i as f64 - 18.0) * (0.7 + round as f64)).collect();
            for &x in &xs {
                b.push(x);
            }
            assert_eq!(b.args(), &xs[..]);
            b.eval(round != 1);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(b.cdf()[i].to_bits(), norm_cdf(x).to_bits(), "Φ({x})");
                if round != 1 {
                    assert_eq!(b.pdf()[i].to_bits(), norm_pdf(x).to_bits(), "φ({x})");
                }
            }
            assert_eq!(b.pdf().is_empty(), round == 1);
        }
    }

    #[test]
    fn pdf_symmetry_and_peak() {
        assert!((norm_pdf(0.0) - 0.3989422804014327).abs() < 1e-15);
        assert_eq!(norm_pdf(1.3), norm_pdf(-1.3));
        assert!(norm_pdf(10.0) < 1e-20);
    }

    #[test]
    fn cdf_reference_values() {
        // Reference values from standard tables / scipy.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.8413447460685429),
            (-1.0, 0.15865525393145707),
            (1.959963984540054, 0.975),
            (3.0, 0.9986501019683699),
            (-3.0, 0.0013498980316301035),
        ];
        for (x, want) in cases {
            let got = norm_cdf(x);
            assert!((got - want).abs() < 1e-12, "cdf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn cdf_deep_tails() {
        // scipy.stats.norm.cdf(-8) = 6.22096057427178e-16
        let got = norm_cdf(-8.0);
        assert!((got - 6.22096057427178e-16).abs() / 6.22e-16 < 1e-6, "got {got}");
        assert!(norm_cdf(-40.0) >= 0.0);
        assert_eq!(norm_cdf(40.0), 1.0);
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = -1.0;
        let mut x = -12.0;
        while x <= 12.0 {
            let c = norm_cdf(x);
            assert!(c >= prev, "cdf not monotone at {x}");
            prev = c;
            x += 0.01;
        }
    }

    #[test]
    fn erf_erfc_complementarity() {
        let mut x = -6.0;
        while x <= 6.0 {
            let s = erf(x) + erfc(x);
            assert!((s - 1.0).abs() < 1e-13, "erf+erfc at {x} = {s}");
            x += 0.1;
        }
    }

    #[test]
    fn quantile_round_trip() {
        for &p in &[1e-10, 1e-6, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 1.0 - 1e-6] {
            let x = norm_quantile(p);
            let back = norm_cdf(x);
            assert!(
                (back - p).abs() < 1e-10 * (1.0 + 1.0 / p.min(1.0 - p)).min(1e4),
                "quantile({p}) -> {x} -> cdf {back}"
            );
        }
        assert!((norm_quantile(0.975) - 1.959963984540054).abs() < 1e-9);
        assert_eq!(norm_quantile(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "not in (0,1)")]
    fn quantile_rejects_bounds() {
        let _ = norm_quantile(0.0);
    }

    #[test]
    fn online_stats_welford() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic sample is 4; unbiased is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        let sum = s.summary();
        assert_eq!(sum.min, 2.0);
        assert_eq!(sum.max, 9.0);
    }

    #[test]
    fn online_stats_empty_and_single() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.summary().min.is_nan());
        let mut s1 = OnlineStats::new();
        s1.push(3.0);
        assert_eq!(s1.variance(), 0.0);
        assert_eq!(s1.cv(), 0.0);
    }

    #[test]
    fn cv_detects_instability() {
        let mut stable = OnlineStats::new();
        let mut noisy = OnlineStats::new();
        for i in 0..50 {
            stable.push(100.0 + (i % 2) as f64 * 0.1);
            noisy.push(100.0 + (i % 2) as f64 * 60.0);
        }
        assert!(stable.cv() < 0.01);
        assert!(noisy.cv() > 0.2);
    }

    #[test]
    fn quartiles_of_known_sample() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.q1, 2.0);
        assert_eq!(q.median, 3.0);
        assert_eq!(q.q3, 4.0);
        assert_eq!(q.max, 5.0);
        // Order-independence.
        let q2 = quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        assert_eq!(q, q2);
    }
}
