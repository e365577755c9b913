//! Seeded input generation, summary statistics and the result report.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, for outcome digests compared across passes and runs.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bs: &[u8]) -> &mut Fnv {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Fnv {
        self.bytes(&x.to_le_bytes())
    }

    pub fn f64(&mut self, x: f64) -> &mut Fnv {
        self.u64(x.to_bits())
    }
}

/// Quantile by linear interpolation between closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[lo] == sorted[hi] {
        // Also keeps an infinite value (a failed request) from becoming NaN.
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Processor time this process has used, in ms: time on a CPU only. On a
/// VM whose host steals CPU time (the kernel accounts steal apart from
/// task time), the wall time of a CPU-bound loop moves with the host's
/// load while this does not.
pub fn cpu_ms() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`) through a pointer to a
    // live, writable, properly aligned local, and reads nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sum of the process-wide simulator counters `(dispatched, cancelled)`.
/// They are global to the process, which is why each workload runs in a
/// process of its own and reads them as deltas around a phase.
pub fn sim_events() -> (u64, u64) {
    mlcd_cloudsim::global_event_counters()
        .iter()
        .fold((0, 0), |(d, c), row| (d + row.dispatched, c + row.cancelled))
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value (plans, sessions, runs, calls).
    pub samples: u64,
}

/// What one run prints: the metrics, the work attempted and failed, and
/// every correctness violation found.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed in the table only, not in the JSON result.
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.info.push(Metric { name, value, unit, samples });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable table (name, value, unit, sample count) followed
    /// by the one-line JSON result, which is always the last line.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        writeln!(out, "# {header}").unwrap();
        for m in &self.metrics {
            writeln!(out, "{:<28} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples)
                .unwrap();
        }
        for m in &self.info {
            writeln!(out, "# {:<26} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples)
                .unwrap();
        }
        for e in &self.errors {
            writeln!(out, "CHECK FAILED: {e}").unwrap();
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
                format!("{:?}: {{\"value\": {v}, \"unit\": {:?}}}", m.name, m.unit)
            })
            .collect();
        writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
        .unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = sorted(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
