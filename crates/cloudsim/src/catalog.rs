//! The instance-type catalog.
//!
//! Specs and on-demand prices are the real us-east-1 values from the
//! 2019/2020 era the paper measured in. Prices matter most: the paper's
//! Fig 1a normalises every type to c5.xlarge and highlights that p2.8xlarge
//! is ≈42.5× more expensive — with these real prices, 7.20 / 0.17 ≈ 42.35.
//!
//! Hardware numbers (vCPUs, accelerators, peak FLOPS, network bandwidth)
//! feed the `mlcd-perfmodel` ground-truth throughput model. They are
//! published figures; effective utilisation per model architecture is
//! applied downstream, not here.

use serde::{Deserialize, Serialize};

/// Instance family, mirroring the paper's scale-up options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstanceFamily {
    /// Previous-generation compute-optimised (Haswell).
    C4,
    /// Compute-optimised (Skylake-SP / Cascade Lake, AVX-512).
    C5,
    /// Network-enhanced compute-optimised (up to 100 Gbps).
    C5n,
    /// GPU instances with NVIDIA K80.
    P2,
    /// GPU instances with NVIDIA V100.
    P3,
}

impl InstanceFamily {
    /// All families in the catalog.
    pub const ALL: [InstanceFamily; 5] = [
        InstanceFamily::C4,
        InstanceFamily::C5,
        InstanceFamily::C5n,
        InstanceFamily::P2,
        InstanceFamily::P3,
    ];

    /// Whether this family carries GPU accelerators.
    pub fn has_gpu(&self) -> bool {
        matches!(self, InstanceFamily::P2 | InstanceFamily::P3)
    }
}

/// GPU accelerator model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Accelerator {
    /// NVIDIA Tesla K80 (as counted by AWS: one GK210 die ≈ 4.37/2 ≈ 2.2,
    /// but AWS lists the full K80 board per "GPU" on p2 — we use the
    /// published 4.1 TFLOPS fp32 figure per listed GPU).
    K80,
    /// NVIDIA Tesla V100 (15.7 TFLOPS fp32).
    V100,
}

impl Accelerator {
    /// Peak single-precision throughput per accelerator, in GFLOPS.
    pub fn peak_gflops(&self) -> f64 {
        match self {
            Accelerator::K80 => 4_100.0,
            Accelerator::V100 => 15_700.0,
        }
    }

    /// Device memory per accelerator in GiB.
    pub fn memory_gib(&self) -> f64 {
        match self {
            Accelerator::K80 => 12.0,
            Accelerator::V100 => 16.0,
        }
    }
}

/// One concrete EC2 instance type in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)] // the variants are the AWS type names
pub enum InstanceType {
    C4Large,
    C4Xlarge,
    C42xlarge,
    C44xlarge,
    C48xlarge,
    C5Large,
    C5Xlarge,
    C52xlarge,
    C54xlarge,
    C59xlarge,
    C5nLarge,
    C5nXlarge,
    C5n2xlarge,
    C5n4xlarge,
    C5n9xlarge,
    P2Xlarge,
    P28xlarge,
    P32xlarge,
    P38xlarge,
}

/// Full specification of an instance type.
///
/// Serialisable (for experiment dumps) but not deserialisable: the
/// authoritative copy is the compiled-in [`CATALOG`] and `name` borrows
/// from it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InstanceSpec {
    /// Which catalog entry this is.
    pub itype: InstanceType,
    /// Family.
    pub family: InstanceFamily,
    /// AWS API name, e.g. `"c5.xlarge"`.
    pub name: &'static str,
    /// Virtual CPUs.
    pub vcpus: u32,
    /// Host memory in GiB.
    pub memory_gib: f64,
    /// GPU accelerators on the instance (type, count); `None` for CPU-only.
    pub accelerators: Option<(Accelerator, u32)>,
    /// Sustained network bandwidth in Gbit/s (the baseline figure, not the
    /// "up to" burst figure, since distributed training saturates links).
    pub network_gbps: f64,
    /// On-demand hourly price in us-east-1, USD.
    pub hourly_usd: f64,
    /// Aggregate peak CPU single-precision throughput in GFLOPS.
    pub cpu_peak_gflops: f64,
}

impl InstanceSpec {
    /// Aggregate peak GPU throughput in GFLOPS (0 for CPU instances).
    pub fn gpu_peak_gflops(&self) -> f64 {
        self.accelerators.map_or(0.0, |(a, n)| a.peak_gflops() * n as f64)
    }

    /// Whether the instance carries GPUs.
    pub fn has_gpu(&self) -> bool {
        self.accelerators.is_some()
    }

    /// Price per second, USD.
    pub fn per_second_usd(&self) -> f64 {
        self.hourly_usd / 3600.0
    }
}

/// Effective CPU GFLOPS per vCPU used for the aggregate figure: AVX2-era
/// c4 sustains less per cycle than AVX-512-era c5/c5n.
const C4_GFLOPS_PER_VCPU: f64 = 16.0;
const C5_GFLOPS_PER_VCPU: f64 = 26.0;
/// GPU-instance host CPUs (Broadwell) — relevant when a model runs its
/// input pipeline on the host.
const P_GFLOPS_PER_VCPU: f64 = 14.0;

macro_rules! spec {
    ($itype:ident, $family:ident, $name:expr, $vcpus:expr, $mem:expr,
     $accel:expr, $net:expr, $price:expr, $cpu_per_vcpu:expr) => {
        InstanceSpec {
            itype: InstanceType::$itype,
            family: InstanceFamily::$family,
            name: $name,
            vcpus: $vcpus,
            memory_gib: $mem,
            accelerators: $accel,
            network_gbps: $net,
            hourly_usd: $price,
            cpu_peak_gflops: $vcpus as f64 * $cpu_per_vcpu,
        }
    };
}

/// The full catalog. Order is stable and used for display; entry `i` is
/// the type whose discriminant is `i`, which [`InstanceType::spec`]
/// relies on.
pub const CATALOG: [InstanceSpec; 19] = [
    spec!(C4Large, C4, "c4.large", 2, 3.75, None, 0.62, 0.100, C4_GFLOPS_PER_VCPU),
    spec!(C4Xlarge, C4, "c4.xlarge", 4, 7.5, None, 0.75, 0.199, C4_GFLOPS_PER_VCPU),
    spec!(C42xlarge, C4, "c4.2xlarge", 8, 15.0, None, 1.0, 0.398, C4_GFLOPS_PER_VCPU),
    spec!(C44xlarge, C4, "c4.4xlarge", 16, 30.0, None, 2.0, 0.796, C4_GFLOPS_PER_VCPU),
    spec!(C48xlarge, C4, "c4.8xlarge", 36, 60.0, None, 10.0, 1.591, C4_GFLOPS_PER_VCPU),
    spec!(C5Large, C5, "c5.large", 2, 4.0, None, 0.75, 0.085, C5_GFLOPS_PER_VCPU),
    spec!(C5Xlarge, C5, "c5.xlarge", 4, 8.0, None, 1.25, 0.170, C5_GFLOPS_PER_VCPU),
    spec!(C52xlarge, C5, "c5.2xlarge", 8, 16.0, None, 2.5, 0.340, C5_GFLOPS_PER_VCPU),
    spec!(C54xlarge, C5, "c5.4xlarge", 16, 32.0, None, 5.0, 0.680, C5_GFLOPS_PER_VCPU),
    spec!(C59xlarge, C5, "c5.9xlarge", 36, 72.0, None, 10.0, 1.530, C5_GFLOPS_PER_VCPU),
    spec!(C5nLarge, C5n, "c5n.large", 2, 5.25, None, 3.0, 0.108, C5_GFLOPS_PER_VCPU),
    spec!(C5nXlarge, C5n, "c5n.xlarge", 4, 10.5, None, 5.0, 0.216, C5_GFLOPS_PER_VCPU),
    spec!(C5n2xlarge, C5n, "c5n.2xlarge", 8, 21.0, None, 10.0, 0.432, C5_GFLOPS_PER_VCPU),
    spec!(C5n4xlarge, C5n, "c5n.4xlarge", 16, 42.0, None, 15.0, 0.864, C5_GFLOPS_PER_VCPU),
    spec!(C5n9xlarge, C5n, "c5n.9xlarge", 36, 96.0, None, 50.0, 1.944, C5_GFLOPS_PER_VCPU),
    spec!(
        P2Xlarge,
        P2,
        "p2.xlarge",
        4,
        61.0,
        Some((Accelerator::K80, 1)),
        1.25,
        0.900,
        P_GFLOPS_PER_VCPU
    ),
    spec!(
        P28xlarge,
        P2,
        "p2.8xlarge",
        32,
        488.0,
        Some((Accelerator::K80, 8)),
        10.0,
        7.200,
        P_GFLOPS_PER_VCPU
    ),
    spec!(
        P32xlarge,
        P3,
        "p3.2xlarge",
        8,
        61.0,
        Some((Accelerator::V100, 1)),
        2.5,
        3.060,
        P_GFLOPS_PER_VCPU
    ),
    spec!(
        P38xlarge,
        P3,
        "p3.8xlarge",
        32,
        244.0,
        Some((Accelerator::V100, 4)),
        10.0,
        12.240,
        P_GFLOPS_PER_VCPU
    ),
];

impl InstanceType {
    /// Every type in the catalog, in catalog order.
    pub fn all() -> impl Iterator<Item = InstanceType> {
        CATALOG.iter().map(|s| s.itype)
    }

    /// The full spec for this type: [`CATALOG`] is ordered by
    /// discriminant, so this is one index, not a scan.
    #[inline]
    pub fn spec(&self) -> &'static InstanceSpec {
        &CATALOG[*self as usize]
    }

    /// AWS API name, e.g. `"c5n.4xlarge"`.
    pub fn name(&self) -> &'static str {
        self.spec().name
    }

    /// Family.
    pub fn family(&self) -> InstanceFamily {
        self.spec().family
    }

    /// Hourly on-demand price, USD.
    pub fn hourly_usd(&self) -> f64 {
        self.spec().hourly_usd
    }

    /// Look up a type by its AWS API name.
    pub fn from_name(name: &str) -> Option<InstanceType> {
        CATALOG.iter().find(|s| s.name == name).map(|s| s.itype)
    }

    /// Hourly price normalised to c5.xlarge = 1 (the paper's Fig 1a axis).
    pub fn normalized_cost(&self) -> f64 {
        self.hourly_usd() / InstanceType::C5Xlarge.hourly_usd()
    }
}

impl std::fmt::Display for InstanceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_has_a_spec_and_roundtrips_by_name() {
        for t in InstanceType::all() {
            let s = t.spec();
            assert_eq!(s.itype, t);
            assert_eq!(InstanceType::from_name(s.name), Some(t));
        }
        assert_eq!(InstanceType::from_name("m5.24xlarge"), None);
    }

    #[test]
    fn catalog_is_indexed_by_discriminant() {
        for (i, s) in CATALOG.iter().enumerate() {
            assert_eq!(s.itype as usize, i, "{} is out of place", s.name);
        }
    }

    #[test]
    fn paper_fig1a_price_ratio() {
        // Fig 1a: "the most costly GPU instance (p2.8xlarge) 42.5× more
        // expensive than CPU instance c5.xlarge".
        let ratio = InstanceType::P28xlarge.normalized_cost();
        assert!((ratio - 42.35).abs() < 0.5, "p2.8xlarge / c5.xlarge = {ratio}");
        assert_eq!(InstanceType::C5Xlarge.normalized_cost(), 1.0);
    }

    #[test]
    fn prices_scale_with_size_within_family() {
        // Within a family, doubling size roughly doubles price.
        let pairs = [
            (InstanceType::C5Xlarge, InstanceType::C52xlarge),
            (InstanceType::C5nXlarge, InstanceType::C5n2xlarge),
            (InstanceType::C4Xlarge, InstanceType::C42xlarge),
        ];
        for (small, big) in pairs {
            let r = big.hourly_usd() / small.hourly_usd();
            assert!((r - 2.0).abs() < 0.05, "{small} → {big}: ratio {r}");
        }
    }

    #[test]
    fn gpu_flags_consistent() {
        for t in InstanceType::all() {
            let s = t.spec();
            assert_eq!(s.has_gpu(), s.family.has_gpu(), "{t}");
            if s.has_gpu() {
                assert!(s.gpu_peak_gflops() > 0.0);
            } else {
                assert_eq!(s.gpu_peak_gflops(), 0.0);
            }
        }
    }

    #[test]
    fn gpu_peak_aggregates_count() {
        let p28 = InstanceType::P28xlarge.spec();
        let p2 = InstanceType::P2Xlarge.spec();
        assert!((p28.gpu_peak_gflops() / p2.gpu_peak_gflops() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn c5n_has_more_network_for_more_money() {
        // The c5n family's reason to exist: bandwidth.
        let c5 = InstanceType::C54xlarge.spec();
        let c5n = InstanceType::C5n4xlarge.spec();
        assert!(c5n.network_gbps > c5.network_gbps);
        assert!(c5n.hourly_usd > c5.hourly_usd);
    }

    #[test]
    fn per_second_price() {
        let s = InstanceType::C5Xlarge.spec();
        assert!((s.per_second_usd() * 3600.0 - s.hourly_usd).abs() < 1e-12);
    }

    #[test]
    fn sane_spec_values() {
        for s in &CATALOG {
            assert!(s.vcpus >= 2, "{}", s.name);
            assert!(s.memory_gib > 0.0);
            assert!(s.network_gbps > 0.0);
            assert!(s.hourly_usd > 0.0);
            assert!(s.cpu_peak_gflops > 0.0);
        }
    }

    #[test]
    fn serde_type_round_trip_and_spec_serialises() {
        let t = InstanceType::P32xlarge;
        let json = serde_json::to_string(&t).unwrap();
        let back: InstanceType = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        // The spec is dumpable for experiment records.
        let spec_json = serde_json::to_string(t.spec()).unwrap();
        assert!(spec_json.contains("p3.2xlarge"));
    }
}
