//! Deployments `D(m, n)` and the search space.
//!
//! The paper formulates deployment as a pair of instance type `m`
//! (scale-up) and node count `n` (scale-out), with "62 scale-up options and
//! a rule of thumb for scale-out \[of\] 50, so there are in total 3,100
//! deployment schemes". Our catalog has 19 types; experiments restrict the
//! type set exactly as the paper's figures do (e.g. Fig 15 searches
//! {c5.xlarge, c5.4xlarge, p2.xlarge} × n ≤ 50).

use mlcd_cloudsim::catalog::CATALOG;
use mlcd_cloudsim::{InstanceType, Money, SimDuration};
use mlcd_perfmodel::{ThroughputModel, TrainingJob};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// One deployment scheme: `n` nodes of instance type `itype`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Deployment {
    /// Instance type (scale-up dimension).
    pub itype: InstanceType,
    /// Node count (scale-out dimension).
    pub n: u32,
}

impl Deployment {
    /// Construct, requiring at least one node.
    pub fn new(itype: InstanceType, n: u32) -> Self {
        assert!(n >= 1, "Deployment: need at least one node");
        Deployment { itype, n }
    }

    /// Cluster hourly price: n × per-instance price.
    pub fn hourly_cost(&self) -> Money {
        Money::from_dollars(self.itype.hourly_usd() * self.n as f64)
    }

    /// Cost of running this deployment for a duration.
    pub fn cost_for(&self, d: SimDuration) -> Money {
        self.hourly_cost().scale(d.as_hours())
    }
}

impl std::fmt::Display for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}×{}", self.n, self.itype)
    }
}

/// The four per-type GP features of [`SearchSpace::features`], one row per
/// catalog entry (indexed by discriminant), computed once per process from
/// the compiled-in catalog with the expressions `features` documents.
fn type_features() -> &'static [[f64; 4]; CATALOG.len()] {
    static TABLE: OnceLock<[[f64; 4]; CATALOG.len()]> = OnceLock::new();
    TABLE.get_or_init(|| {
        CATALOG.map(|s| {
            [
                s.hourly_usd.log10(),
                s.cpu_peak_gflops.log10(),
                (s.gpu_peak_gflops() + 1.0).log10(),
                s.network_gbps.log10(),
            ]
        })
    })
}

/// The set of candidate deployments for one search, plus the feature map
/// the GP works in.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    types: Vec<InstanceType>,
    max_nodes: u32,
    candidates: Vec<Deployment>,
    /// Per-dimension feature range over `candidates`, folded once, on the
    /// first [`feature_bounds`](Self::feature_bounds): a space that never
    /// fits a surrogate (an exhaustive or random sweep) never pays for it.
    bounds: OnceLock<[(f64, f64); SearchSpace::FEATURE_DIM]>,
}

impl SearchSpace {
    /// Build a search space over `types` × `1..=max_nodes`, keeping only
    /// deployments that can run `job` at all (memory and batch
    /// feasibility checked against the ground-truth rules — in the real
    /// system the user knows their model's footprint).
    pub fn new(
        types: &[InstanceType],
        max_nodes: u32,
        job: &TrainingJob,
        truth: &ThroughputModel,
    ) -> Self {
        assert!(!types.is_empty(), "SearchSpace: need at least one instance type");
        assert!(max_nodes >= 1, "SearchSpace: need at least one node");
        let mut candidates = Vec::new();
        for &t in types {
            for n in 1..=max_nodes {
                if truth.feasible(job, t, n).is_ok() {
                    candidates.push(Deployment::new(t, n));
                }
            }
        }
        Self::with_candidates(types.to_vec(), max_nodes, candidates)
    }

    /// A space over `candidates`, its feature bounds not yet folded.
    fn with_candidates(
        types: Vec<InstanceType>,
        max_nodes: u32,
        candidates: Vec<Deployment>,
    ) -> Self {
        SearchSpace { types, max_nodes, candidates, bounds: OnceLock::new() }
    }

    /// The paper's full space: every catalog type, up to 50 nodes.
    pub fn full(job: &TrainingJob, truth: &ThroughputModel) -> Self {
        let types: Vec<InstanceType> = InstanceType::all().collect();
        Self::new(&types, 50, job, truth)
    }

    /// Instance types in this space.
    pub fn types(&self) -> &[InstanceType] {
        &self.types
    }

    /// Maximum node count.
    pub fn max_nodes(&self) -> u32 {
        self.max_nodes
    }

    /// All feasible candidate deployments.
    pub fn candidates(&self) -> &[Deployment] {
        &self.candidates
    }

    /// Whether a deployment is in this space.
    pub fn contains(&self, d: &Deployment) -> bool {
        self.candidates.contains(d)
    }

    /// GP feature vector for a deployment. Dimensions:
    /// `[log10 hourly price, log10 cpu GFLOPS, log10 (gpu GFLOPS + 1),
    ///   log10 network Gbps, n]`.
    ///
    /// Resource features (as in CherryPick/PARIS) let the GP share
    /// information across instance types instead of treating them as
    /// unrelated categories.
    pub fn features(&self, d: &Deployment) -> Vec<f64> {
        let mut out = vec![0.0; Self::FEATURE_DIM];
        self.features_into(d, &mut out);
        out
    }

    /// Dimensionality of [`features`](Self::features) vectors.
    pub const FEATURE_DIM: usize = 5;

    /// [`features`](Self::features) into a caller-owned slice — same values,
    /// no allocation, for hot loops that stage candidate features into a
    /// reusable buffer.
    ///
    /// # Panics
    /// Panics when `out.len() != FEATURE_DIM`.
    pub fn features_into(&self, d: &Deployment, out: &mut [f64]) {
        let out: &mut [f64; Self::FEATURE_DIM] =
            out.try_into().expect("features_into: dim mismatch");
        Self::write_features(d, out);
    }

    /// The feature vector of `d`: the type's four from the per-type table,
    /// then the node count.
    fn write_features(d: &Deployment, out: &mut [f64; Self::FEATURE_DIM]) {
        let [price, cpu, gpu, net] = type_features()[d.itype as usize];
        *out = [price, cpu, gpu, net, d.n as f64];
    }

    /// Feature-space bounds for input scaling, derived from the candidates
    /// (folded in candidate order on the first call, then kept).
    pub fn feature_bounds(&self) -> &[(f64, f64)] {
        self.bounds.get_or_init(|| {
            let mut bounds = [(f64::INFINITY, f64::NEG_INFINITY); Self::FEATURE_DIM];
            let mut x = [0.0; Self::FEATURE_DIM];
            for d in &self.candidates {
                Self::write_features(d, &mut x);
                for (b, &v) in bounds.iter_mut().zip(&x) {
                    b.0 = b.0.min(v);
                    b.1 = b.1.max(v);
                }
            }
            bounds
        })
    }

    /// Restrict to a subset of types (CherryPick's "experience" trimming).
    pub fn restricted_to(&self, types: &[InstanceType]) -> SearchSpace {
        let kept: Vec<Deployment> =
            self.candidates.iter().filter(|d| types.contains(&d.itype)).copied().collect();
        assert!(!kept.is_empty(), "restricted_to: no candidates left");
        Self::with_candidates(types.to_vec(), self.max_nodes, kept)
    }

    /// Coarsen the scale-out grid to the given node counts (CherryPick
    /// samples a coarse grid rather than every n).
    pub fn coarsened(&self, node_grid: &[u32]) -> SearchSpace {
        let kept: Vec<Deployment> =
            self.candidates.iter().filter(|d| node_grid.contains(&d.n)).copied().collect();
        assert!(!kept.is_empty(), "coarsened: no candidates left");
        Self::with_candidates(self.types.clone(), self.max_nodes, kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcd_perfmodel::TrainingJob;

    fn space() -> SearchSpace {
        let job = TrainingJob::resnet_cifar10();
        SearchSpace::new(
            &[InstanceType::C5Xlarge, InstanceType::C54xlarge, InstanceType::P2Xlarge],
            50,
            &job,
            &ThroughputModel::default(),
        )
    }

    #[test]
    fn full_space_size_is_paperlike() {
        let job = TrainingJob::resnet_cifar10();
        let s = SearchSpace::full(&job, &ThroughputModel::default());
        // 19 types × 50 nodes, minus infeasible points — on the order of
        // the paper's 3,100-point space.
        assert!(s.candidates().len() > 700, "space too small: {}", s.candidates().len());
        assert!(s.candidates().len() <= 19 * 50);
    }

    #[test]
    fn deployment_costs() {
        let d = Deployment::new(InstanceType::C5Xlarge, 10);
        assert!((d.hourly_cost().dollars() - 1.7).abs() < 1e-12);
        assert!((d.cost_for(SimDuration::from_hours(2.0)).dollars() - 3.4).abs() < 1e-12);
        assert_eq!(d.to_string(), "10×c5.xlarge");
    }

    #[test]
    fn contains_and_candidates() {
        let s = space();
        assert!(s.contains(&Deployment::new(InstanceType::C5Xlarge, 25)));
        assert!(!s.contains(&Deployment::new(InstanceType::C5nXlarge, 2)));
        assert_eq!(s.candidates().len(), 150);
    }

    #[test]
    fn features_distinguish_types_and_sizes() {
        let s = space();
        let a = s.features(&Deployment::new(InstanceType::C5Xlarge, 4));
        let b = s.features(&Deployment::new(InstanceType::P2Xlarge, 4));
        let c = s.features(&Deployment::new(InstanceType::C5Xlarge, 5));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn feature_bounds_cover_candidates() {
        let s = space();
        let bounds = s.feature_bounds();
        for d in s.candidates() {
            for (v, (lo, hi)) in s.features(d).iter().zip(bounds) {
                assert!(v >= lo && v <= hi);
            }
        }
    }

    #[test]
    fn tabled_features_equal_the_catalog_expressions_bitwise() {
        for t in InstanceType::all() {
            let s = t.spec();
            for n in [1u32, 7, 50] {
                let want = [
                    s.hourly_usd.log10(),
                    s.cpu_peak_gflops.log10(),
                    (s.gpu_peak_gflops() + 1.0).log10(),
                    s.network_gbps.log10(),
                    n as f64,
                ];
                let got = space().features(&Deployment::new(t, n));
                let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, want.map(f64::to_bits), "{t} × {n}");
            }
        }
    }

    #[test]
    fn kept_bounds_equal_a_fold_over_the_candidates() {
        let fold = |s: &SearchSpace| {
            let mut b = vec![(f64::INFINITY, f64::NEG_INFINITY); SearchSpace::FEATURE_DIM];
            for d in s.candidates() {
                for (b, v) in b.iter_mut().zip(s.features(d)) {
                    *b = (b.0.min(v), b.1.max(v));
                }
            }
            b
        };
        let full = SearchSpace::full(&TrainingJob::resnet_cifar10(), &ThroughputModel::default());
        let s = space();
        for sp in [
            full.clone(),
            s.clone(),
            s.restricted_to(&[InstanceType::P2Xlarge]),
            full.coarsened(&[1, 8, 32]),
        ] {
            assert_eq!(sp.feature_bounds(), &fold(&sp)[..]);
        }
    }

    #[test]
    fn restriction_and_coarsening() {
        let s = space();
        let r = s.restricted_to(&[InstanceType::C54xlarge]);
        assert!(r.candidates().iter().all(|d| d.itype == InstanceType::C54xlarge));
        assert_eq!(r.candidates().len(), 50);
        let c = s.coarsened(&[1, 8, 32]);
        assert_eq!(c.candidates().len(), 9);
        assert!(c.candidates().iter().all(|d| [1, 8, 32].contains(&d.n)));
    }

    #[test]
    fn infeasible_deployments_excluded() {
        // ZeRO-20B on p3.8xlarge needs ≥5 nodes for memory.
        use mlcd_perfmodel::{CommTopology, DatasetSpec, ModelSpec, Platform};
        let job = TrainingJob {
            model: ModelSpec::zero_20b(),
            dataset: DatasetSpec::bert_corpus(),
            epochs: 1,
            global_batch: 2048,
            platform: Platform::PyTorch,
            topology: CommTopology::RingAllReduce,
            grad_keep_frac: 1.0,
            scaling: mlcd_perfmodel::ScalingMode::Strong,
        };
        let s = SearchSpace::new(&[InstanceType::P38xlarge], 20, &job, &ThroughputModel::default());
        assert!(s.candidates().iter().all(|d| d.n >= 5));
        assert!(!s.candidates().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_deployment_rejected() {
        let _ = Deployment::new(InstanceType::C5Xlarge, 0);
    }
}
