//! Pins the allocation-free contract of the candidate-scoring fast path:
//! after one warm-up pass, `Surrogate::predict_batch_into` through a
//! reused `ScoreWorkspace`, and the batched EI and POI over reused
//! `AcquisitionBuffers`, perform zero heap allocations, even as
//! the model grows between scoring passes (growth happens outside the
//! measured window, exactly as in the BO loop where the workspace is
//! pre-reserved for the final model size).
//!
//! Lives alone in this integration-test binary because the counting
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mlcd::acquisition::{AcquisitionBuffers, AcquisitionKind};
use mlcd::deployment::{Deployment, SearchSpace};
use mlcd::observation::Observation;
use mlcd::scenario::Scenario;
use mlcd::search::policies::{AcquisitionPolicy, CostPenalisedAcquisition};
use mlcd::search::Surrogate;
use mlcd_cloudsim::{InstanceType, Money, SimDuration};
use mlcd_gp::ScoreWorkspace;
use mlcd_perfmodel::{ThroughputModel, TrainingJob};

/// Forwards to the system allocator, counting (de)allocations only while
/// armed so test-harness and setup allocations don't pollute the count.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System` plus lock-free atomic counters —
// every pointer/layout contract is upheld by forwarding the arguments
// unchanged, and the counters never allocate or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout handed straight to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` came from this allocator's `alloc`, which
    // forwarded to `System`, so returning them to `System` is sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: arguments forwarded unchanged to `System.realloc`; `ptr`
    // originated from `System` via our `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn obs(n: u32, speed: f64) -> Observation {
    Observation {
        deployment: Deployment::new(InstanceType::C54xlarge, n),
        speed,
        profile_time: SimDuration::from_mins(10.0),
        profile_cost: Money::from_dollars(0.1),
    }
}

#[test]
fn warm_scoring_pass_allocates_nothing() {
    let space = SearchSpace::new(
        &[InstanceType::C54xlarge],
        50,
        &TrainingJob::resnet_cifar10(),
        &ThroughputModel::default(),
    );
    let speed = |n: u32| (380.0 - 0.7 * (n as f64 - 20.0).powi(2)).max(10.0);
    let mut observations: Vec<Observation> =
        [1u32, 8, 15, 26, 40].iter().map(|&n| obs(n, speed(n))).collect();
    let pool: Vec<Deployment> = space.candidates().to_vec();

    let mut sur = Surrogate::update(None, &space, &observations, 7, 1000);

    // Reserve for the largest model this test grows to (5 initial + 3
    // extensions) and the full pool, then run one warm-up pass so every
    // buffer reaches its working size.
    let mut ws = ScoreWorkspace::new();
    ws.reserve(SearchSpace::FEATURE_DIM, observations.len() + 4, pool.len());
    let mut bufs = AcquisitionBuffers::default();
    bufs.reserve(pool.len());
    let acq =
        CostPenalisedAcquisition { kind: AcquisitionKind::ExpectedImprovement, cost_penalty: true };
    // A deadline scenario scores in cost units, through the cost belief.
    let scenarios =
        [Scenario::FastestUnlimited, Scenario::CheapestWithDeadline(SimDuration::from_hours(40.0))];
    let score = |ws: &ScoreWorkspace,
                 bufs: &mut AcquisitionBuffers,
                 incumbent: &Observation,
                 scenario: &Scenario| {
        let preds = ws.predictions();
        bufs.admitted.clear();
        bufs.admitted.extend((0..pool.len()).filter(|i| i % 5 != 3));
        acq.utility_ei_batch(scenario, 5e6, &pool, preds, incumbent, bufs);
        acq.utility_poi_batch(scenario, 5e6, &pool, preds, incumbent, 1.5, bufs);
    };
    sur.as_ref().unwrap().predict_batch_into(&space, &pool, &mut ws);
    for scenario in &scenarios {
        score(&ws, &mut bufs, &observations[0], scenario);
    }

    // Three BO steps: the measured scoring pass must not allocate; the
    // model extension between passes runs outside the armed window.
    for &n in &[33u32, 11, 47] {
        let sur_ref = sur.as_ref().unwrap();
        let incumbent = observations[observations.len() / 2];
        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        sur_ref.predict_batch_into(&space, &pool, &mut ws);
        for scenario in &scenarios {
            score(&ws, &mut bufs, &incumbent, scenario);
        }
        ARMED.store(false, Ordering::SeqCst);
        let n_allocs = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(n_allocs, 0, "warm scoring pass allocated {n_allocs} times");
        assert_eq!(ws.predictions().len(), pool.len());
        // The batches did score every admitted candidate, as the
        // one-candidate path does.
        let preds = ws.predictions();
        assert_eq!(bufs.ei.len(), bufs.admitted.len());
        let scenario = scenarios.last().unwrap();
        for ((&i, ei), poi) in bufs.admitted.iter().zip(&bufs.ei).zip(&bufs.poi) {
            let want = acq.utility_ei(scenario, 5e6, &pool[i], &preds[i], &incumbent);
            assert_eq!(ei.to_bits(), want.to_bits(), "EI at {}", pool[i]);
            let want = acq.utility_poi(scenario, 5e6, &pool[i], &preds[i], &incumbent, 1.5);
            assert_eq!(poi.to_bits(), want.to_bits(), "POI at {}", pool[i]);
        }

        observations.push(obs(n, speed(n)));
        sur = Surrogate::update(sur, &space, &observations, 7, 1000);
    }
}
