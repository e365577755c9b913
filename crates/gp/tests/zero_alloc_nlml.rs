//! Pins the allocation-free contract of the likelihood fast path: after
//! one warm-up call, a lane evaluation (`Likelihood::eval`) performs zero
//! heap allocations, whatever θ it is given and however many share its
//! batch — inside the walls, outside them, or where the kernel matrix
//! needs jitter or holds entries whose `exp` argument lies outside the
//! inlined `exp`'s main range. The one-time fast-path choice (CPU
//! detection plus self-check) allocates nothing either. A warm
//! `LaneGroup::run` at a search's θ dimension allocates nothing. A warm
//! refit through a `FitScratch` allocates nothing per lockstep round: its
//! count does not grow with the evaluation budget.
//!
//! Lives alone in this integration-test binary because the counting
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mlcd_gp::fit::fit_hyperparams_with_scratch;
use mlcd_gp::{DistanceWorkspace, FitOptions, FitScratch, KernelFamily, Likelihood, NlmlScratch};
use mlcd_linalg::{multi_starts, LaneGroup, NelderMeadOptions, SampleRange, LANES};

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

/// Runs `f` with the counter armed and returns the allocations it made.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// One test function: the counter is process-wide, and the harness would
/// run separate tests on parallel threads that allocate as they start.
#[test]
fn warm_likelihood_evaluation_and_refit_allocate_nothing() {
    warm_lane_evaluation_allocates_nothing();
    warm_lane_group_run_allocates_nothing();
    warm_refit_allocates_nothing_per_round();
}

fn warm_lane_evaluation_allocates_nothing() {
    // The first call in this process makes the fast-path choice.
    let mut fast = false;
    let detect = count_allocs(|| fast = mlcd_linalg::fastpath::fast_path_enabled());
    assert_eq!(detect, 0, "fast-path detection (fast = {fast}) allocated");

    // 14 observations in 3 dimensions, two of them duplicates (r² = 0).
    let mut xs: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            let t = i as f64 / 11.0;
            vec![t, (t * 7.0).fract(), (t * 3.3).sin().abs()]
        })
        .collect();
    xs.push(xs[3].clone());
    xs.push(xs[8].clone());
    let z: Vec<f64> = xs.iter().map(|x| (x[0] * 5.0).sin() + x[1] - 0.5).collect();
    let dist = DistanceWorkspace::new(&xs);
    let opts = FitOptions::default();
    let thetas: [[f64; 5]; 5] = [
        // Inside the box.
        [0.3, -1.0, 0.2, 1.5, -4.0],
        // Tiny lengthscales: far pairs' `exp` arguments fall past −512.
        [0.0, -4.5, -4.5, -4.5, -13.0],
        // Long lengthscales and the noise floor: near-singular, needs jitter.
        [2.9, 3.6, 3.6, 3.6, -14.5],
        // Exactly zero everywhere: `exp(0)` is off the main range.
        [0.0, 0.0, 0.0, 0.0, 0.0],
        // Outside the soft walls.
        [9.0, 0.0, 0.0, 0.0, 0.0],
    ];

    for family in KernelFamily::ALL {
        let likelihood = Likelihood::new(&dist, &z, family, &opts);
        let mut scratch = NlmlScratch::new();
        let refs: Vec<&[f64]> = thetas.iter().map(|t| &t[..]).collect();
        let mut out = [0.0; 4];
        // Warm-up: buffers grow to their final size.
        likelihood.eval(&mut scratch, &refs[..4], &mut out);
        let mut values = Vec::with_capacity(thetas.len() * 4);
        let allocs = count_allocs(|| {
            for _ in 0..4 {
                for theta in &refs {
                    likelihood.eval(&mut scratch, &[theta], &mut out);
                    values.push(out[0]);
                }
                // Every batch width, walls mixed in.
                for width in 1..=4 {
                    likelihood.eval(&mut scratch, &refs[5 - width..], &mut out);
                }
            }
        });
        assert_eq!(allocs, 0, "{family:?}: warm lane evaluation allocated");
        assert!(values[..4].iter().all(|v| v.is_finite()), "{family:?}: {values:?}");
        assert_eq!(values[4], f64::INFINITY, "{family:?}: wall not hit");
    }
}

fn warm_lane_group_run_allocates_nothing() {
    // A search's fit: d = 5 inputs, so θ has the 7 coordinates of every
    // search, and four starts in one group.
    let xs: Vec<Vec<f64>> = (0..9)
        .map(|i| {
            let t = i as f64 / 8.0;
            vec![t, (t * 5.0).fract(), (t * 2.1).cos(), (t * 3.7).sin(), 1.0 - t * t]
        })
        .collect();
    let z: Vec<f64> = xs.iter().map(|x| (x[0] * 4.0).sin() + x[2] - x[4]).collect();
    let dist = DistanceWorkspace::new(&xs);
    let opts = FitOptions::default();
    let mut ranges = vec![SampleRange::new(opts.log_signal_var.0, opts.log_signal_var.1)];
    ranges.extend([SampleRange::new(opts.log_lengthscale.0, opts.log_lengthscale.1); 5]);
    ranges.push(SampleRange::new(opts.log_noise_var.0, opts.log_noise_var.1));
    let starts = multi_starts(&ranges, LANES, opts.seed);
    let likelihood = Likelihood::new(&dist, &z, KernelFamily::Matern52, &opts);
    let mut group = LaneGroup::new(NlmlScratch::new());
    // Warm-up: the lane buffers and the group's result buffers grow.
    group.run(&likelihood, &starts, &opts.nm);
    let before = group.scratch.counters();
    let allocs = count_allocs(|| group.run(&likelihood, &starts, &opts.nm));
    let batches = group.scratch.counters().batches - before.batches;
    assert_eq!(allocs, 0, "a warm LaneGroup::run allocated");
    assert!(batches > 100, "{batches} lane batches");
    assert!(group.results().iter().all(|r| r.x.len() == 7 && r.fx.is_finite()));
}

fn warm_refit_allocates_nothing_per_round() {
    let xs: Vec<Vec<f64>> = (0..10)
        .map(|i| {
            let t = i as f64 / 9.0;
            vec![t, (t * 5.0).fract(), (t * 2.1).cos()]
        })
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 4.0).sin() + x[2]).collect();
    let refit = |budget: usize, scratch: &mut FitScratch| {
        let opts = FitOptions {
            nm: NelderMeadOptions { max_evals: budget, ..FitOptions::default().nm },
            ..FitOptions::default()
        };
        let fit = fit_hyperparams_with_scratch(&xs, &ys, KernelFamily::Matern52, &opts, scratch);
        assert!(fit.expect("fit").nlml.is_finite());
    };
    let mut scratch = FitScratch::new();
    // Warm-up: the planes, every group's result and lane buffers, and
    // the fan-out pool reach their final size.
    refit(250, &mut scratch);
    refit(250, &mut scratch);
    let before = scratch.counters();
    let short = count_allocs(|| refit(60, &mut scratch));
    let long = count_allocs(|| refit(250, &mut scratch));
    let rounds = scratch.counters().batches - before.batches;
    assert!(rounds > 400, "{rounds} lane batches");
    // Per fit there remain the targets, the start list, the per-call
    // fan-out slots and the result; none of them depends on how many
    // rounds ran.
    assert_eq!(short, long, "a warm refit's allocations grew with its rounds");
    // With the steppers on the stack, the groups' result buffers must not
    // add to that: 22 is what a warm refit made with heap-backed steppers
    // kept in the groups (21 when the fan-out runs inline).
    assert!(long <= 22, "a warm refit made {long} allocations, more than 22");
}
