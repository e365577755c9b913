//! Pins the allocation-free contract of the likelihood fast path: after
//! one warm-up call, `CachedNlml::eval` performs zero heap allocations,
//! whatever θ it is given — inside the walls, outside them, or where the
//! kernel matrix needs jitter or holds entries whose `exp` argument lies
//! outside the inlined `exp`'s main range. The one-time fast-path choice
//! (CPU detection plus self-check) allocates nothing either.
//!
//! Lives alone in this integration-test binary because the counting
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mlcd_gp::{CachedNlml, DistanceWorkspace, FitOptions, KernelFamily};

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

#[test]
fn warm_likelihood_evaluation_allocates_nothing() {
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
        let mut cache = CachedNlml::new(&dist);
        // Warm-up: buffers grow to their final size.
        cache.eval(&thetas[0], &z, family, &opts);
        let mut values = Vec::with_capacity(thetas.len() * 4);
        let allocs = count_allocs(|| {
            for _ in 0..4 {
                for theta in &thetas {
                    values.push(cache.eval(theta, &z, family, &opts));
                }
            }
        });
        assert_eq!(allocs, 0, "{family:?}: warm CachedNlml::eval allocated");
        assert!(values[..4].iter().all(|v| v.is_finite()), "{family:?}: {values:?}");
        assert_eq!(values[4], f64::INFINITY, "{family:?}: wall not hit");
    }
}
