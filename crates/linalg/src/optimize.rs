//! Derivative-free optimisation: Nelder–Mead simplex with restarts, with
//! the restarts run four at a time in lockstep.
//!
//! The GP marginal likelihood is cheap (one Cholesky per evaluation, on a
//! matrix with one row per profiling observation) but non-convex in the
//! kernel hyperparameters, so we run Nelder–Mead from several Latin-
//! hypercube starts and keep the best optimum.
//!
//! # One Nelder–Mead
//!
//! [`NelderMead`] is the method as an ask/tell stepper: it holds one run's
//! simplex, [`ask`](NelderMead::ask)s for the next point it needs and takes
//! the objective's value there through [`tell`](NelderMead::tell).
//! [`nelder_mead`] is the loop that answers every ask with a scalar
//! objective; every other driver steps the same type.
//!
//! # Starts in lockstep
//!
//! [`LaneGroup`] runs up to [`LANES`] starts side by side. Each round, every
//! live start submits its next point. A point the objective can answer
//! without evaluating it ([`LaneObjective::answer_eagerly`], e.g. a soft
//! wall) is answered at once and that start moves on to its next point; the
//! rest go to one [`LaneObjective::eval_lanes`] call, so every lane of a
//! batch is a real evaluation. A start only ever sees its own answers, so
//! its trajectory and [`OptResult`] are exactly what [`nelder_mead`] gives
//! it alone. [`lockstep_nelder_mead`] fans the groups out over the
//! process-wide `rayon` helper pool (no thread is spawned per call) and
//! picks the best in start order, so the result is the same at any thread
//! count and under concurrent callers. Scalar objectives take the same path
//! through [`multi_start_nelder_mead_with`], one point at a time.

use crate::sampling::{latin_hypercube, SampleRange};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How many starts run in lockstep: one per `f64` lane of an AVX2 register.
pub const LANES: usize = 4;

/// Tunables for one Nelder–Mead run. The defaults follow the classic
/// (1, 2, 0.5, 0.5) reflection/expansion/contraction/shrink coefficients.
#[derive(Debug, Clone, Copy)]
pub struct NelderMeadOptions {
    /// Maximum number of function evaluations.
    pub max_evals: usize,
    /// Converged when the simplex's function-value spread falls below this.
    pub f_tol: f64,
    /// Converged when the simplex's largest vertex-to-best distance falls
    /// below this.
    pub x_tol: f64,
    /// Initial simplex edge length, relative to each coordinate's magnitude
    /// (absolute when the coordinate is zero).
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions { max_evals: 400, f_tol: 1e-10, x_tol: 1e-7, initial_step: 0.1 }
    }
}

/// Result of an optimisation run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
    /// Whether a tolerance-based convergence test fired (as opposed to
    /// running out of evaluations).
    pub converged: bool,
}

/// Which point a [`NelderMead`] run is waiting on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Step {
    /// Vertex `i` of the initial simplex.
    Init(usize),
    /// The reflection of the worst vertex through the centroid.
    Reflect,
    /// The expansion past the reflection.
    Expand,
    /// The outside or inside contraction.
    Contract,
    /// Vertex `i` of a simplex shrunk toward the best vertex.
    Shrink(usize),
    /// The run has finished.
    #[default]
    Done,
}

/// One Nelder–Mead run as an ask/tell stepper.
///
/// Objective values that are NaN are treated as `+inf`, so the simplex
/// retreats from invalid regions (e.g. hyperparameters that make a kernel
/// matrix unfactorable) instead of corrupting the ordering.
///
/// Every trial point is built into one of the stepper's reusable buffers,
/// so a run allocates nothing once [`restart`](Self::restart)ed at the
/// same dimension. The per-element arithmetic is `c[i] + s·(a[i] − b[i])`
/// in ascending `i`, the order trajectories have always been computed in.
#[derive(Debug, Clone, Default)]
pub struct NelderMead {
    opts: NelderMeadOptions,
    simplex: Vec<(Vec<f64>, f64)>,
    centroid: Vec<f64>,
    reflect: Vec<f64>,
    trial: Vec<f64>,
    pivot: Vec<f64>,
    /// The reflection's value, while an expansion or contraction is pending.
    f_r: f64,
    evals: usize,
    converged: bool,
    step: Step,
}

impl NelderMead {
    /// A run from `x0`.
    ///
    /// # Panics
    /// Panics if `x0` is empty.
    pub fn new(x0: &[f64], opts: &NelderMeadOptions) -> Self {
        let mut nm = NelderMead::default();
        nm.restart(x0, opts);
        nm
    }

    /// Start a new run from `x0`, reusing this stepper's buffers.
    ///
    /// # Panics
    /// Panics if `x0` is empty.
    pub fn restart(&mut self, x0: &[f64], opts: &NelderMeadOptions) {
        let n = x0.len();
        assert!(n > 0, "nelder_mead: empty start point");
        self.opts = *opts;
        // Initial simplex: x0 plus a bump along each axis.
        self.simplex.resize_with(n + 1, || (Vec::new(), 0.0));
        for (i, (x, _)) in self.simplex.iter_mut().enumerate() {
            x.clear();
            x.extend_from_slice(x0);
            if let Some(axis) = i.checked_sub(1) {
                let step = if crate::is_exact_zero(x[axis]) {
                    opts.initial_step
                } else {
                    opts.initial_step * x[axis].abs()
                };
                x[axis] += step;
            }
        }
        for buf in [&mut self.centroid, &mut self.reflect, &mut self.trial, &mut self.pivot] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        self.evals = 0;
        self.converged = false;
        self.step = Step::Init(0);
    }

    /// The point whose objective value the run needs next, or `None` once
    /// it has finished.
    pub fn ask(&self) -> Option<&[f64]> {
        match self.step {
            Step::Init(i) | Step::Shrink(i) => Some(&self.simplex[i].0),
            Step::Reflect => Some(&self.reflect),
            Step::Expand | Step::Contract => Some(&self.trial),
            Step::Done => None,
        }
    }

    /// Answer the last [`ask`](Self::ask) with the objective's value there.
    ///
    /// # Panics
    /// Panics if the run has finished.
    pub fn tell(&mut self, value: f64) {
        let v = if value.is_nan() { f64::INFINITY } else { value };
        self.evals += 1;
        let n = self.simplex.len() - 1;
        match self.step {
            Step::Init(i) | Step::Shrink(i) => {
                self.simplex[i].1 = v;
                if i < n {
                    self.step = if matches!(self.step, Step::Init(_)) {
                        Step::Init(i + 1)
                    } else {
                        Step::Shrink(i + 1)
                    };
                } else {
                    self.iterate();
                }
            }
            Step::Reflect => {
                self.f_r = v;
                if v < self.simplex[0].1 {
                    // Try expanding further along the reflection direction.
                    for i in 0..n {
                        self.trial[i] = self.centroid[i] + 2.0 * (self.centroid[i] - self.pivot[i]);
                    }
                    self.step = Step::Expand;
                } else if v < self.simplex[n - 1].1 {
                    self.replace_worst(false, v);
                } else {
                    // Contract toward the centroid, outside or inside.
                    let toward = if v < self.simplex[n].1 { &self.reflect } else { &self.pivot };
                    let points = self.trial.iter_mut().zip(&self.centroid).zip(toward);
                    for ((trial, &c), &w) in points {
                        *trial = c + 0.5 * (w - c);
                    }
                    self.step = Step::Contract;
                }
            }
            Step::Expand => {
                if v < self.f_r {
                    self.replace_worst(true, v);
                } else {
                    self.replace_worst(false, self.f_r);
                }
            }
            Step::Contract => {
                if v < self.simplex[n].1.min(self.f_r) {
                    self.replace_worst(true, v);
                } else {
                    // Shrink everything toward the best vertex.
                    self.pivot.copy_from_slice(&self.simplex[0].0);
                    for vertex in self.simplex.iter_mut().skip(1) {
                        for (s, &b) in vertex.0.iter_mut().zip(&self.pivot) {
                            *s = b + 0.5 * (*s - b);
                        }
                    }
                    self.step = Step::Shrink(1);
                }
            }
            Step::Done => panic!("NelderMead::tell: the run has finished"),
        }
    }

    /// Put the trial point (`true`) or the reflection (`false`) in place of
    /// the worst vertex, with value `f`, and start the next iteration.
    fn replace_worst(&mut self, trial: bool, f: f64) {
        let worst = self.simplex.last_mut().expect("a simplex has n + 1 ≥ 2 vertices");
        worst.0.copy_from_slice(if trial { &self.trial } else { &self.reflect });
        worst.1 = f;
        self.iterate();
    }

    /// The top of an iteration: stop on the budget or on convergence, else
    /// ask for the reflection of the worst vertex.
    fn iterate(&mut self) {
        if self.evals >= self.opts.max_evals {
            self.finish();
            return;
        }
        let n = self.simplex.len() - 1;
        self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (best_f, worst_f) = (self.simplex[0].1, self.simplex[n].1);
        let spread = (worst_f - best_f).abs();
        // Both criteria must hold: a symmetric simplex (two vertices
        // straddling the optimum with equal values) has zero f-spread but
        // has not collapsed yet. The distance (a square root per vertex)
        // is computed only once the cheap tests already pass.
        if best_f.is_finite() && spread < self.opts.f_tol && self.max_dist() < self.opts.x_tol {
            self.converged = true;
            self.finish();
            return;
        }
        // Centroid of all but the worst vertex.
        self.centroid.fill(0.0);
        for (x, _) in &self.simplex[..n] {
            for (c, &v) in self.centroid.iter_mut().zip(x) {
                *c += v;
            }
        }
        for c in &mut self.centroid {
            *c /= n as f64;
        }
        self.pivot.copy_from_slice(&self.simplex[n].0);
        for i in 0..n {
            self.reflect[i] = self.centroid[i] + 1.0 * (self.centroid[i] - self.pivot[i]);
        }
        self.step = Step::Reflect;
    }

    /// The largest distance from the best vertex to any other.
    fn max_dist(&self) -> f64 {
        let best = &self.simplex[0].0;
        self.simplex[1..]
            .iter()
            .map(|(x, _)| x.iter().zip(best).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt())
            .fold(0.0_f64, f64::max)
    }

    fn finish(&mut self) {
        self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.step = Step::Done;
    }

    /// Whether the run has finished.
    pub fn is_done(&self) -> bool {
        self.step == Step::Done
    }

    /// The best vertex's value (meaningful once the run has finished).
    pub fn best_f(&self) -> f64 {
        self.simplex[0].1
    }

    /// The finished run's result.
    ///
    /// # Panics
    /// Panics if the run has not finished.
    pub fn result(&self) -> OptResult {
        assert!(self.is_done(), "NelderMead::result: the run has not finished");
        let (x, fx) = &self.simplex[0];
        OptResult { x: x.clone(), fx: *fx, evals: self.evals, converged: self.converged }
    }
}

/// Minimise `f` starting from `x0` with the Nelder–Mead simplex method.
///
/// Objective values that are NaN are treated as `+inf` (see [`NelderMead`]).
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> OptResult {
    let mut nm = NelderMead::new(x0, opts);
    while let Some(x) = nm.ask() {
        let v = f(x);
        nm.tell(v);
    }
    nm.result()
}

/// An objective that evaluates up to [`LANES`] points at once.
///
/// The objective itself is shared by every group of a multi-start; each
/// group owns one `Scratch`, which the calls below may mutate (buffers,
/// counters).
pub trait LaneObjective {
    /// Per-group mutable state.
    type Scratch;

    /// The value at `x` when it is known without an evaluation (e.g. `x` is
    /// outside a soft wall), or `None`. Points answered here take no lane.
    fn answer_eagerly(&self, scratch: &mut Self::Scratch, x: &[f64]) -> Option<f64> {
        let _ = (scratch, x);
        None
    }

    /// Evaluate `xs` (one to [`LANES`] points) into `out[..xs.len()]`.
    ///
    /// The lockstep drivers pass only points for which
    /// [`answer_eagerly`](Self::answer_eagerly) returned `None`, so an
    /// implementation need not repeat that test.
    fn eval_lanes(&self, scratch: &mut Self::Scratch, xs: &[&[f64]], out: &mut [f64]);
}

/// A scalar objective as a [`LaneObjective`]: each group's scratch is its
/// own `F`, called on one point at a time.
struct PointWise<F>(PhantomData<fn() -> F>);

impl<F: FnMut(&[f64]) -> f64> LaneObjective for PointWise<F> {
    type Scratch = F;

    fn eval_lanes(&self, f: &mut F, xs: &[&[f64]], out: &mut [f64]) {
        for (o, x) in out.iter_mut().zip(xs) {
            *o = f(x);
        }
    }
}

/// One group of up to [`LANES`] starts run in lockstep, with its scratch.
///
/// The steppers are kept between runs, so a warm group allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LaneGroup<S> {
    /// The group's objective scratch.
    pub scratch: S,
    steppers: [NelderMead; LANES],
    used: usize,
}

impl<S> LaneGroup<S> {
    /// An idle group around `scratch`.
    pub fn new(scratch: S) -> Self {
        LaneGroup { scratch, steppers: Default::default(), used: 0 }
    }

    /// Minimise `objective` from each of `starts` (at most [`LANES`]) in
    /// lockstep. Each start's trajectory is the one [`nelder_mead`] would
    /// take from it alone.
    ///
    /// # Panics
    /// Panics on more than [`LANES`] starts or an empty start point.
    pub fn run<O>(&mut self, objective: &O, starts: &[Vec<f64>], opts: &NelderMeadOptions)
    where
        O: LaneObjective<Scratch = S> + ?Sized,
    {
        assert!(starts.len() <= LANES, "LaneGroup::run: {} starts", starts.len());
        self.used = starts.len();
        let steppers = &mut self.steppers[..starts.len()];
        for (nm, x0) in steppers.iter_mut().zip(starts) {
            nm.restart(x0, opts);
        }
        let mut out = [0.0; LANES];
        loop {
            let mut lane_of = [0usize; LANES];
            let mut m = 0;
            for (i, nm) in steppers.iter_mut().enumerate() {
                while let Some(x) = nm.ask() {
                    match objective.answer_eagerly(&mut self.scratch, x) {
                        Some(v) => nm.tell(v),
                        None => {
                            lane_of[m] = i;
                            m += 1;
                            break;
                        }
                    }
                }
            }
            if m == 0 {
                return;
            }
            let mut xs: [&[f64]; LANES] = [&[]; LANES];
            for (x, &i) in xs.iter_mut().zip(&lane_of[..m]) {
                *x = steppers[i].ask().expect("a start in a lane is live");
            }
            objective.eval_lanes(&mut self.scratch, &xs[..m], &mut out[..m]);
            for (&i, &v) in lane_of[..m].iter().zip(&out) {
                steppers[i].tell(v);
            }
        }
    }

    /// The steppers of the last [`run`](Self::run), in start order.
    pub fn runs(&self) -> &[NelderMead] {
        &self.steppers[..self.used]
    }
}

/// A group's lock, recovered if a panic poisoned it: a panic mid-run leaves
/// steppers part-way, and every [`LaneGroup::run`] restarts all of them.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Minimise `objective` from every start, [`LANES`] consecutive starts per
/// group in lockstep, and return the best result (the first in start
/// order among equal values).
///
/// Group `g` runs starts `LANES·g ..` on `groups[g]`; the groups fan out
/// over the process-wide `rayon` helper pool. Every start's result is
/// independent of the grouping and of scheduling, so the outcome is the
/// same at any thread count.
///
/// # Panics
/// Panics with no starts or fewer than `⌈starts / LANES⌉` groups.
pub fn lockstep_nelder_mead<O>(
    objective: &O,
    groups: &[Mutex<LaneGroup<O::Scratch>>],
    starts: &[Vec<f64>],
    opts: &NelderMeadOptions,
) -> OptResult
where
    O: LaneObjective + Sync + ?Sized,
    O::Scratch: Send,
{
    assert!(!starts.is_empty(), "lockstep_nelder_mead: need at least one start");
    let n_groups = starts.len().div_ceil(LANES);
    assert!(groups.len() >= n_groups, "lockstep_nelder_mead: {} groups", groups.len());
    let work: Vec<_> = groups.iter().zip(starts.chunks(LANES)).collect();
    let bests: Vec<(usize, f64)> = work
        .par_iter()
        .map(|&(group, chunk)| {
            let mut group = lock(group);
            group.run(objective, chunk, opts);
            let runs = group.runs().iter().enumerate();
            let best = runs.min_by(|a, b| a.1.best_f().total_cmp(&b.1.best_f()));
            best.map(|(i, nm)| (i, nm.best_f())).expect("a group has at least one start")
        })
        .collect();
    let (g, &(i, _)) = bests
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .expect("at least one group");
    lock(&groups[g]).runs()[i].result()
}

/// Minimise `f` from `n_starts` Latin-hypercube starting points within
/// `ranges` and return the best.
///
/// Deterministic for a fixed `seed`.
pub fn multi_start_nelder_mead(
    f: impl Fn(&[f64]) -> f64 + Sync,
    ranges: &[SampleRange],
    n_starts: usize,
    seed: u64,
    opts: &NelderMeadOptions,
) -> OptResult {
    assert!(n_starts > 0, "multi_start_nelder_mead: need at least one start");
    multi_start_nelder_mead_with(|| |x: &[f64]| f(x), ranges, n_starts, &[], seed, opts)
}

/// Generalised multi-start: `make_f` builds a fresh (possibly stateful)
/// objective per group of [`LANES`] starts, which evaluates its starts'
/// points one at a time, and `extra_starts` are appended after the
/// `n_starts` Latin-hypercube points (e.g. a warm start carried over from
/// a previous fit).
///
/// The LHC draw depends only on `ranges`, `n_starts` and `seed`, so
/// appending extra starts never perturbs it. Results are reduced in start
/// order (ties resolved by position, independent of thread scheduling),
/// so the outcome is deterministic for a fixed `seed`.
pub fn multi_start_nelder_mead_with<G, F>(
    make_f: G,
    ranges: &[SampleRange],
    n_starts: usize,
    extra_starts: &[Vec<f64>],
    seed: u64,
    opts: &NelderMeadOptions,
) -> OptResult
where
    G: Fn() -> F,
    F: FnMut(&[f64]) -> f64 + Send,
{
    let starts = multi_starts(ranges, n_starts, extra_starts, seed);
    let groups: Vec<_> =
        (0..starts.len().div_ceil(LANES)).map(|_| Mutex::new(LaneGroup::new(make_f()))).collect();
    lockstep_nelder_mead(&PointWise(PhantomData), &groups, &starts, opts)
}

/// The start list of a multi-start: `n_starts` Latin-hypercube points in
/// `ranges` drawn from `seed`, then `extra_starts`.
///
/// # Panics
/// Panics when the list would be empty.
pub fn multi_starts(
    ranges: &[SampleRange],
    n_starts: usize,
    extra_starts: &[Vec<f64>],
    seed: u64,
) -> Vec<Vec<f64>> {
    assert!(n_starts + extra_starts.len() > 0, "multi-start: need at least one start");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut starts = latin_hypercube(ranges, n_starts, &mut rng);
    starts.extend(extra_starts.iter().cloned());
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let r = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default());
        assert!(r.converged, "should converge: {r:?}");
        assert!((r.x[0] - 3.0).abs() < 1e-4, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 1.0).abs() < 1e-4, "x1 = {}", r.x[1]);
        assert!(r.fx < 1e-7);
    }

    #[test]
    fn rosenbrock_2d() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = NelderMeadOptions { max_evals: 4000, ..Default::default() };
        let r = nelder_mead(f, &[-1.2, 1.0], &opts);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{r:?}");
        assert!((r.x[1] - 1.0).abs() < 1e-3, "{r:?}");
    }

    #[test]
    fn one_dimensional() {
        let f = |x: &[f64]| (x[0] - 0.5).powi(2) + 7.0;
        let r = nelder_mead(f, &[10.0], &NelderMeadOptions::default());
        assert!((r.x[0] - 0.5).abs() < 1e-4);
        assert!((r.fx - 7.0).abs() < 1e-8);
    }

    #[test]
    fn respects_eval_budget() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let opts =
            NelderMeadOptions { max_evals: 30, f_tol: 0.0, x_tol: 0.0, ..Default::default() };
        let r = nelder_mead(f, &[5.0, 5.0, 5.0, 5.0], &opts);
        // A full iteration can add a handful of evals past the check.
        assert!(r.evals <= 40, "evals = {}", r.evals);
        assert!(!r.converged);
    }

    #[test]
    fn nan_objective_is_retreated_from() {
        // NaN in the half-plane x > 1: optimum at x = 1 boundary region.
        let f = |x: &[f64]| {
            if x[0] > 1.0 {
                f64::NAN
            } else {
                (x[0] - 0.9).powi(2)
            }
        };
        let r = nelder_mead(f, &[0.0], &NelderMeadOptions::default());
        assert!(r.fx.is_finite());
        assert!((r.x[0] - 0.9).abs() < 1e-3, "{r:?}");
    }

    #[test]
    fn multi_start_escapes_local_minimum() {
        // Double well: local min near x=2 (f=0.5), global near x=-2 (f=0).
        let f = |x: &[f64]| {
            let a = (x[0] - 2.0).powi(2) + 0.5;
            let b = (x[0] + 2.0).powi(2);
            a.min(b)
        };
        let ranges = [SampleRange { lo: -5.0, hi: 5.0 }];
        let r = multi_start_nelder_mead(f, &ranges, 8, 42, &NelderMeadOptions::default());
        assert!((r.x[0] + 2.0).abs() < 1e-3, "{r:?}");
        assert!(r.fx < 1e-6);
    }

    #[test]
    fn multi_start_deterministic_for_seed() {
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2);
        let ranges = [SampleRange { lo: -3.0, hi: 3.0 }, SampleRange { lo: -3.0, hi: 3.0 }];
        let a = multi_start_nelder_mead(f, &ranges, 4, 7, &NelderMeadOptions::default());
        let b = multi_start_nelder_mead(f, &ranges, 4, 7, &NelderMeadOptions::default());
        assert_eq!(a.x, b.x);
        assert_eq!(a.fx, b.fx);
    }

    #[test]
    fn stateful_objective_is_accepted() {
        // FnMut objectives (e.g. workspace-backed evaluators) must work;
        // the eval count seen by the closure matches the reported one.
        let mut calls = 0usize;
        let r = nelder_mead(
            |x: &[f64]| {
                calls += 1;
                (x[0] - 2.0).powi(2)
            },
            &[0.0],
            &NelderMeadOptions::default(),
        );
        assert_eq!(calls, r.evals);
        assert!((r.x[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn factory_multi_start_matches_plain() {
        // The generalised entry point with no extra starts is the same
        // search as the original API — identical LHC draw, identical result.
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2);
        let ranges = [SampleRange { lo: -3.0, hi: 3.0 }, SampleRange { lo: -3.0, hi: 3.0 }];
        let opts = NelderMeadOptions::default();
        let a = multi_start_nelder_mead(f, &ranges, 4, 7, &opts);
        let b = multi_start_nelder_mead_with(|| f, &ranges, 4, &[], 7, &opts);
        assert_eq!(a.x, b.x);
        assert_eq!(a.fx, b.fx);
    }

    #[test]
    fn extra_start_can_win() {
        // Narrow global well at x=-4 that LHC starts from [0, 5] cannot
        // reach; a warm start placed inside it must be kept.
        let f = |x: &[f64]| {
            let wide = (x[0] - 3.0).powi(2) + 1.0;
            let well = 50.0 * (x[0] + 4.0).powi(2);
            wide.min(well)
        };
        let ranges = [SampleRange { lo: 0.0, hi: 5.0 }];
        let opts = NelderMeadOptions::default();
        let cold = multi_start_nelder_mead_with(|| f, &ranges, 4, &[], 11, &opts);
        assert!((cold.x[0] - 3.0).abs() < 1e-3, "{cold:?}");
        let warm = multi_start_nelder_mead_with(|| f, &ranges, 4, &[vec![-4.0]], 11, &opts);
        assert!((warm.x[0] + 4.0).abs() < 1e-3, "{warm:?}");
        assert!(warm.fx < 1e-6);
    }

    #[test]
    fn extra_starts_alone_suffice() {
        // n_starts = 0 with a seeded start point is a valid configuration.
        let f = |x: &[f64]| (x[0] - 0.25).powi(2);
        let r = multi_start_nelder_mead_with(
            || f,
            &[SampleRange { lo: 0.0, hi: 1.0 }],
            0,
            &[vec![0.9]],
            3,
            &NelderMeadOptions::default(),
        );
        assert!((r.x[0] - 0.25).abs() < 1e-4);
    }

    #[test]
    fn concurrent_multi_starts_match_sequential_bit_for_bit() {
        // Four callers share the fan-out pool at once; each must get the
        // result of running its starts one after another on one thread.
        let f = |x: &[f64]| {
            (x[0] - 0.3).powi(2) + (x[1] + 0.7).powi(2) + 0.1 * (5.0 * x[0] * x[1]).sin()
        };
        let ranges = [SampleRange { lo: -2.0, hi: 2.0 }, SampleRange { lo: -2.0, hi: 2.0 }];
        let extra = [vec![1.5, -1.5]];
        let opts = NelderMeadOptions::default();
        let sequential = |seed: u64| {
            let mut starts = latin_hypercube(&ranges, 8, &mut SmallRng::seed_from_u64(seed));
            starts.extend(extra.iter().cloned());
            starts
                .iter()
                .map(|x0| nelder_mead(f, x0, &opts))
                .min_by(|a, b| a.fx.total_cmp(&b.fx))
                .expect("starts")
        };
        let pooled =
            |seed: u64| multi_start_nelder_mead_with(|| f, &ranges, 8, &extra, seed, &opts);
        let bits =
            |r: &OptResult| (r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), r.fx.to_bits());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..4u64)
                .map(|k| {
                    let (start, pooled) = (&start, &pooled);
                    s.spawn(move || {
                        start.wait();
                        (k * 100..k * 100 + 20).map(|seed| (seed, pooled(seed))).collect::<Vec<_>>()
                    })
                })
                .collect();
            for caller in callers {
                for (seed, r) in caller.join().expect("caller thread") {
                    assert_eq!(bits(&r), bits(&sequential(seed)), "seed {seed}");
                }
            }
        });
    }

    /// A seeded bumpy bowl with a NaN half-space, a `+∞` band and a
    /// soft wall: every kind of value the simplex must retreat from.
    #[derive(Clone, Copy)]
    struct Rugged {
        centre: [f64; 3],
        wall: f64,
    }

    impl Rugged {
        fn value(&self, x: &[f64]) -> f64 {
            if x[0] > 2.5 {
                return f64::NAN;
            }
            if (x[1] - 1.9).abs() < 0.05 {
                return f64::INFINITY;
            }
            x.iter()
                .zip(&self.centre)
                .map(|(v, c)| (v - c) * (v - c) + 0.05 * (7.0 * v).sin())
                .sum()
        }

        fn walled(&self, x: &[f64]) -> bool {
            x[2] < self.wall
        }
    }

    /// `Rugged` as a lane objective: the wall is answered eagerly, the rest
    /// point by point; the scratch counts `(lane calls, points, walls)`.
    impl LaneObjective for Rugged {
        type Scratch = (usize, usize, usize);

        fn answer_eagerly(&self, s: &mut Self::Scratch, x: &[f64]) -> Option<f64> {
            self.walled(x).then(|| {
                s.2 += 1;
                f64::INFINITY
            })
        }

        fn eval_lanes(&self, s: &mut Self::Scratch, xs: &[&[f64]], out: &mut [f64]) {
            assert!((1..=LANES).contains(&xs.len()), "{} points", xs.len());
            s.0 += 1;
            s.1 += xs.len();
            for (o, x) in out.iter_mut().zip(xs) {
                assert!(!self.walled(x), "a wall took a lane");
                *o = self.value(x);
            }
        }
    }

    fn opt_bits(r: &OptResult) -> (Vec<u64>, u64, usize, bool) {
        (r.x.iter().map(|v| v.to_bits()).collect(), r.fx.to_bits(), r.evals, r.converged)
    }

    #[test]
    fn lockstep_starts_match_sequential_runs_bit_for_bit() {
        let ranges = [SampleRange { lo: -3.0, hi: 3.0 }; 3];
        let budgets = [
            NelderMeadOptions { max_evals: 150, ..Default::default() },
            NelderMeadOptions { max_evals: 3000, ..Default::default() },
        ];
        let (mut all_walls, mut converged, mut exhausted) = (0, 0, 0);
        for seed in 0..12u64 {
            let obj = Rugged {
                centre: [0.3 * seed as f64 - 1.0, 0.7, -0.2 * seed as f64],
                wall: -2.0 + 0.2 * seed as f64,
            };
            let opts = &budgets[seed as usize % 2];
            for n_starts in 1..=9usize {
                // Up to two extra starts after the Latin-hypercube draw,
                // one of them exactly on the soft wall.
                let extra: Vec<Vec<f64>> =
                    [vec![1.0, -1.0, obj.wall], vec![2.4, 1.9, 0.0]][..n_starts % 3].to_vec();
                let starts = multi_starts(&ranges, n_starts, &extra, seed);
                let walled = |x: &[f64]| if obj.walled(x) { f64::INFINITY } else { obj.value(x) };
                let sequential: Vec<OptResult> =
                    starts.iter().map(|x0| nelder_mead(walled, x0, opts)).collect();

                let groups: Vec<_> = (0..starts.len().div_ceil(LANES))
                    .map(|_| Mutex::new(LaneGroup::new((0, 0, 0))))
                    .collect();
                let best = lockstep_nelder_mead(&obj, &groups, &starts, opts);
                let mut got = Vec::new();
                let (mut points, mut walls) = (0, 0);
                for g in &groups {
                    let g = lock(g);
                    got.extend(g.runs().iter().map(NelderMead::result));
                    points += g.scratch.1;
                    walls += g.scratch.2;
                }
                assert_eq!(got.len(), starts.len());
                for (i, (g, w)) in got.iter().zip(&sequential).enumerate() {
                    assert_eq!(
                        opt_bits(g),
                        opt_bits(w),
                        "seed {seed}, {n_starts} starts: start {i}"
                    );
                }
                let first_best =
                    sequential.iter().min_by(|a, b| a.fx.total_cmp(&b.fx)).expect("starts");
                assert_eq!(opt_bits(&best), opt_bits(first_best));
                let evals: usize = sequential.iter().map(|r| r.evals).sum();
                assert_eq!(points + walls, evals, "every evaluation went through the objective");
                all_walls += walls;
                converged += sequential.iter().filter(|r| r.converged).count();
                exhausted += sequential.iter().filter(|r| !r.converged).count();

                // The scalar entry point, one point at a time, agrees too.
                let pointwise =
                    multi_start_nelder_mead_with(|| walled, &ranges, n_starts, &extra, seed, opts);
                assert_eq!(opt_bits(&pointwise), opt_bits(first_best));
            }
        }
        assert!(
            all_walls > 0 && converged > 0 && exhausted > 0,
            "{all_walls} {converged} {exhausted}"
        );
    }

    #[test]
    fn stepper_restart_reuses_buffers_and_repeats_the_run() {
        let f = |x: &[f64]| (x[0] - 0.4).powi(2) + 3.0 * (x[1] + 0.1).powi(2);
        let opts = NelderMeadOptions::default();
        let mut nm = NelderMead::new(&[2.0, 2.0], &opts);
        while let Some(x) = nm.ask() {
            let v = f(x);
            nm.tell(v);
        }
        let first = nm.result();
        assert!(nm.is_done() && first.converged);
        for x0 in [[-1.0, 0.5], [2.0, 2.0]] {
            nm.restart(&x0, &opts);
            assert!(!nm.is_done());
            while let Some(x) = nm.ask() {
                let v = f(x);
                nm.tell(v);
            }
            assert_eq!(opt_bits(&nm.result()), opt_bits(&nelder_mead(f, &x0, &opts)));
        }
        assert_eq!(opt_bits(&nm.result()), opt_bits(&first));
    }

    #[test]
    fn zero_start_coordinate_gets_absolute_step() {
        // Regression: a zero coordinate must still perturb the simplex.
        let f = |x: &[f64]| (x[0] - 0.05).powi(2);
        let r = nelder_mead(f, &[0.0], &NelderMeadOptions::default());
        assert!((r.x[0] - 0.05).abs() < 1e-5);
    }
}
