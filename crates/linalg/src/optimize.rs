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
//! [`NelderMead`] is the method as an ask/tell stepper over a fixed-size
//! simplex: it holds one run's vertices on the stack,
//! [`ask`](NelderMead::ask)s for the next point it needs and takes the
//! objective's value there through [`tell`](NelderMead::tell). Its
//! dimension `N` is a compile-time constant, so the simplex, its values and
//! the work vectors are arrays and every loop over them has a known trip
//! count. The runtime-dimension entry points ([`nelder_mead`],
//! [`LaneGroup::run`] and the multi-starts through it) dispatch once per
//! run on the start's length, to a stepper for each `N` from 1 to
//! [`MAX_DIM`].
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
//! through [`multi_start_nelder_mead`], one point at a time.

// lint: allow(hot-index, file) — vertex indices are below the const vertex count V = N + 1,
// coordinate indices below the const dimension N, and lane indices below LANES (`m ≤ LANES`
// lanes are filled per round); no index depends on a runtime length.

use crate::sampling::{latin_hypercube, SampleRange};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How many starts run in lockstep: one per `f64` lane of an AVX2 register.
pub const LANES: usize = 4;

/// The longest start point the Nelder–Mead drivers accept. Calibration
/// fits 2 coordinates and a GP fit `d + 2` (7 in every search).
pub const MAX_DIM: usize = 16;

/// Evaluates `$body` with `$N` bound to the runtime dimension `$n` as a
/// constant and `$V` to `$N + 1`, for every `$N` from 1 to [`MAX_DIM`].
///
/// # Panics
/// Panics on a dimension of 0 or above [`MAX_DIM`].
macro_rules! with_dim {
    ($n:expr, |$N:ident, $V:ident| $body:expr) => {
        with_dim!(@arms $n, $N, $V, $body; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
    (@arms $n:expr, $N:ident, $V:ident, $body:expr; $($k:literal)*) => {
        match $n {
            0 => panic!("nelder_mead: empty start point"),
            $($k => {
                const $N: usize = $k;
                const $V: usize = $N + 1;
                $body
            })*
            n => panic!("nelder_mead: {n} coordinates; at most MAX_DIM = {MAX_DIM} are supported"),
        }
    };
}

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
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    Done,
}

/// One Nelder–Mead run in `N` coordinates as an ask/tell stepper; `V` is
/// the vertex count, `N + 1` (stable Rust cannot write `N + 1` in a type).
///
/// Objective values that are NaN are treated as `+inf`, so the simplex
/// retreats from invalid regions (e.g. hyperparameters that make a kernel
/// matrix unfactorable) instead of corrupting the ordering.
///
/// Whenever an iteration starts, the vertices are ordered by value under
/// `total_cmp`, the older vertex first among equal values: the order a
/// stable sort of the whole simplex gives. The initial and the shrunk
/// simplex get a full stable insertion sort; a new vertex in place of the
/// worst is moved left past every vertex of strictly greater value, which
/// is where a stable sort of the otherwise sorted simplex puts it. The
/// per-element arithmetic is `c[i] + s·(a[i] − b[i])` in ascending `i`, the
/// order trajectories have always been computed in.
#[derive(Debug, Clone)]
pub struct NelderMead<const N: usize, const V: usize> {
    opts: NelderMeadOptions,
    /// The vertices.
    x: [[f64; N]; V],
    /// The objective at each vertex.
    f: [f64; V],
    centroid: [f64; N],
    reflect: [f64; N],
    trial: [f64; N],
    pivot: [f64; N],
    /// The reflection's value, while an expansion or contraction is pending.
    f_r: f64,
    evals: usize,
    converged: bool,
    step: Step,
}

impl<const N: usize, const V: usize> NelderMead<N, V> {
    /// A finished run with an empty simplex, to be
    /// [`restart`](Self::restart)ed.
    const IDLE: Self = {
        assert!(N > 0 && V == N + 1, "NelderMead<N, V> needs N ≥ 1 and V = N + 1");
        NelderMead {
            opts: NelderMeadOptions { max_evals: 0, f_tol: 0.0, x_tol: 0.0, initial_step: 0.0 },
            x: [[0.0; N]; V],
            f: [0.0; V],
            centroid: [0.0; N],
            reflect: [0.0; N],
            trial: [0.0; N],
            pivot: [0.0; N],
            f_r: 0.0,
            evals: 0,
            converged: false,
            step: Step::Done,
        }
    };

    /// A run from `x0`.
    pub fn new(x0: &[f64; N], opts: &NelderMeadOptions) -> Self {
        let mut nm = Self::IDLE;
        nm.restart(x0, opts);
        nm
    }

    /// Start a new run from `x0`.
    pub fn restart(&mut self, x0: &[f64; N], opts: &NelderMeadOptions) {
        self.opts = *opts;
        // Initial simplex: x0 plus a bump along each axis.
        self.x = [*x0; V];
        for (axis, x) in self.x[1..].iter_mut().enumerate() {
            let step = if crate::is_exact_zero(x[axis]) {
                opts.initial_step
            } else {
                opts.initial_step * x[axis].abs()
            };
            x[axis] += step;
        }
        self.evals = 0;
        self.converged = false;
        self.step = Step::Init(0);
    }

    /// The point whose objective value the run needs next, or `None` once
    /// it has finished.
    pub fn ask(&self) -> Option<&[f64; N]> {
        match self.step {
            Step::Init(i) | Step::Shrink(i) => Some(&self.x[i]),
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
        match self.step {
            Step::Init(i) | Step::Shrink(i) => {
                self.f[i] = v;
                if i < N {
                    self.step = if matches!(self.step, Step::Init(_)) {
                        Step::Init(i + 1)
                    } else {
                        Step::Shrink(i + 1)
                    };
                } else {
                    // A new or shrunk simplex: a whole stable insertion sort.
                    for k in 1..V {
                        self.insert(k);
                    }
                    self.iterate();
                }
            }
            Step::Reflect => {
                self.f_r = v;
                if v < self.f[0] {
                    // Try expanding further along the reflection direction.
                    for i in 0..N {
                        self.trial[i] = self.centroid[i] + 2.0 * (self.centroid[i] - self.pivot[i]);
                    }
                    self.step = Step::Expand;
                } else if v < self.f[N - 1] {
                    self.replace_worst(false, v);
                } else {
                    // Contract toward the centroid, outside or inside.
                    let toward = if v < self.f[N] { &self.reflect } else { &self.pivot };
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
                if v < self.f[N].min(self.f_r) {
                    self.replace_worst(true, v);
                } else {
                    // Shrink everything toward the best vertex.
                    self.pivot = self.x[0];
                    for vertex in &mut self.x[1..] {
                        for (s, &b) in vertex.iter_mut().zip(&self.pivot) {
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
        self.x[N] = if trial { self.trial } else { self.reflect };
        self.f[N] = f;
        self.insert(N);
        self.iterate();
    }

    /// Move vertex `k` left past every vertex before it whose value is
    /// strictly greater under `total_cmp`; with vertices `..k` sorted, this
    /// leaves `..=k` as a stable sort would.
    fn insert(&mut self, k: usize) {
        let (x, f) = (self.x[k], self.f[k]);
        let mut j = k;
        while j > 0 && self.f[j - 1].total_cmp(&f).is_gt() {
            self.x[j] = self.x[j - 1];
            self.f[j] = self.f[j - 1];
            j -= 1;
        }
        self.x[j] = x;
        self.f[j] = f;
    }

    /// The top of an iteration, over a sorted simplex: stop on the budget
    /// or on convergence, else ask for the reflection of the worst vertex.
    fn iterate(&mut self) {
        if self.evals >= self.opts.max_evals {
            self.step = Step::Done;
            return;
        }
        let spread = (self.f[N] - self.f[0]).abs();
        // Both criteria must hold: a symmetric simplex (two vertices
        // straddling the optimum with equal values) has zero f-spread but
        // has not collapsed yet. The distance (a square root per vertex)
        // is computed only once the cheap tests already pass.
        if self.f[0].is_finite() && spread < self.opts.f_tol && self.max_dist() < self.opts.x_tol {
            self.converged = true;
            self.step = Step::Done;
            return;
        }
        // Centroid of all but the worst vertex.
        self.centroid = [0.0; N];
        for x in &self.x[..N] {
            for (c, &v) in self.centroid.iter_mut().zip(x) {
                *c += v;
            }
        }
        for c in &mut self.centroid {
            *c /= N as f64;
        }
        self.pivot = self.x[N];
        for i in 0..N {
            self.reflect[i] = self.centroid[i] + 1.0 * (self.centroid[i] - self.pivot[i]);
        }
        self.step = Step::Reflect;
    }

    /// The largest distance from the best vertex to any other.
    fn max_dist(&self) -> f64 {
        let best = &self.x[0];
        self.x[1..]
            .iter()
            .map(|x| x.iter().zip(best).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt())
            .fold(0.0_f64, f64::max)
    }

    /// Whether the run has finished.
    pub fn is_done(&self) -> bool {
        self.step == Step::Done
    }

    /// Write the finished run's result into `out`, reusing `out.x`.
    ///
    /// # Panics
    /// Panics if the run has not finished.
    fn write_result(&self, out: &mut OptResult) {
        assert!(self.is_done(), "NelderMead::result: the run has not finished");
        out.x.clear();
        out.x.extend_from_slice(&self.x[0]);
        out.fx = self.f[0];
        out.evals = self.evals;
        out.converged = self.converged;
    }

    /// The finished run's result.
    ///
    /// # Panics
    /// Panics if the run has not finished.
    pub fn result(&self) -> OptResult {
        let mut out = OptResult::default();
        self.write_result(&mut out);
        out
    }
}

/// `x` as a point of `N` coordinates.
///
/// # Panics
/// Panics if `x` has another length.
fn point<const N: usize>(x: &[f64]) -> &[f64; N] {
    match x.try_into() {
        Ok(p) => p,
        Err(_) => panic!("nelder_mead: a start of {} coordinates among starts of {N}", x.len()),
    }
}

/// Minimise `f` starting from `x0` with the Nelder–Mead simplex method.
///
/// Objective values that are NaN are treated as `+inf` (see [`NelderMead`]).
///
/// # Panics
/// Panics if `x0` is empty or longer than [`MAX_DIM`].
pub fn nelder_mead(
    f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> OptResult {
    with_dim!(x0.len(), |N, V| nelder_mead_in::<N, V>(f, point(x0), opts))
}

/// [`nelder_mead`] at a compile-time dimension.
fn nelder_mead_in<const N: usize, const V: usize>(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64; N],
    opts: &NelderMeadOptions,
) -> OptResult {
    let mut nm = NelderMead::<N, V>::new(x0, opts);
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

/// A scalar objective as a [`LaneObjective`], called on one point at a
/// time.
struct PointWise<F>(F);

impl<F: Fn(&[f64]) -> f64> LaneObjective for PointWise<F> {
    type Scratch = ();

    fn eval_lanes(&self, _: &mut (), xs: &[&[f64]], out: &mut [f64]) {
        for (o, x) in out.iter_mut().zip(xs) {
            *o = (self.0)(x);
        }
    }
}

/// One group of up to [`LANES`] starts run in lockstep, with its scratch.
///
/// A run's steppers live on the stack; the group keeps each start's
/// result in buffers of its own, so a warm group allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LaneGroup<S> {
    /// The group's objective scratch.
    pub scratch: S,
    results: [OptResult; LANES],
    used: usize,
}

impl<S> LaneGroup<S> {
    /// An idle group around `scratch`.
    pub fn new(scratch: S) -> Self {
        LaneGroup { scratch, results: Default::default(), used: 0 }
    }

    /// Minimise `objective` from each of `starts` (at most [`LANES`], all
    /// of one length) in lockstep. Each start's trajectory is the one
    /// [`nelder_mead`] would take from it alone.
    ///
    /// # Panics
    /// Panics on more than [`LANES`] starts, on starts of unequal length,
    /// or on an empty start point or one longer than [`MAX_DIM`].
    pub fn run<O>(&mut self, objective: &O, starts: &[Vec<f64>], opts: &NelderMeadOptions)
    where
        O: LaneObjective<Scratch = S> + ?Sized,
    {
        assert!(starts.len() <= LANES, "LaneGroup::run: {} starts", starts.len());
        self.used = 0;
        let Some(first) = starts.first() else { return };
        with_dim!(first.len(), |N, V| self.run_in::<N, V, O>(objective, starts, opts));
        self.used = starts.len();
    }

    /// [`run`](Self::run) at a compile-time dimension.
    fn run_in<const N: usize, const V: usize, O>(
        &mut self,
        objective: &O,
        starts: &[Vec<f64>],
        opts: &NelderMeadOptions,
    ) where
        O: LaneObjective<Scratch = S> + ?Sized,
    {
        let mut steppers = [NelderMead::<N, V>::IDLE; LANES];
        let steppers = &mut steppers[..starts.len()];
        for (nm, x0) in steppers.iter_mut().zip(starts) {
            nm.restart(point(x0), opts);
        }
        let (mut points, mut lane_of, mut out) = ([[0.0; N]; LANES], [0usize; LANES], [0.0; LANES]);
        loop {
            let mut m = 0;
            for (i, nm) in steppers.iter_mut().enumerate() {
                while let Some(x) = nm.ask() {
                    match objective.answer_eagerly(&mut self.scratch, x) {
                        Some(v) => nm.tell(v),
                        None => {
                            points[m] = *x;
                            lane_of[m] = i;
                            m += 1;
                            break;
                        }
                    }
                }
            }
            if m == 0 {
                break;
            }
            let xs: [&[f64]; LANES] = std::array::from_fn(|k| &points[k][..]);
            objective.eval_lanes(&mut self.scratch, &xs[..m], &mut out[..m]);
            for (&i, &v) in lane_of[..m].iter().zip(&out) {
                steppers[i].tell(v);
            }
        }
        for (nm, r) in steppers.iter().zip(&mut self.results) {
            nm.write_result(r);
        }
    }

    /// The results of the last [`run`](Self::run), in start order.
    pub fn results(&self) -> &[OptResult] {
        &self.results[..self.used]
    }
}

/// A group's lock, recovered if a panic poisoned it: every
/// [`LaneGroup::run`] starts its steppers afresh and rewrites its results.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The first `(item, value)` pair of least value under `total_cmp`, from
/// `first` and then `rest`.
fn first_least<T>(first: (T, f64), rest: impl Iterator<Item = (T, f64)>) -> (T, f64) {
    rest.fold(first, |best, next| if next.1.total_cmp(&best.1).is_lt() { next } else { best })
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
    // Every group runs a non-empty chunk of starts, so `[0]` exists below.
    let bests: Vec<(usize, f64)> = work
        .par_iter()
        .map(|&(group, chunk)| {
            let mut group = lock(group);
            group.run(objective, chunk, opts);
            let fx = group.results().iter().map(|r| r.fx);
            first_least((0, group.results()[0].fx), fx.enumerate().skip(1))
        })
        .collect();
    let rest = bests.iter().enumerate().skip(1).map(|(g, &(i, fx))| ((g, i), fx));
    let ((g, i), _) = first_least(((0, bests[0].0), bests[0].1), rest);
    lock(&groups[g]).results()[i].clone()
}

/// Minimise `f` from `n_starts` Latin-hypercube starting points within
/// `ranges` and return the best (the first in start order among equal
/// values).
///
/// The starts run in lockstep groups of [`LANES`] through
/// [`lockstep_nelder_mead`], each group calling `f` on one point at a
/// time, so the result is deterministic for a fixed `seed` at any thread
/// count.
///
/// # Panics
/// Panics with no starts, or on ranges that are empty or longer than
/// [`MAX_DIM`].
pub fn multi_start_nelder_mead(
    f: impl Fn(&[f64]) -> f64 + Sync,
    ranges: &[SampleRange],
    n_starts: usize,
    seed: u64,
    opts: &NelderMeadOptions,
) -> OptResult {
    let starts = multi_starts(ranges, n_starts, seed);
    let groups: Vec<_> =
        (0..starts.len().div_ceil(LANES)).map(|_| Mutex::new(LaneGroup::new(()))).collect();
    lockstep_nelder_mead(&PointWise(f), &groups, &starts, opts)
}

/// The start list of a multi-start: `n_starts` Latin-hypercube points in
/// `ranges` drawn from `seed`.
///
/// # Panics
/// Panics when `n_starts` is 0.
pub fn multi_starts(ranges: &[SampleRange], n_starts: usize, seed: u64) -> Vec<Vec<f64>> {
    assert!(n_starts > 0, "multi-start: need at least one start");
    latin_hypercube(ranges, n_starts, &mut SmallRng::seed_from_u64(seed))
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
