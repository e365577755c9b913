//! The reference Nelder–Mead the fixed-size stepper is held to: one run
//! over heap vectors of the start's length, with a stable sort of the
//! whole simplex at the top of every iteration.
//!
//! It performs the same per-element operations in the same order as
//! [`super::NelderMead`]; only the bookkeeping differs. It also counts the
//! events the bit-exactness suite must cover: shrinks, and sorts that met
//! equal values.

use super::{NelderMeadOptions, OptResult};

/// Which point a run is waiting on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Step {
    Init(usize),
    Reflect,
    Expand,
    Contract,
    Shrink(usize),
    #[default]
    Done,
}

/// One Nelder–Mead run as an ask/tell stepper over `Vec`s.
#[derive(Debug, Clone, Default)]
pub struct VecNelderMead {
    opts: NelderMeadOptions,
    simplex: Vec<(Vec<f64>, f64)>,
    centroid: Vec<f64>,
    reflect: Vec<f64>,
    trial: Vec<f64>,
    pivot: Vec<f64>,
    f_r: f64,
    evals: usize,
    converged: bool,
    step: Step,
    /// Shrinks taken since the last restart.
    pub shrinks: usize,
    /// Sorts since the last restart that met two vertices of equal value.
    pub tied_sorts: usize,
}

impl VecNelderMead {
    /// A run from `x0`.
    pub fn new(x0: &[f64], opts: &NelderMeadOptions) -> Self {
        let mut nm = VecNelderMead::default();
        nm.restart(x0, opts);
        nm
    }

    /// Start a new run from `x0`, reusing the buffers.
    pub fn restart(&mut self, x0: &[f64], opts: &NelderMeadOptions) {
        let n = x0.len();
        assert!(n > 0, "nelder_mead: empty start point");
        self.opts = *opts;
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
        self.shrinks = 0;
        self.tied_sorts = 0;
    }

    /// The point the run needs next, or `None` once it has finished.
    pub fn ask(&self) -> Option<&[f64]> {
        match self.step {
            Step::Init(i) | Step::Shrink(i) => Some(&self.simplex[i].0),
            Step::Reflect => Some(&self.reflect),
            Step::Expand | Step::Contract => Some(&self.trial),
            Step::Done => None,
        }
    }

    /// Answer the last [`ask`](Self::ask).
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
                    for i in 0..n {
                        self.trial[i] = self.centroid[i] + 2.0 * (self.centroid[i] - self.pivot[i]);
                    }
                    self.step = Step::Expand;
                } else if v < self.simplex[n - 1].1 {
                    self.replace_worst(false, v);
                } else {
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
                    self.shrinks += 1;
                    self.pivot.copy_from_slice(&self.simplex[0].0);
                    for vertex in self.simplex.iter_mut().skip(1) {
                        for (s, &b) in vertex.0.iter_mut().zip(&self.pivot) {
                            *s = b + 0.5 * (*s - b);
                        }
                    }
                    self.step = Step::Shrink(1);
                }
            }
            Step::Done => panic!("VecNelderMead::tell: the run has finished"),
        }
    }

    fn replace_worst(&mut self, trial: bool, f: f64) {
        let worst = self.simplex.last_mut().expect("a simplex has n + 1 ≥ 2 vertices");
        worst.0.copy_from_slice(if trial { &self.trial } else { &self.reflect });
        worst.1 = f;
        self.iterate();
    }

    fn sort(&mut self) {
        self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        if self.simplex.windows(2).any(|w| w[0].1.total_cmp(&w[1].1).is_eq()) {
            self.tied_sorts += 1;
        }
    }

    fn iterate(&mut self) {
        if self.evals >= self.opts.max_evals {
            self.finish();
            return;
        }
        let n = self.simplex.len() - 1;
        self.sort();
        let (best_f, worst_f) = (self.simplex[0].1, self.simplex[n].1);
        let spread = (worst_f - best_f).abs();
        if best_f.is_finite() && spread < self.opts.f_tol && self.max_dist() < self.opts.x_tol {
            self.converged = true;
            self.finish();
            return;
        }
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

    fn max_dist(&self) -> f64 {
        let best = &self.simplex[0].0;
        self.simplex[1..]
            .iter()
            .map(|(x, _)| x.iter().zip(best).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt())
            .fold(0.0_f64, f64::max)
    }

    fn finish(&mut self) {
        self.sort();
        self.step = Step::Done;
    }

    /// The finished run's result.
    pub fn result(&self) -> OptResult {
        assert!(self.step == Step::Done, "VecNelderMead::result: the run has not finished");
        let (x, fx) = &self.simplex[0];
        OptResult { x: x.clone(), fx: *fx, evals: self.evals, converged: self.converged }
    }
}

/// Minimise `f` from `x0` with the reference stepper; also returns it, for
/// its shrink and tie counts.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> (OptResult, VecNelderMead) {
    let mut nm = VecNelderMead::new(x0, opts);
    while let Some(x) = nm.ask() {
        let v = f(x);
        nm.tell(v);
    }
    (nm.result(), nm)
}
