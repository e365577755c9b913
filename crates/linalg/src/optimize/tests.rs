use super::*;
use rand::Rng;

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
    let opts = NelderMeadOptions { max_evals: 30, f_tol: 0.0, x_tol: 0.0, ..Default::default() };
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
fn concurrent_multi_starts_match_sequential_bit_for_bit() {
    // Four callers share the fan-out pool at once; each must get the
    // result of running its starts one after another on one thread.
    let f =
        |x: &[f64]| (x[0] - 0.3).powi(2) + (x[1] + 0.7).powi(2) + 0.1 * (5.0 * x[0] * x[1]).sin();
    let ranges = [SampleRange { lo: -2.0, hi: 2.0 }, SampleRange { lo: -2.0, hi: 2.0 }];
    let opts = NelderMeadOptions::default();
    // Nine starts: two full lane groups and a third with one start.
    let sequential = |seed: u64| {
        latin_hypercube(&ranges, 9, &mut SmallRng::seed_from_u64(seed))
            .iter()
            .map(|x0| nelder_mead(f, x0, &opts))
            .min_by(|a, b| a.fx.total_cmp(&b.fx))
            .expect("starts")
    };
    let pooled = |seed: u64| multi_start_nelder_mead(f, &ranges, 9, seed, &opts);
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
        x.iter().zip(&self.centre).map(|(v, c)| (v - c) * (v - c) + 0.05 * (7.0 * v).sin()).sum()
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
        // Every group size: one to three groups, the last one full or ragged.
        for n_starts in 1..=11usize {
            let starts = multi_starts(&ranges, n_starts, seed);
            let walled = |x: &[f64]| if obj.walled(x) { f64::INFINITY } else { obj.value(x) };
            // The sequential side is the reference stepper, one start at a time.
            let sequential: Vec<OptResult> =
                starts.iter().map(|x0| reference::nelder_mead(walled, x0, opts).0).collect();

            let groups: Vec<_> = (0..starts.len().div_ceil(LANES))
                .map(|_| Mutex::new(LaneGroup::new((0, 0, 0))))
                .collect();
            let best = lockstep_nelder_mead(&obj, &groups, &starts, opts);
            let mut got = Vec::new();
            let (mut points, mut walls) = (0, 0);
            for g in &groups {
                let g = lock(g);
                got.extend(g.results().iter().cloned());
                points += g.scratch.1;
                walls += g.scratch.2;
            }
            assert_eq!(got.len(), starts.len());
            for (i, (g, w)) in got.iter().zip(&sequential).enumerate() {
                assert_eq!(opt_bits(g), opt_bits(w), "seed {seed}, {n_starts} starts: start {i}");
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
            let pointwise = multi_start_nelder_mead(walled, &ranges, n_starts, seed, opts);
            assert_eq!(opt_bits(&pointwise), opt_bits(first_best));
        }
    }
    assert!(all_walls > 0 && converged > 0 && exhausted > 0, "{all_walls} {converged} {exhausted}");
}

#[test]
fn stepper_restart_repeats_the_run() {
    let f = |x: &[f64]| (x[0] - 0.4).powi(2) + 3.0 * (x[1] + 0.1).powi(2);
    let opts = NelderMeadOptions::default();
    let mut nm = NelderMead::<2, 3>::new(&[2.0, 2.0], &opts);
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
        assert_eq!(opt_bits(&nm.result()), opt_bits(&reference::nelder_mead(f, &x0, &opts).0));
    }
    assert_eq!(opt_bits(&nm.result()), opt_bits(&first));
}

/// A seeded terrain in any dimension up to [`MAX_DIM`] with every kind of
/// value the simplex must handle: a NaN half-space, a `+∞` band, a soft
/// wall (answered eagerly by the lane objective), and, when terraced, flat
/// steps whose equal values force shrinks and exercise the stable order.
#[derive(Clone, Copy)]
struct Terrain {
    dim: usize,
    centre: [f64; MAX_DIM],
    nan_above: f64,
    band: f64,
    wall: f64,
    /// Step height of the terraces; 0 for a smooth terrain.
    terrace: f64,
}

/// What a terrain's value was: the events the suite must cover.
#[derive(Debug, Default)]
struct Seen {
    nan: usize,
    band: usize,
    walls: usize,
}

impl Terrain {
    fn new(dim: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(1000 * seed + dim as u64);
        Terrain {
            dim,
            centre: std::array::from_fn(|_| rng.gen_range(-1.5..1.5)),
            nan_above: rng.gen_range(1.8..2.6),
            band: rng.gen_range(-1.0..1.0),
            wall: rng.gen_range(-2.6..-1.8),
            terrace: if seed % 2 == 1 { 0.25 } else { 0.0 },
        }
    }

    fn walled(&self, x: &[f64]) -> bool {
        x[self.dim - 1] < self.wall
    }

    /// The value off the wall.
    fn value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim);
        if x[0] > self.nan_above {
            return f64::NAN;
        }
        if (x[self.dim / 2] - self.band).abs() < 0.05 {
            return f64::INFINITY;
        }
        let v: f64 = x
            .iter()
            .zip(&self.centre)
            .enumerate()
            .map(|(i, (v, c))| (1.0 + 0.3 * i as f64) * (v - c) * (v - c) + 0.05 * (7.0 * v).sin())
            .sum();
        if self.terrace > 0.0 {
            (v / self.terrace).floor() * self.terrace
        } else {
            v
        }
    }

    /// The value a scalar run sees, wall included, counted in `seen`.
    fn seen_value(&self, x: &[f64], seen: &mut Seen) -> f64 {
        if self.walled(x) {
            seen.walls += 1;
            return f64::INFINITY;
        }
        let v = self.value(x);
        seen.nan += usize::from(v.is_nan());
        seen.band += usize::from(v == f64::INFINITY);
        v
    }
}

/// The terrain as a lane objective: the wall is answered eagerly; the
/// scratch counts the points evaluated in lanes.
impl LaneObjective for Terrain {
    type Scratch = usize;

    fn answer_eagerly(&self, _: &mut usize, x: &[f64]) -> Option<f64> {
        self.walled(x).then_some(f64::INFINITY)
    }

    fn eval_lanes(&self, points: &mut usize, xs: &[&[f64]], out: &mut [f64]) {
        *points += xs.len();
        for (o, x) in out.iter_mut().zip(xs) {
            assert!(!self.walled(x), "a wall took a lane");
            *o = self.value(x);
        }
    }
}

/// Runs a `NelderMead<N, V>` through a restart from each of `starts` and
/// holds each run to the reference.
fn restarts_match_the_reference<const N: usize, const V: usize>(
    terrain: &Terrain,
    starts: &[Vec<f64>],
    opts: &NelderMeadOptions,
) {
    let mut nm = NelderMead::<N, V>::new(point(&starts[0]), opts);
    for x0 in starts.iter().rev() {
        nm.restart(point(x0), opts);
        while let Some(x) = nm.ask() {
            nm.tell(terrain.seen_value(x, &mut Seen::default()));
        }
        let want =
            reference::nelder_mead(|x| terrain.seen_value(x, &mut Seen::default()), x0, opts);
        assert_eq!(opt_bits(&nm.result()), opt_bits(&want.0), "N = {N}: restart from {x0:?}");
    }
}

#[test]
fn fixed_stepper_matches_the_reference_bit_for_bit_at_every_dimension() {
    let budgets = [
        // Budget-bound: no tolerance can fire.
        NelderMeadOptions { max_evals: 90, f_tol: 0.0, x_tol: 0.0, ..Default::default() },
        // Converging, or bound only by a large budget.
        NelderMeadOptions { max_evals: 4000, ..Default::default() },
    ];
    let (mut seen, mut converged, mut exhausted) = (Seen::default(), 0, 0);
    for dim in 1..=MAX_DIM {
        let ranges = vec![SampleRange { lo: -3.0, hi: 3.0 }; dim];
        let (mut shrinks, mut tied_sorts) = (0, 0);
        for seed in 0..4u64 {
            let terrain = Terrain::new(dim, seed);
            // Five Latin-hypercube starts, then one exactly on the wall with
            // every other coordinate exactly zero (the absolute bump).
            let mut on_wall = vec![0.0; dim];
            on_wall[dim - 1] = terrain.wall;
            let mut starts = multi_starts(&ranges, 5, seed);
            starts.push(on_wall);
            for opts in &budgets {
                let reference: Vec<(OptResult, reference::VecNelderMead)> = starts
                    .iter()
                    .map(|x0| {
                        reference::nelder_mead(|x| terrain.seen_value(x, &mut seen), x0, opts)
                    })
                    .collect();
                for (i, (x0, (want, nm))) in starts.iter().zip(&reference).enumerate() {
                    let case =
                        format!("N = {dim}, seed {seed}, {} evals: start {i}", opts.max_evals);
                    let got =
                        nelder_mead(|x| terrain.seen_value(x, &mut Seen::default()), x0, opts);
                    assert_eq!(opt_bits(&got), opt_bits(want), "{case}");
                    shrinks += nm.shrinks;
                    tied_sorts += nm.tied_sorts;
                    converged += usize::from(want.converged);
                    exhausted += usize::from(!want.converged);
                }
                // The same starts in lockstep, walls answered eagerly.
                let groups: Vec<_> = (0..starts.len().div_ceil(LANES))
                    .map(|_| Mutex::new(LaneGroup::new(0)))
                    .collect();
                let best = lockstep_nelder_mead(&terrain, &groups, &starts, opts);
                let got: Vec<OptResult> =
                    groups.iter().flat_map(|g| lock(g).results().to_vec()).collect();
                assert_eq!(got.len(), starts.len());
                for (i, (g, (want, _))) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(opt_bits(g), opt_bits(want), "N = {dim}, seed {seed}: lane {i}");
                }
                let first_best = reference
                    .iter()
                    .map(|(r, _)| r)
                    .min_by(|a, b| a.fx.total_cmp(&b.fx))
                    .expect("starts");
                assert_eq!(opt_bits(&best), opt_bits(first_best));
            }
            with_dim!(dim, |N, V| restarts_match_the_reference::<N, V>(
                &terrain,
                &starts,
                &budgets[1]
            ));
        }
        assert!(shrinks > 0 && tied_sorts > 0, "N = {dim}: {shrinks} shrinks, {tied_sorts} ties");
    }
    assert!(seen.nan > 0 && seen.band > 0 && seen.walls > 0, "{seen:?}");
    assert!(converged > 0 && exhausted > 0, "{converged} converged, {exhausted} exhausted");
}

#[test]
fn equal_values_keep_the_older_vertex_first() {
    // A flat objective: every value ties, so every sort is decided by age
    // alone, and every contraction fails into a shrink.
    let flat = |_: &[f64]| 1.0;
    let opts = NelderMeadOptions { max_evals: 200, ..Default::default() };
    for x0 in [vec![0.3], vec![0.3, -2.0, 0.0], vec![1.0; MAX_DIM]] {
        let (want, nm) = reference::nelder_mead(flat, &x0, &opts);
        assert!(nm.shrinks > 0 && nm.tied_sorts > 0);
        assert_eq!(opt_bits(&nelder_mead(flat, &x0, &opts)), opt_bits(&want));
    }
    // `+∞` everywhere ties the same way, and -0.0 sorts before +0.0.
    let signed = |x: &[f64]| if x[0] > -0.5 { -0.0 } else { 0.0 };
    for f in [&(|_: &[f64]| f64::INFINITY) as &dyn Fn(&[f64]) -> f64, &signed] {
        // Starts at +0.0 whose first bump crosses x₀ = −0.5 to −0.0, and
        // one that stays at −0.0.
        for x0 in [vec![-0.52, 1.0], vec![-0.54, 0.0, 0.3], vec![0.0, 0.0, 0.0]] {
            let (want, _) = reference::nelder_mead(f, &x0, &opts);
            assert_eq!(opt_bits(&nelder_mead(f, &x0, &opts)), opt_bits(&want));
        }
    }
}

#[test]
#[should_panic(expected = "nelder_mead: 17 coordinates; at most MAX_DIM = 16 are supported")]
fn a_start_past_max_dim_is_rejected() {
    nelder_mead(|x| x.iter().sum(), &[0.5; MAX_DIM + 1], &NelderMeadOptions::default());
}

#[test]
#[should_panic(expected = "nelder_mead: 17 coordinates; at most MAX_DIM = 16 are supported")]
fn a_lane_group_rejects_a_start_past_max_dim() {
    let f = |x: &[f64]| x.iter().sum::<f64>();
    let mut group = LaneGroup::new(());
    group.run(&PointWise(f), &[vec![0.5; MAX_DIM + 1]], &NelderMeadOptions::default());
}

#[test]
#[should_panic(expected = "nelder_mead: a start of 2 coordinates among starts of 3")]
fn a_lane_group_rejects_starts_of_unequal_length() {
    let f = |x: &[f64]| x.iter().sum::<f64>();
    let mut group = LaneGroup::new(());
    let starts = [vec![0.5; 3], vec![0.5; 2]];
    group.run(&PointWise(f), &starts, &NelderMeadOptions::default());
}

#[test]
fn zero_start_coordinate_gets_absolute_step() {
    // Regression: a zero coordinate must still perturb the simplex.
    let f = |x: &[f64]| (x[0] - 0.05).powi(2);
    let r = nelder_mead(f, &[0.0], &NelderMeadOptions::default());
    assert!((r.x[0] - 0.05).abs() < 1e-5);
}
