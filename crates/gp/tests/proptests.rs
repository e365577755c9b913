//! Property-based tests for GP regression invariants.

use mlcd_gp::fit::nlml_naive;
use mlcd_gp::{
    ArdKernel, DistanceWorkspace, FitOptions, GpModel, KernelFamily, Likelihood, NlmlScratch,
};
use proptest::prelude::*;

/// Strategy: n distinct 1-D inputs in [0, 10] with targets in [-5, 5].
fn dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (3usize..12).prop_flat_map(|n| {
        let xs = proptest::collection::vec(0.0f64..10.0, n);
        let ys = proptest::collection::vec(-5.0f64..5.0, n);
        (xs, ys).prop_map(|(mut xs, ys)| {
            // Spread near-duplicates apart so we exercise the clean SPD
            // path (closer than ~5 % of a lengthscale the kernel matrix is
            // near-singular and the escalating jitter deliberately trades
            // exact interpolation for stability; the duplicate path has
            // its own unit test).
            xs.sort_by(|a, b| a.total_cmp(b));
            for i in 1..xs.len() {
                if xs[i] - xs[i - 1] < 0.05 {
                    xs[i] = xs[i - 1] + 0.05;
                }
            }
            (xs.into_iter().map(|x| vec![x]).collect(), ys)
        })
    })
}

fn kernel_for(dim: usize) -> ArdKernel {
    ArdKernel::isotropic(KernelFamily::Matern52, 1.0, 1.0, dim)
}

proptest! {
    #[test]
    fn posterior_variance_nonnegative_and_bounded((xs, ys) in dataset(), q in 0.0f64..10.0) {
        let gp = GpModel::with_hyperparams(&xs, &ys, kernel_for(1), 0.1).unwrap();
        let p = gp.predict(&[q]);
        prop_assert!(p.var >= 0.0);
        prop_assert!(p.var_with_noise >= p.var);
        // Latent variance never exceeds the prior variance (in raw units).
        let n = ys.len() as f64;
        let m = ys.iter().sum::<f64>() / n;
        let sample_var = ys.iter().map(|y| (y - m).powi(2)).sum::<f64>() / n;
        let prior_raw = 1.0 * sample_var.max(1e-12).max(1.0); // signal_var * std², std floor 1
        prop_assert!(p.var <= prior_raw * (1.0 + 1e-9) + 1e-9,
            "var {} vs prior {}", p.var, prior_raw);
    }

    #[test]
    fn adding_observation_shrinks_variance_there((xs, ys) in dataset()) {
        let gp = GpModel::with_hyperparams(&xs, &ys, kernel_for(1), 0.05).unwrap();
        let probe = vec![20.0]; // far outside the data
        let before = gp.predict(&probe).var;
        // Add a target at the sample mean: `with_observation` refits the
        // output standardiser, so an *outlier* target would rescale the
        // raw-space variance and mask the shrinkage we are testing.
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let gp2 = gp.with_observation(probe.clone(), mean_y).unwrap();
        let after = gp2.predict(&probe).var;
        prop_assert!(after <= before + 1e-9, "before {before}, after {after}");
    }

    #[test]
    fn predictions_finite((xs, ys) in dataset(), q in -50.0f64..50.0) {
        let gp = GpModel::with_hyperparams(&xs, &ys, kernel_for(1), 0.1).unwrap();
        let p = gp.predict(&[q]);
        prop_assert!(p.mean.is_finite());
        prop_assert!(p.var.is_finite());
    }

    #[test]
    fn mean_interpolates_with_small_noise((xs, ys) in dataset()) {
        let gp = GpModel::with_hyperparams(&xs, &ys, kernel_for(1), 1e-8).unwrap();
        // Worst-case interpolation error at the training points stays small
        // relative to the target scale.
        let scale = ys.iter().fold(1.0f64, |m, y| m.max(y.abs()));
        for (x, &y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            prop_assert!((p.mean - y).abs() < 1e-2 * scale + 1e-3,
                "at {:?}: {} vs {}", x, p.mean, y);
        }
    }

    #[test]
    fn batch_prediction_matches_per_point(
        (xs, ys) in dataset(),
        qs in proptest::collection::vec(-10.0f64..20.0, 1..40),
    ) {
        // The blocked batch path must agree with the one-at-a-time path
        // everywhere — inside the data, at the training points, and far
        // outside — to 1e-9 (it is bit-identical by construction, but the
        // contract we promise callers is the tolerance).
        let gp = GpModel::with_hyperparams(&xs, &ys, kernel_for(1), 0.1).unwrap();
        let queries: Vec<Vec<f64>> = qs.into_iter().map(|q| vec![q]).collect();
        let batch = gp.predict_batch(&queries);
        prop_assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            let s = gp.predict(q);
            prop_assert!((b.mean - s.mean).abs() <= 1e-9,
                "mean at {:?}: {} vs {}", q, b.mean, s.mean);
            prop_assert!((b.var - s.var).abs() <= 1e-9,
                "var at {:?}: {} vs {}", q, b.var, s.var);
            prop_assert!((b.var_with_noise - s.var_with_noise).abs() <= 1e-9,
                "var_with_noise at {:?}: {} vs {}", q, b.var_with_noise, s.var_with_noise);
        }
    }

    #[test]
    fn lane_nlml_matches_naive(
        (n, dim) in (2usize..20, 1usize..6),
        seed_cells in proptest::collection::vec(0.0f64..1.0, 20 * 5),
        z_cells in proptest::collection::vec(-3.0f64..3.0, 20),
        (log_sf2, log_sn2) in ((0.1f64.ln())..(10.0f64.ln()), (1e-3f64.ln())..(1.0f64.ln())),
        log_ls in proptest::collection::vec((0.1f64.ln())..(10.0f64.ln()), 5),
        (family_ix, lane) in (0usize..3, 0usize..4),
    ) {
        // The lane path accumulates r² as (a−b)²·ℓ⁻² instead of
        // ((a−b)/ℓ)² and computes the quadratic form as ‖L⁻¹z‖², so it is
        // not bitwise-equal to the reference — but it must agree to 1e-12
        // relative for every kernel family on well-conditioned problems
        // (σ_n² ≥ 1e-3 keeps the kernel matrix condition number modest;
        // ill-conditioned fits are governed by the jitter policy, which
        // both paths share).
        let family = KernelFamily::ALL[family_ix];
        let xs: Vec<Vec<f64>> =
            (0..n).map(|i| seed_cells[i * 5..i * 5 + dim].to_vec()).collect();
        let z = &z_cells[..n];
        let mut theta = vec![log_sf2];
        theta.extend_from_slice(&log_ls[..dim]);
        theta.push(log_sn2);

        let opts = FitOptions::default();
        let want = nlml_naive(&theta, &xs, z, family, &opts);
        let dist = DistanceWorkspace::new(&xs);
        let likelihood = Likelihood::new(&dist, z, family, &opts);
        let mut scratch = NlmlScratch::new();
        let mut got = [0.0];
        likelihood.eval(&mut scratch, &[&theta], &mut got);
        let got = got[0];
        prop_assert!(want.is_finite(), "reference nlml not finite: {want}");
        prop_assert!(
            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
            "{family:?} n={n} dim={dim}: lanes {got} vs naive {want}"
        );
        // In any lane of a full batch, beside other θ, through the same
        // (now-warm) buffers: the same bits — lanes never mix.
        let other: Vec<f64> = theta.iter().map(|t| t * 0.5 - 0.2).collect();
        let mut batch: [&[f64]; 4] = [&other; 4];
        batch[lane] = &theta;
        let mut out = [0.0; 4];
        likelihood.eval(&mut scratch, &batch, &mut out);
        prop_assert_eq!(out[lane].to_bits(), got.to_bits());
    }

    #[test]
    fn kernel_matrix_psd_quadratic_form(
        pts in proptest::collection::vec(0.0f64..5.0, 2..10),
        ws in proptest::collection::vec(-1.0f64..1.0, 2..10),
    ) {
        // Σᵢⱼ wᵢ wⱼ k(xᵢ, xⱼ) ≥ 0 for any weights — PSD-ness of the kernel.
        let k = kernel_for(1);
        let n = pts.len().min(ws.len());
        let mut q = 0.0;
        for i in 0..n {
            for j in 0..n {
                q += ws[i] * ws[j] * k.eval(&[pts[i]], &[pts[j]]);
            }
        }
        prop_assert!(q >= -1e-9, "quadratic form {q}");
    }
}
