//! Property-based tests (proptest) over the numerical invariants that the
//! paper's correctness rests on: QR orthonormality across the condition
//! spectrum, the Algorithm-5 upper-bound property, Cholesky and eigensolver
//! identities, and collective semantics.

use chase_comm::solo_ctx;
use chase_core::{cond_est, flexible_qr, growth_factor, optimal_degree, QrStrategy, RowDist};
use chase_device::{Backend, Device};
use chase_linalg::{
    gemm_new, gram, heevd, householder_qr, potrf_upper, random_orthonormal, singular_values,
    Matrix, Op, Scalar, C64,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;

/// Tall-skinny matrix with prescribed condition number.
fn conditioned(m: usize, n: usize, kappa: f64, seed: u64) -> Matrix<C64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let u = random_orthonormal::<C64, _>(m, n, &mut rng);
    let v = random_orthonormal::<C64, _>(n, n, &mut rng);
    let mut us = u.clone();
    for j in 0..n {
        let s = if n == 1 {
            1.0
        } else {
            kappa.powf(-(j as f64) / (n - 1) as f64)
        };
        chase_linalg::blas1::rscal(s, us.col_mut(j));
    }
    gemm_new(Op::None, Op::ConjTrans, &us, &v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The auto QR switchboard must deliver an orthonormal factor for any
    /// conditioning up to u^{-1} ~ 1e15 when fed an honest estimate.
    #[test]
    fn flexible_qr_always_orthonormal(
        log_kappa in 0.0f64..14.0,
        n in 2usize..9,
        seed in 0u64..1000,
    ) {
        let m = 8 * n;
        let kappa = 10f64.powf(log_kappa);
        let mut x = conditioned(m, n, kappa, seed);
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let dist = RowDist { n: m, parts: vec![(0..m).into()] };
        flexible_qr(&dev, &ctx.world, &mut x, &dist, kappa, QrStrategy::Auto);
        let err = gram(x.as_ref()).orthogonality_error();
        prop_assert!(err < 1e-9, "kappa 1e{log_kappa:.1}: orth err {err}");
    }

    /// Householder QR reconstructs its input.
    #[test]
    fn householder_reconstructs(m in 4usize..30, n in 1usize..8, seed in 0u64..500) {
        prop_assume!(m >= n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Matrix::<C64>::random(m, n, &mut rng);
        let (q, r) = householder_qr(&x);
        let back = gemm_new(Op::None, Op::None, &q, &r);
        prop_assert!(back.max_abs_diff(&x) < 1e-11 * (x.norm_fro() + 1.0));
    }

    /// POTRF factor reproduces the Gram matrix.
    #[test]
    fn cholesky_identity(m in 6usize..40, n in 1usize..8, seed in 0u64..500) {
        prop_assume!(m >= 2 * n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Matrix::<C64>::random(m, n, &mut rng);
        let g = gram(x.as_ref());
        let u = potrf_upper(&g).unwrap();
        let back = gemm_new(Op::ConjTrans, Op::None, &u, &u);
        prop_assert!(back.max_abs_diff(&g) < 1e-10 * (g.norm_fro() + 1.0));
    }

    /// heevd eigenpairs satisfy A v = lambda v and V is unitary.
    #[test]
    fn heevd_invariants(n in 2usize..14, seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Matrix::<C64>::random(n, n, &mut rng);
        let xh = x.adjoint();
        let a = Matrix::from_fn(n, n, |i, j| (x[(i, j)] + xh[(i, j)]).scale(0.5));
        let (vals, v) = heevd(&a).unwrap();
        // sorted
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let vhv = gemm_new(Op::ConjTrans, Op::None, &v, &v);
        prop_assert!(vhv.orthogonality_error() < 1e-10);
        let av = gemm_new(Op::None, Op::None, &a, &v);
        for j in 0..n {
            for i in 0..n {
                let r = (av[(i, j)] - v[(i, j)].scale(vals[j])).abs();
                prop_assert!(r < 1e-9 * (a.norm_fro() + 1.0));
            }
        }
    }

    /// Jacobi singular values of U diag(s) V^H recover s.
    #[test]
    fn jacobi_svd_exact(n in 2usize..7, log_smin in -8.0f64..0.0, seed in 0u64..500) {
        let m = 6 * n + 4;
        let kappa = 10f64.powf(-log_smin);
        let x = conditioned(m, n, kappa, seed);
        let sv = singular_values(&x);
        prop_assert!(sv.converged);
        prop_assert!((sv.values[0] - 1.0).abs() < 1e-8);
        let smin = sv.values[n - 1];
        let want = 1.0 / kappa;
        prop_assert!(
            (smin - want).abs() < 1e-6 * want.max(1e-10) + 1e-12,
            "sigma_min {smin} vs {want}"
        );
    }

    /// Growth factor is even in t, >= 1, and monotone outside [-1, 1].
    #[test]
    fn growth_factor_properties(t in -20.0f64..20.0) {
        let g = growth_factor(t);
        prop_assert!(g >= 1.0);
        prop_assert!((g - growth_factor(-t)).abs() < 1e-12 * g);
        if t.abs() > 1.0 {
            prop_assert!(growth_factor(t.abs() + 0.5) > g);
        }
    }

    /// Optimal degrees are even, bounded, and monotone in the residual.
    #[test]
    fn degree_optimization_properties(
        log_res in -9.0f64..0.0,
        t in 1.05f64..6.0,
        max_deg in 10usize..40,
    ) {
        let res = 10f64.powf(log_res);
        let d = optimal_degree(res, 1e-10, -t, max_deg);
        prop_assert_eq!(d % 2, 0);
        prop_assert!(d >= 2 && d <= max_deg);
        let d_easier = optimal_degree(res / 100.0, 1e-10, -t, max_deg);
        prop_assert!(d_easier <= d);
    }
}

/// The Fig. 1 property: the Algorithm-5 estimate bounds the exact condition
/// number of the filtered block from above (checked over full ChASE runs).
#[test]
fn cond_estimate_upper_bounds_truth_in_live_runs() {
    use chase_core::Params;
    for (seed, n) in [(1u64, 90usize), (2, 120)] {
        let spec = chase_matgen::Spectrum::uniform(n, -1.0, 1.0);
        let h = chase_matgen::dense_with_spectrum::<C64>(&spec, seed);
        let mut p = Params::new(8, 6);
        p.tol = 1e-9;
        p.track_true_cond = true;
        let r = chase_core::solve_serial(&h, &p, None).expect("ChASE solve");
        assert!(r.converged);
        // Skip iteration 1 (the paper documents the first-iteration caveat:
        // the derivation assumes kappa(input) = 1, not true for random
        // starts).
        for s in r.stats.iter().skip(1) {
            let truth = s.true_cond.expect("tracking enabled");
            assert!(
                s.est_cond >= truth * 0.99,
                "iter {}: est {:.3e} < true {:.3e}",
                s.iter,
                s.est_cond,
                truth
            );
        }
    }
}

/// Direct check of Algorithm 5 against SVD on synthetic filtered blocks:
/// filter a block through a diagonal operator and compare.
#[test]
fn cond_estimate_on_synthetic_filter() {
    // Eigenvalues: wanted at -3 (t = -3), active edge at -2 (t = -2),
    // interval [-1, 1]. Degrees uniform d: the filtered block's condition
    // is ~ rho(-3)^d / rho(-2)^d... bounded by rho(-3)^d (Algorithm 5 with
    // d = d_M reduces to rho(t_active)^d which must still upper-bound the
    // plain ratio when ritzv[locked] = most amplified active).
    let d = 6usize;
    let ritzv = vec![-3.0, -2.0];
    let degs = vec![d, d];
    let est = cond_est(&ritzv, 0.0, 1.0, &degs, 0);
    // True filtered condition for a 2-column block with those eigenvalues:
    let rho3 = growth_factor(-3.0);
    let rho2 = growth_factor(-2.0);
    let truth = (rho3 / rho2).powi(d as i32);
    assert!(est >= truth, "est {est:.3e} < truth {truth:.3e}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rank-crash siting mirrors the other fault kinds' one-shot contract:
    /// the spec round-trips through Display, the crash helpers partition
    /// the campaign exactly, and the plan fires only at the spec'd
    /// (iter, region, rank) site — at most once, marking the dead board
    /// before the typed unwind — while every other rank's plan stays inert.
    #[test]
    fn rank_crash_siting_is_deterministic_and_one_shot(
        seed in 0u64..1000,
        iter in 1u64..6,
        rank in 0usize..4,
        region_idx in 0usize..4,
        other_iter in 1u64..6,
    ) {
        use chase_comm::{DeadBoard, DeathHandle, Region, Slot};
        use chase_faults::{FaultPlan, FaultSpec, RankCrashPanic};
        use std::sync::Arc;

        let regions = [
            (Region::Filter, "filter"),
            (Region::Qr, "qr"),
            (Region::RayleighRitz, "rr"),
            (Region::Residuals, "resid"),
        ];
        let (region, rname) = regions[region_idx];
        let (wrong_region, _) = regions[(region_idx + 1) % regions.len()];
        let s = format!(
            "seed={seed};rank-crash@iter={iter},region={rname},rank={rank};\
             nan@iter={other_iter},rank=0"
        );
        let spec: FaultSpec = s.parse().unwrap();

        // Display/parse round-trip.
        let reparsed: FaultSpec = spec.to_string().parse().unwrap();
        prop_assert_eq!(&spec, &reparsed);

        // The crash helpers split the campaign exactly: one crash site with
        // the spec'd coordinates; stripping it keeps the nan fault; a
        // crash-only campaign strips to nothing.
        let sites = spec.crash_sites();
        prop_assert_eq!(sites.len(), 1);
        prop_assert_eq!((sites[0].iter, sites[0].rank), (iter, rank));
        let rest = spec.without_rank_crash().expect("the nan fault remains");
        prop_assert!(rest.crash_sites().is_empty());
        prop_assert_eq!(rest.injections.len(), spec.injections.len() - 1);
        let crash_only: FaultSpec =
            format!("seed={seed};rank-crash@iter={iter},region={rname},rank={rank}")
                .parse()
                .unwrap();
        prop_assert!(crash_only.without_rank_crash().is_none());

        // Firing: sweep every rank of a pretend 4-rank world through the
        // sited iteration. Wrong region holds the gate everywhere; at the
        // right site only the victim dies — typed payload, board marked
        // before the unwind, exactly one record, strictly one-shot.
        let board = Arc::new(DeadBoard::new());
        for r in 0..4usize {
            let p = Arc::new(FaultPlan::new(spec.clone(), r, 0));
            p.set_death_handle(Some(DeathHandle::new(
                board.clone(),
                r,
                vec![Slot::new(1)],
            )));
            p.set_iter(iter);
            p.set_region(wrong_region);
            p.check_crash();
            prop_assert!(!p.any_fired(), "region gate must hold");
            p.set_region(region);
            if r == rank {
                let v = p.clone();
                let payload = std::thread::spawn(move || v.check_crash())
                    .join()
                    .expect_err("the victim must unwind");
                let c = payload
                    .downcast_ref::<RankCrashPanic>()
                    .expect("typed RankCrashPanic payload");
                prop_assert_eq!(c.world_rank, rank);
                prop_assert!(board.is_dead(rank), "board marked before unwind");
                p.check_crash(); // one-shot: a second call is a no-op
                let rec = p.take_records();
                prop_assert_eq!(rec.len(), 1);
                prop_assert_eq!(rec[0].rank, rank);
                prop_assert_eq!(rec[0].iter, iter);
            } else {
                p.check_crash();
                prop_assert!(!p.any_fired(), "only the victim crashes");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The degree plan held to its prediction: the median wanted column
    /// reaches the residual `res / rho(t)^d` the plan expected within a
    /// factor 10^3 in iteration 3, and within 10 from iteration 4 on (the
    /// typical ratio is 2, the `1/2` of `T_d(t) ≈ rho(t)^d / 2` the model
    /// drops). Measured over 44 100 solves of these shapes (every kind and
    /// `n`, seeds 0..300), the worst medians were 372 and 4.4.
    ///
    /// Iteration 2 is planned from the Ritz pairs of random start vectors
    /// and is held to nothing: its worst median was 6.5e10. Iteration 3
    /// stays at 10^3, not 10^2: 22 of those solves reached 10^2–372. Both
    /// worst cases, and all 22, are solves whose Lanczos `mu_ne` lay at or
    /// below the `nev`-th smallest Ritz value of iteration 1, so that the
    /// bound update fell back to the largest one (DESIGN.md §5).
    #[test]
    fn degree_forecast_holds_after_the_first_plans(
        kind in 0usize..3,
        n in 48usize..97,
        seed in 0u64..1000,
    ) {
        let h = chase_matgen::dense_with_spectrum::<C64>(&common::hard_spectrum(kind, n, seed), seed);
        let mut p = chase_core::Params::new(n / 8, n / 16);
        p.seed = seed;
        let r = chase_core::solve_serial(&h, &p, None).expect("ChASE solve");
        prop_assert!(r.converged);
        for s in &r.stats {
            let Some(f) = s.forecast else { continue };
            let bound = match s.iter {
                ..=2 => f64::INFINITY,
                3 => 1e3,
                _ => 10.0,
            };
            prop_assert!(
                f.median_ratio < bound,
                "kind {} n {} seed {} iter {}: {:?}", kind, n, seed, s.iter, f
            );
        }
    }
}
