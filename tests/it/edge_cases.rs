//! Edge cases of the solver loop: minimal search spaces, non-convergence
//! reporting, maximal subspaces, degenerate spectra, and more ranks than the
//! problem comfortably fits.

use chase_core::{solve_serial, ChaseErrorKind, Params, RecoveryEventKind, WarmStart, MAX_DEG};
use chase_linalg::{Matrix, SpectralBounds, C64};
use chase_matgen::{dense_with_spectrum, Spectrum};

use crate::common;

#[test]
fn minimal_search_space() {
    // nev = 1, nex = 1: the smallest legal configuration.
    let spec = Spectrum::uniform(40, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 1);
    let mut p = Params::new(1, 1);
    p.tol = 1e-9;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(r.converged);
    assert!((r.eigenvalues[0] - spec.min()).abs() < 1e-7);
}

#[test]
fn non_convergence_is_reported_not_panicked() {
    let spec = Spectrum::uniform(60, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 2);
    let mut p = Params::new(6, 4);
    p.tol = 1e-12;
    p.max_iter = 1; // impossible budget
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(!r.converged);
    assert_eq!(r.iterations, 1);
    // Best-effort eigenvalues are still returned (nev of them).
    assert_eq!(r.eigenvalues.len(), 6);
}

/// A Lanczos estimate of `mu_ne` inside the wanted cluster. On this clustered
/// spectrum (`nev` 7, eigenvalues in triples) the DoS estimate lands at
/// −0.79997, inside the triple around −0.8 whose lowest member λ₆ =
/// −0.80010 is the last wanted eigenvalue. Kept as the damped interval's
/// lower end, it leaves λ₆ and λ₇ within 1.3e-4 below that interval, where
/// the filter barely amplifies them: the solve stalls at 6 of 7 locked
/// until `max_iter`. The estimate is below the 7th smallest Ritz value of
/// iteration 1 (−0.39), so the bound update resets it to the largest one
/// instead (DESIGN.md §5).
#[test]
fn a_lanczos_mu_ne_inside_the_wanted_cluster_is_not_kept() {
    let (kind, n, seed) = (0, 60, 38);
    let h = dense_with_spectrum::<C64>(&common::hard_spectrum(kind, n, seed), seed);
    let mut p = Params::new(n / 8, n / 16);
    p.seed = seed;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(r.converged, "{} iterations", r.iterations);
    assert_eq!((r.iterations, r.matvecs), (4, 590));
}

/// An odd degree rounds up to even but never past [`MAX_DEG`]: with
/// `deg = 35` the first iteration runs at the cap, and with `deg = 33` a
/// re-filter's bump of a poisoned column lands on the cap too; the
/// optimised iterations stay at or below it as well.
#[test]
fn an_odd_degree_cap_is_never_exceeded() {
    let spec = Spectrum::uniform(60, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 4);
    for deg in [MAX_DEG - 1, MAX_DEG - 3] {
        let mut p = Params::new(6, 4);
        p.deg = deg;
        p.inject = Some("seed=3;nan-block@iter=1,cols=1".parse().unwrap());
        let r = solve_serial(&h, &p, None).expect("ChASE solve");
        assert!(r.converged);
        assert!(
            r.recovery.any(|k| matches!(
                k,
                RecoveryEventKind::Refiltered {
                    degree: MAX_DEG,
                    ..
                }
            )),
            "deg {deg}: no re-filter at the cap:\n{}",
            r.recovery
        );
        for s in &r.stats {
            let d = s.max_degree;
            assert!(d <= MAX_DEG, "deg {deg}, iter {}: degree {d}", s.iter);
        }
        assert_eq!(r.stats[0].max_degree, MAX_DEG);
    }
}

#[test]
fn repeated_eigenvalues() {
    // A 5-fold degenerate lowest eigenvalue: locking must harvest the whole
    // eigenspace without stalling.
    let mut vals = vec![-2.0; 5];
    vals.extend((0..45).map(|i| -1.0 + i as f64 * 0.05));
    let spec = Spectrum::from_values(vals);
    let h = dense_with_spectrum::<C64>(&spec, 3);
    let mut p = Params::new(6, 4);
    p.tol = 1e-8;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(
        r.converged,
        "degenerate problem stalled at iter {}",
        r.iterations
    );
    for k in 0..5 {
        assert!(
            (r.eigenvalues[k] + 2.0).abs() < 1e-6,
            "lambda_{k} = {}",
            r.eigenvalues[k]
        );
    }
}

#[test]
fn subspace_close_to_full_dimension() {
    // ne = n/2: far outside ChASE's target regime but must still work.
    let n = 30;
    let spec = Spectrum::uniform(n, 0.0, 3.0);
    let h = dense_with_spectrum::<C64>(&spec, 4);
    let mut p = Params::new(10, 5);
    p.tol = 1e-8;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(r.converged);
    for k in 0..10 {
        assert!((r.eigenvalues[k] - spec.values()[k]).abs() < 1e-6);
    }
}

#[test]
fn negative_definite_spectrum() {
    // All eigenvalues negative: bounds estimation must not assume a sign.
    let spec = Spectrum::uniform(50, -9.0, -1.0);
    let h = dense_with_spectrum::<C64>(&spec, 5);
    let mut p = Params::new(5, 4);
    p.tol = 1e-9;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(r.converged);
    assert!((r.eigenvalues[0] + 9.0).abs() < 1e-7);
}

#[test]
fn tiny_matrix_many_ranks() {
    // 3x3 grid on a 20-dimensional problem: some ranks own 2-row slivers.
    use chase_comm::{run_grid, GridShape};
    use chase_core::{solve_dist, DistHerm};
    use chase_device::Backend;
    let spec = Spectrum::uniform(20, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 6);
    let mut p = Params::new(3, 2);
    p.tol = 1e-8;
    let (href, pref) = (&h, &p);
    let out = run_grid(GridShape::new(3, 3), move |ctx| {
        solve_dist(
            ctx,
            Backend::Nccl,
            DistHerm::from_global(href, ctx),
            pref,
            None,
        )
        .expect("ChASE solve")
    });
    for r in &out.results {
        assert!(r.converged);
        assert!((r.eigenvalues[0] + 1.0).abs() < 1e-6);
    }
}

#[test]
#[should_panic(expected = "search space")]
fn oversized_subspace_rejected() {
    let spec = Spectrum::uniform(10, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 7);
    let p = Params::new(8, 8); // ne = 16 > n = 10
    solve_serial(&h, &p, None).expect("ChASE solve");
}

/// The standard `(6, 4, 1e-9)` block on a uniform `[-2, 2]` spectrum.
fn wide_problem(n: usize, seed: u64) -> (Matrix<C64>, Params) {
    let h = dense_with_spectrum::<C64>(&Spectrum::uniform(n, -2.0, 2.0), seed);
    let mut p = Params::new(6, 4);
    p.tol = 1e-9;
    (h, p)
}

#[test]
fn degenerate_warm_bounds_surface_as_typed_bad_spectrum() {
    let (h, p) = wide_problem(48, 19);
    let ne = p.ne();
    // mu_ne above b_sup (even after the warm-start margin inflation) makes
    // the filter half-width e = (b_sup - mu_ne)/2 negative: the filter must
    // reject it as a typed error, not panic mid-collective.
    let warm = WarmStart::<C64> {
        v0: Matrix::from_fn(48, ne, |i, j| {
            if i == j {
                C64::new(1.0, 0.0)
            } else {
                C64::new(0.0, 0.0)
            }
        }),
        bounds: Some(SpectralBounds {
            mu_1: -2.0,
            mu_ne: 3.0,
            b_sup: 2.0,
        }),
    };
    let err = solve_serial(&h, &p, Some(&warm)).expect_err("degenerate interval must fail");
    assert!(
        matches!(err.kind, ChaseErrorKind::BadSpectrum { .. }),
        "got {:?}",
        err.kind
    );
}

#[test]
fn malformed_params_surface_as_typed_invalid_params() {
    let (h, mut p) = wide_problem(32, 21);
    p.tol = f64::NAN;
    let err = solve_serial(&h, &p, None).expect_err("NaN tol must fail");
    assert!(
        matches!(err.kind, ChaseErrorKind::InvalidParams { .. }),
        "got {:?}",
        err.kind
    );
}
