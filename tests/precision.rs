//! Mixed-precision filter contract (ISSUE 7): the demoted filter must meet
//! the same tolerance as the full-precision solve, the escalation schedule
//! must be a pure function of world-replicated state (bitwise identical
//! across reruns and worker counts, identical as a *schedule* across grid
//! shapes), traces must replay byte-for-byte, and an injected f32 overflow
//! must climb the precision rung of the recovery ladder and still converge.

mod common;

use chase_comm::GridShape;
use chase_core::{ChaseErrorKind, Params, PrecisionMode, RecoveryEventKind, WarmStart};
use chase_linalg::{Matrix, SpectralBounds, C64};
use chase_matgen::{dense_with_spectrum, Spectrum};
use chase_trace::chrome_trace;
use common::{expect_all_ok, params_prec as params, problem_wide, solve_on, traced_solve_on};

fn problem(n: usize, seed: u64) -> (Matrix<C64>, Spectrum) {
    problem_wide::<C64>(n, seed)
}

#[test]
fn mixed_meets_full_tolerance_and_runs_demoted() {
    let (h, spec) = problem(80, 7);
    let full = solve_on(&h, &params(PrecisionMode::Full), GridShape::new(1, 1));
    let mixed = solve_on(&h, &params(PrecisionMode::Mixed), GridShape::new(1, 1));
    let full = full[0].as_ref().expect("full solve");
    let mixed = mixed[0].as_ref().expect("mixed solve");
    assert!(full.converged && mixed.converged);
    assert_eq!(full.lowprec_matvecs, 0, "full mode must never demote");
    assert!(
        mixed.lowprec_matvecs > 0,
        "mixed mode must run early filters demoted"
    );
    assert!(
        mixed.lowprec_matvecs < mixed.matvecs,
        "mixed mode must escalate before convergence at tol 1e-9"
    );
    // Same tolerance met: both land on the true spectrum to full accuracy.
    for k in 0..6 {
        assert!((full.eigenvalues[k] - spec.values()[k]).abs() < 1e-7);
        assert!(
            (mixed.eigenvalues[k] - spec.values()[k]).abs() < 1e-7,
            "lambda_{k}: mixed {} vs true {}",
            mixed.eigenvalues[k],
            spec.values()[k]
        );
    }
    for r in &mixed.residuals {
        assert!(*r < 1e-9 * mixed.norm_h);
    }
    // The escalation schedule is monotone: once an iteration runs full, no
    // later iteration goes back down.
    let flags: Vec<bool> = mixed.stats.iter().map(|s| s.low_precision).collect();
    assert!(flags[0], "iteration 1 must start demoted");
    let first_full = flags.iter().position(|f| !f).expect("must escalate");
    assert!(
        flags[first_full..].iter().all(|f| !f),
        "escalation must be sticky: {flags:?}"
    );
}

#[test]
fn natively_single_scalars_never_demote() {
    // f32/C32 have no lower precision to demote to; mixed mode must be a
    // silent no-op, not an error.
    let spec = Spectrum::uniform(64, -2.0, 2.0);
    let h = dense_with_spectrum::<f32>(&spec, 3);
    let mut p = params(PrecisionMode::Mixed);
    p.tol = 1e-4;
    let r = &solve_on(&h, &p, GridShape::new(1, 1))[0];
    let r = r.as_ref().expect("f32 mixed solve");
    assert!(r.converged);
    assert_eq!(r.lowprec_matvecs, 0);
    assert!(r.stats.iter().all(|s| !s.low_precision));
}

#[test]
fn mixed_solve_is_bitwise_reproducible() {
    let (h, _) = problem(64, 11);
    let p = params(PrecisionMode::Mixed);
    for shape in [GridShape::new(1, 1), GridShape::new(2, 2)] {
        let a = solve_on(&h, &p, shape);
        let b = solve_on(&h, &p, shape);
        for (rank, (ra, rb)) in a.iter().zip(&b).enumerate() {
            let (x, y) = (ra.as_ref().unwrap(), rb.as_ref().unwrap());
            assert_eq!(x.eigenvalues, y.eigenvalues, "{shape:?} rank {rank}");
            assert_eq!(x.residuals, y.residuals, "{shape:?} rank {rank}");
            assert_eq!(
                x.eigenvectors_local.as_slice(),
                y.eigenvectors_local.as_slice(),
                "{shape:?} rank {rank}"
            );
            assert_eq!(
                x.lowprec_matvecs, y.lowprec_matvecs,
                "{shape:?} rank {rank}"
            );
            assert_eq!(x.recovery, y.recovery, "{shape:?} rank {rank}");
        }
    }
}

#[test]
fn escalation_schedule_is_grid_shape_invariant() {
    // Floating-point sums differ across grid shapes (different reduction
    // orders), and once the demoted filter reaches its noise plateau the
    // residuals across shapes differ at f32 scale — so the exact escalation
    // iteration wanders a little between shapes. What IS guaranteed: every
    // shape starts demoted, escalates within a few iterations of the serial
    // reference (a shape that never demoted or never escalated would be a
    // policy bug), stays escalated, meets the same tolerance — and within
    // one shape every rank returns bitwise-identical counters (true SPMD
    // agreement — a single diverging rank would deadlock or corrupt).
    let (h, _) = problem(72, 5);
    let p = params(PrecisionMode::Mixed);
    let reference = solve_on(&h, &p, GridShape::new(1, 1));
    let reference = reference[0].as_ref().expect("serial mixed solve");
    assert!(reference.converged && reference.lowprec_matvecs > 0);
    let ref_flags: Vec<bool> = reference.stats.iter().map(|s| s.low_precision).collect();
    let ref_escalation = ref_flags.iter().position(|f| !f).expect("must escalate");
    for shape in [
        GridShape::new(2, 2),
        GridShape::new(2, 3),
        GridShape::new(1, 4),
        GridShape::new(3, 3),
    ] {
        let results = solve_on(&h, &p, shape);
        let r0 = results[0].as_ref().expect("mixed solve");
        for r in &results {
            let r = r.as_ref().expect("mixed solve");
            assert!(r.converged, "{shape:?}");
            // All ranks of one run agree bitwise on every decision counter.
            assert_eq!(r.iterations, r0.iterations, "{shape:?} rank divergence");
            assert_eq!(r.matvecs, r0.matvecs, "{shape:?} rank divergence");
            assert_eq!(
                r.lowprec_matvecs, r0.lowprec_matvecs,
                "{shape:?} rank divergence"
            );
            let flags: Vec<bool> = r.stats.iter().map(|s| s.low_precision).collect();
            let escalation = flags.iter().position(|f| !f).expect("must escalate");
            assert!(flags[0], "{shape:?} iteration 1 must start demoted");
            assert!(
                escalation.abs_diff(ref_escalation) <= 3,
                "{shape:?} escalation at {escalation}, serial at {ref_escalation}"
            );
            assert!(
                flags[..escalation].iter().all(|f| *f),
                "{shape:?} demoted prefix"
            );
            assert!(
                flags[escalation..].iter().all(|f| !f),
                "{shape:?} escalation must be sticky"
            );
            for k in 0..6 {
                assert!(
                    (r.eigenvalues[k] - reference.eigenvalues[k]).abs() < 1e-9,
                    "{shape:?} lambda_{k}"
                );
            }
        }
    }
}

#[test]
fn mixed_trace_replays_bitwise() {
    let (h, _) = problem(56, 13);
    let p = params(PrecisionMode::Mixed);
    let traced = |h: &Matrix<C64>, p: &Params| {
        let (results, trace) = traced_solve_on(h, p, GridShape::new(2, 2));
        (expect_all_ok(results, "traced mixed solve"), trace)
    };
    let (ra, ta) = traced(&h, &p);
    let (rb, tb) = traced(&h, &p);
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.eigenvalues, y.eigenvalues);
        assert_eq!(x.lowprec_matvecs, y.lowprec_matvecs);
    }
    assert_eq!(
        chrome_trace(&ta),
        chrome_trace(&tb),
        "mixed-precision trace must replay byte-for-byte"
    );
    // The trace carries the precision story: a filter_lo span per demoted
    // filter call and the lowprec_matvecs counter.
    let json = chrome_trace(&ta);
    assert!(json.contains("filter_lo"), "filter_lo spans missing");
    assert!(
        json.contains("lowprec_matvecs"),
        "lowprec_matvecs counter missing"
    );
}

#[test]
fn injected_f32_overflow_escalates_and_converges() {
    let (h, spec) = problem(64, 17);
    let mut p = params(PrecisionMode::Mixed);
    // 1e39 planted in a filter allreduce payload: finite in f64 (the full
    // path would absorb it), +inf the moment the demoted filter posts it.
    p.inject = Some(
        "seed=23;overflow@iter=1,region=filter,rank=0"
            .parse()
            .unwrap(),
    );
    for r in &solve_on(&h, &p, GridShape::new(2, 2)) {
        let r = r.as_ref().expect("overflow campaign must be recoverable");
        assert!(r.converged, "recovery: {:?}", r.recovery);
        assert!(
            r.recovery.events.iter().any(
                |e| matches!(e.kind, RecoveryEventKind::PrecisionEscalated { cols } if cols > 0)
            ),
            "precision rung must fire: {:?}",
            r.recovery
        );
        assert!(r.lowprec_matvecs > 0, "pre-fault filters ran demoted");
        for k in 0..6 {
            assert!((r.eigenvalues[k] - spec.values()[k]).abs() < 1e-7);
        }
    }
}

#[test]
fn degenerate_warm_bounds_surface_as_typed_bad_spectrum() {
    let (h, _) = problem(48, 19);
    let p = params(PrecisionMode::Full);
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
    let err =
        chase_core::solve_serial(&h, &p, Some(&warm)).expect_err("degenerate interval must fail");
    assert!(
        matches!(err.kind, ChaseErrorKind::BadSpectrum { .. }),
        "got {:?}",
        err.kind
    );
}

#[test]
fn malformed_params_surface_as_typed_invalid_params() {
    let (h, _) = problem(32, 21);
    let mut p = params(PrecisionMode::Mixed);
    p.tol = f64::NAN;
    let err = chase_core::solve_serial(&h, &p, None).expect_err("NaN tol must fail");
    assert!(
        matches!(err.kind, ChaseErrorKind::InvalidParams { .. }),
        "got {:?}",
        err.kind
    );
}
