//! Cross-crate integration: the distributed solver (every grid shape and
//! backend) must agree with the serial solver and with the direct
//! eigensolver reference — the core correctness claim behind the paper's
//! "same convergence behaviour" statements (Section 4.3).

use chase_comm::{run_grid, GridShape};
use chase_core::{lms::solve_lms, solve_dist, solve_serial, ChaseResult, DistHerm, Params};
use chase_device::Backend;
use chase_linalg::{gemm_new, gram, Matrix, Op, Scalar, C64};
use chase_matgen::{dense_with_spectrum, Spectrum};

fn test_problem(n: usize) -> (Matrix<C64>, Spectrum) {
    let spec = Spectrum::uniform(n, -2.0, 2.0);
    let h = dense_with_spectrum::<C64>(&spec, 77);
    (h, spec)
}

fn params() -> Params {
    let mut p = Params::new(8, 6);
    p.tol = 1e-9;
    p
}

#[test]
fn serial_matches_direct_reference() {
    let (h, _) = test_problem(80);
    let p = params();
    let chase = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(chase.converged);
    let direct = chase_direct::eigh_one_stage(&h);
    for k in 0..p.nev {
        assert!(
            (chase.eigenvalues[k] - direct.eigenvalues[k]).abs() < 1e-7,
            "lambda_{k}: chase {} vs direct {}",
            chase.eigenvalues[k],
            direct.eigenvalues[k]
        );
    }
}

#[test]
fn all_grids_and_backends_agree_with_serial() {
    let (h, _) = test_problem(72);
    let p = params();
    let reference = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(reference.converged);

    for shape in [
        GridShape::new(2, 2),
        GridShape::new(2, 3),
        GridShape::new(3, 3),
        GridShape::new(1, 4),
        GridShape::new(4, 1),
    ] {
        for backend in [Backend::Std, Backend::Nccl] {
            let (h, p, reference) = (&h, &p, &reference);
            let out = run_grid(shape, move |ctx| {
                let dh = DistHerm::from_global(h, ctx);
                solve_dist(ctx, backend, dh, p, None).expect("ChASE solve")
            });
            for r in &out.results {
                assert!(r.converged, "{shape:?} {backend:?} did not converge");
                assert_eq!(r.iterations, reference.iterations, "{shape:?} {backend:?}");
                assert_eq!(r.matvecs, reference.matvecs, "{shape:?} {backend:?}");
                for k in 0..p.nev {
                    assert!(
                        (r.eigenvalues[k] - reference.eigenvalues[k]).abs() < 1e-9,
                        "{shape:?} {backend:?} lambda_{k}"
                    );
                }
            }
            // Assembled eigenvectors orthonormal and satisfy the residual.
            let full = ChaseResult::assemble_eigenvectors(&out.results);
            let g = gram(full.as_ref());
            assert!(
                g.orthogonality_error() < 1e-8,
                "{shape:?} {backend:?}: eigenvectors not orthonormal"
            );
            let hv = gemm_new(Op::None, Op::None, h, &full);
            for j in 0..p.nev {
                let mut rmax: f64 = 0.0;
                for i in 0..h.rows() {
                    rmax =
                        rmax.max((hv[(i, j)] - full[(i, j)].scale(reference.eigenvalues[j])).abs());
                }
                assert!(
                    rmax < 1e-7,
                    "{shape:?} {backend:?} residual col {j}: {rmax}"
                );
            }
        }
    }
}

#[test]
fn lms_layout_agrees_with_new_scheme() {
    let (h, _) = test_problem(64);
    let p = params();
    let reference = solve_serial(&h, &p, None).expect("ChASE solve");
    let (href, pref) = (&h, &p);
    let out = run_grid(GridShape::new(2, 2), move |ctx| {
        let dh = DistHerm::from_global(href, ctx);
        solve_lms(ctx, dh, pref, None).expect("LMS solve")
    });
    for r in &out.results {
        assert!(r.converged, "LMS did not converge");
        for k in 0..p.nev {
            assert!(
                (r.eigenvalues[k] - reference.eigenvalues[k]).abs() < 1e-8,
                "LMS lambda_{k}: {} vs {}",
                r.eigenvalues[k],
                reference.eigenvalues[k]
            );
        }
    }
}

#[test]
fn backends_differ_only_in_ledger_not_results() {
    let (h, _) = test_problem(60);
    let p = params();
    let href = &h;
    let pref = &p;
    let std_out = run_grid(GridShape::new(2, 2), move |ctx| {
        solve_dist(
            ctx,
            Backend::Std,
            DistHerm::from_global(href, ctx),
            pref,
            None,
        )
        .expect("ChASE solve")
    });
    let nccl_out = run_grid(GridShape::new(2, 2), move |ctx| {
        solve_dist(
            ctx,
            Backend::Nccl,
            DistHerm::from_global(href, ctx),
            pref,
            None,
        )
        .expect("ChASE solve")
    });
    // Bitwise identical math.
    for (a, b) in std_out.results.iter().zip(&nccl_out.results) {
        assert_eq!(a.eigenvalues, b.eigenvalues);
        assert_eq!(a.matvecs, b.matvecs);
    }
    // But STD stages through the host while NCCL does not.
    let std_transfer: u64 = std_out
        .ledgers
        .iter()
        .map(|l| l.bytes_in(chase_comm::Category::Transfer))
        .sum();
    let nccl_transfer: u64 = nccl_out
        .ledgers
        .iter()
        .map(|l| l.bytes_in(chase_comm::Category::Transfer))
        .sum();
    assert!(std_transfer > 0);
    assert_eq!(nccl_transfer, 0);
}

#[test]
fn dft_surrogate_problem_converges() {
    // One Table-1-style problem end to end (scaled down further for CI).
    let spec = Spectrum::dft_like(120);
    let h = dense_with_spectrum::<C64>(&spec, 99);
    let mut p = Params::new(12, 6);
    p.tol = 1e-9;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(
        r.converged,
        "DFT surrogate did not converge in {} iters",
        r.iterations
    );
    for k in 0..p.nev {
        assert!(
            (r.eigenvalues[k] - spec.values()[k]).abs() < 1e-6,
            "lambda_{k}: {} vs {}",
            r.eigenvalues[k],
            spec.values()[k]
        );
    }
    // Residuals honored the tolerance.
    for res in &r.residuals {
        assert!(*res < 1e-9 * r.norm_h * 10.0);
    }
}
