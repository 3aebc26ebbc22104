//! Block-cyclic distribution (Section 2.2's second layout): the full solver
//! must be distribution-agnostic — identical eigenvalues, MatVecs and
//! assembled eigenvectors whether `H` is dealt in blocks or block-cyclically.

use chase_comm::{run_grid, Distribution, GridShape};
use chase_core::{solve_dist, solve_serial, ChaseResult, DistHerm, Params};
use chase_device::Backend;
use chase_linalg::{gemm_new, gram, Op, C64};
use chase_matgen::{dense_with_spectrum, Spectrum};

#[test]
fn block_cyclic_solve_matches_serial() {
    let n = 72;
    let spec = Spectrum::uniform(n, -2.0, 2.0);
    let h = dense_with_spectrum::<C64>(&spec, 7);
    let mut p = Params::new(8, 6);
    p.tol = 1e-9;
    let reference = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(reference.converged);

    for dist in [
        Distribution::BlockCyclic { block: 4 },
        Distribution::BlockCyclic { block: 7 },
        Distribution::BlockCyclic { block: 1 },
    ] {
        for shape in [
            GridShape::new(2, 2),
            GridShape::new(2, 3),
            GridShape::new(3, 3),
        ] {
            let (h, p, reference) = (&h, &p, &reference);
            let out = run_grid(shape, move |ctx| {
                let dh = DistHerm::from_global_dist(h, ctx, dist);
                solve_dist(ctx, Backend::Nccl, dh, p, None).expect("ChASE solve")
            });
            for r in &out.results {
                assert!(r.converged, "{dist:?} {shape:?} did not converge");
                assert_eq!(r.matvecs, reference.matvecs, "{dist:?} {shape:?}");
                for k in 0..p.nev {
                    assert!(
                        (r.eigenvalues[k] - reference.eigenvalues[k]).abs() < 1e-9,
                        "{dist:?} {shape:?} lambda_{k}"
                    );
                }
            }
            let full = ChaseResult::assemble_eigenvectors(&out.results);
            assert!(
                gram(full.as_ref()).orthogonality_error() < 1e-8,
                "{dist:?} {shape:?}: eigenvectors not orthonormal"
            );
            let hv = gemm_new(Op::None, Op::None, h, &full);
            for j in 0..p.nev {
                for i in 0..n {
                    use chase_linalg::Scalar;
                    let r = (hv[(i, j)] - full[(i, j)].scale(reference.eigenvalues[j])).abs();
                    assert!(r < 1e-7, "{dist:?} {shape:?} residual ({i},{j}): {r}");
                }
            }
        }
    }
}

#[test]
fn block_and_cyclic_are_bitwise_identical_in_counts() {
    // Same math, different index bookkeeping: iteration counts and MatVecs
    // must agree exactly; eigenvalues to round-off.
    let n = 60;
    let spec = Spectrum::dft_like(n);
    let h = dense_with_spectrum::<C64>(&spec, 8);
    let mut p = Params::new(6, 4);
    p.tol = 1e-9;
    let href = &h;
    let pref = &p;
    let block = run_grid(GridShape::new(2, 2), move |ctx| {
        solve_dist(
            ctx,
            Backend::Nccl,
            DistHerm::from_global_dist(href, ctx, Distribution::Block),
            pref,
            None,
        )
        .expect("ChASE solve")
    });
    let cyclic = run_grid(GridShape::new(2, 2), move |ctx| {
        solve_dist(
            ctx,
            Backend::Nccl,
            DistHerm::from_global_dist(href, ctx, Distribution::BlockCyclic { block: 5 }),
            pref,
            None,
        )
        .expect("ChASE solve")
    });
    let (b, c) = (&block.results[0], &cyclic.results[0]);
    assert!(b.converged && c.converged);
    assert_eq!(b.iterations, c.iterations);
    assert_eq!(b.matvecs, c.matvecs);
    for (x, y) in b.eigenvalues.iter().zip(&c.eigenvalues) {
        assert!((x - y).abs() < 1e-10);
    }
}

#[test]
fn lms_supports_block_cyclic_too() {
    let n = 48;
    let spec = Spectrum::uniform(n, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 9);
    let mut p = Params::new(5, 4);
    p.tol = 1e-9;
    let reference = solve_serial(&h, &p, None).expect("ChASE solve");
    let (href, pref) = (&h, &p);
    let out = run_grid(GridShape::new(2, 2), move |ctx| {
        let dh = DistHerm::from_global_dist(href, ctx, Distribution::BlockCyclic { block: 3 });
        chase_core::lms::solve_lms(ctx, dh, pref, None).expect("LMS solve")
    });
    for r in &out.results {
        assert!(r.converged);
        for k in 0..p.nev {
            assert!((r.eigenvalues[k] - reference.eigenvalues[k]).abs() < 1e-8);
        }
    }
}
