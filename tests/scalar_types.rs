//! The C++ ChASE is templated over four scalar types (Section 2); this
//! suite instantiates the full solver for each of them — real/complex,
//! single/double — with tolerances scaled to the precision.

use chase_comm::{run_grid, GridShape, Reduce};
use chase_core::{solve_dist, solve_serial, DistHerm, Params};
use chase_device::Backend;
use chase_linalg::{RealScalar, Scalar, C32, C64};
use chase_matgen::{dense_with_spectrum, Spectrum};

fn spectrum(n: usize) -> Spectrum {
    Spectrum::uniform(n, -2.0, 2.0)
}

#[test]
fn solve_f64() {
    let n = 80;
    let spec = spectrum(n);
    let h = dense_with_spectrum::<f64>(&spec, 1);
    let mut p = Params::new(6, 4);
    p.tol = 1e-9;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(r.converged);
    for k in 0..p.nev {
        assert!((r.eigenvalues[k] - spec.values()[k]).abs() < 1e-7);
    }
}

#[test]
fn solve_c64() {
    let n = 80;
    let spec = spectrum(n);
    let h = dense_with_spectrum::<C64>(&spec, 2);
    let mut p = Params::new(6, 4);
    p.tol = 1e-9;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(r.converged);
    for k in 0..p.nev {
        assert!((r.eigenvalues[k] - spec.values()[k]).abs() < 1e-7);
    }
}

#[test]
fn solve_f32() {
    let n = 80;
    let spec = spectrum(n);
    let h = dense_with_spectrum::<f32>(&spec, 3);
    let mut p = Params::new(6, 4);
    // Single precision: the paper's 1e-10 is unreachable; use ~sqrt(eps_32).
    p.tol = 1e-4;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(
        r.converged,
        "f32 solve failed after {} iterations",
        r.iterations
    );
    for k in 0..p.nev {
        assert!(
            (r.eigenvalues[k] - spec.values()[k] as f32).abs() < 1e-3,
            "lambda_{k}: {} vs {}",
            r.eigenvalues[k],
            spec.values()[k]
        );
    }
}

#[test]
fn solve_c32() {
    let n = 80;
    let spec = spectrum(n);
    let h = dense_with_spectrum::<C32>(&spec, 4);
    let mut p = Params::new(6, 4);
    p.tol = 1e-4;
    let r = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(
        r.converged,
        "c32 solve failed after {} iterations",
        r.iterations
    );
    for k in 0..p.nev {
        assert!((r.eigenvalues[k] - spec.values()[k] as f32).abs() < 1e-3);
    }
}

/// Full distributed filter+solve at the given native scalar, with
/// eigenvalue tolerance scaled to the scalar's epsilon. Asserts bitwise
/// SPMD agreement across ranks and closeness to the analytic spectrum.
fn dist_solve_native<T>(seed: u64, shape: GridShape)
where
    T: Scalar + Reduce,
    T::Real: Reduce,
    T::Lo: Reduce,
{
    let n = 72;
    let spec = spectrum(n);
    let h = dense_with_spectrum::<T>(&spec, seed);
    let eps = <T::Real as RealScalar>::EPS.to_f64();
    let mut p = Params::new(6, 4);
    // Residual target ~ sqrt(eps): 1e-8 for f64-family, 1e-4 for f32-family.
    p.tol = eps.sqrt() * 10.0;
    let (h, p) = (&h, &p);
    let out = run_grid(shape, move |ctx| {
        let dh = DistHerm::from_global(h, ctx);
        solve_dist(ctx, Backend::Nccl, dh, p, None).expect("ChASE solve")
    });
    let r0 = &out.results[0];
    assert!(
        r0.converged,
        "{}: {shape:?} failed after {} iterations",
        std::any::type_name::<T>(),
        r0.iterations
    );
    // Eigenvalue error ~ eps * ||H|| with a generous constant.
    let tol_eig = 500.0 * eps * r0.norm_h;
    for r in &out.results {
        assert_eq!(r.eigenvalues, r0.eigenvalues, "SPMD replica divergence");
        for k in 0..p.nev {
            let got = r.eigenvalues[k].to_f64();
            let want = spec.values()[k];
            assert!(
                (got - want).abs() < tol_eig,
                "{}: {shape:?} lambda_{k}: {got} vs {want} (tol {tol_eig:.2e})",
                std::any::type_name::<T>()
            );
        }
    }
}

#[test]
fn dist_solve_native_f32() {
    dist_solve_native::<f32>(21, GridShape::new(2, 2));
}

#[test]
fn dist_solve_native_c32() {
    dist_solve_native::<C32>(22, GridShape::new(2, 2));
}

#[test]
fn dist_solve_native_f32_rect_grid() {
    dist_solve_native::<f32>(23, GridShape::new(1, 3));
}

#[test]
fn dist_solve_native_c32_rect_grid() {
    dist_solve_native::<C32>(24, GridShape::new(3, 2));
}

#[test]
fn dist_solve_native_f64_reference() {
    dist_solve_native::<f64>(25, GridShape::new(2, 2));
}

#[test]
fn dist_solve_native_c64_reference() {
    dist_solve_native::<C64>(26, GridShape::new(2, 3));
}

#[test]
fn direct_solver_all_scalars() {
    let n = 24;
    let spec = spectrum(n);
    macro_rules! check {
        ($t:ty, $seed:expr, $tol:expr) => {{
            let h = dense_with_spectrum::<$t>(&spec, $seed);
            let r = chase_direct::eigh_two_stage(&h, 4);
            for (got, want) in r.eigenvalues.iter().zip(spec.values()) {
                assert!(
                    (got.to_owned() as f64 - want).abs() < $tol,
                    "{}: {} vs {}",
                    stringify!($t),
                    got,
                    want
                );
            }
        }};
    }
    check!(f64, 10, 1e-9);
    check!(f32, 11, 1e-3);
    let h = dense_with_spectrum::<C64>(&spec, 12);
    let r = chase_direct::eigh_two_stage(&h, 4);
    for (got, want) in r.eigenvalues.iter().zip(spec.values()) {
        assert!((got - want).abs() < 1e-9);
    }
}
