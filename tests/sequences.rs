//! ChASE's raison d'être (Section 1): iterative solvers can be fed
//! approximate solutions. In DFT self-consistency loops, consecutive
//! Hamiltonians are correlated, so warm-starting with the previous
//! eigenvectors slashes the MatVec count.
//!
//! These tests drive the first-class [`WarmStart`] entry point — previous
//! eigenvectors *and* cached spectral bounds (the Lanczos estimate is
//! skipped) — which is also what the `chase-serve` session cache feeds.

use chase_core::{solve_serial, Params, WarmStart};
use chase_linalg::{Matrix, C64};
use chase_matgen::{dense_with_spectrum, perturb_hermitian, Spectrum};

/// A correlated sequence of Hamiltonians: H_k = H + eps_k * P_k with small
/// Hermitian perturbations, mimicking SCF iterations.
fn scf_sequence(n: usize, steps: usize, eps: f64) -> Vec<Matrix<C64>> {
    let spec = Spectrum::dft_like(n);
    let base = dense_with_spectrum::<C64>(&spec, 11);
    let mut out = vec![base.clone()];
    let mut current = base;
    for k in 1..steps {
        let next = perturb_hermitian(&current, eps, 12 + k as u64);
        out.push(next.clone());
        current = next;
    }
    out
}

#[test]
fn warm_starts_cut_matvecs() {
    let n = 100;
    let seq = scf_sequence(n, 3, 5e-4);
    let mut p = Params::new(8, 6);
    p.tol = 1e-9;

    // Cold solve of the first Hamiltonian.
    let r0 = solve_serial(&seq[0], &p, None).expect("ChASE solve");
    assert!(r0.converged);

    let mut prev = r0;
    for (k, h) in seq.iter().enumerate().skip(1) {
        // Hand the previous eigenpairs (and spectral bounds) over whole:
        // the random search-direction tail is padded internally.
        let warm_start = WarmStart::from_results(std::slice::from_ref(&prev));
        let cold = solve_serial(h, &p, None).expect("ChASE solve");
        let warm = solve_serial(h, &p, Some(&warm_start)).expect("warm solve aborted");
        assert!(warm.converged, "warm solve {k} failed");
        assert!(cold.converged, "cold solve {k} failed");
        assert!(warm.warm_started, "bounds reuse not engaged at step {k}");
        assert!(
            warm.matvecs < cold.matvecs,
            "step {k}: warm {} !< cold {}",
            warm.matvecs,
            cold.matvecs
        );
        // Same spectrum either way.
        for j in 0..p.nev {
            assert!(
                (warm.eigenvalues[j] - cold.eigenvalues[j]).abs() < 1e-7,
                "step {k} lambda_{j}"
            );
        }
        prev = warm;
    }
}

#[test]
fn exact_eigenvectors_converge_almost_instantly() {
    let n = 80;
    let spec = Spectrum::uniform(n, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 14);
    let mut p = Params::new(6, 4);
    p.tol = 1e-9;
    let first = solve_serial(&h, &p, None).expect("ChASE solve");
    assert!(first.converged);

    let warm_start = WarmStart::from_results(std::slice::from_ref(&first));
    let again = solve_serial(&h, &p, Some(&warm_start)).expect("restart aborted");
    assert!(again.converged);
    assert!(
        again.iterations <= first.iterations,
        "restart took {} iters vs {}",
        again.iterations,
        first.iterations
    );
    assert!(again.matvecs < first.matvecs);
}
