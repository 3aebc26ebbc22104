//! ChASE's raison d'être (Section 1): iterative solvers can be fed
//! approximate solutions. In DFT self-consistency loops, consecutive
//! Hamiltonians are correlated, so warm-starting with the previous
//! eigenvectors slashes the MatVec count.
//!
//! These tests drive the first-class [`WarmStart`] entry point — the
//! previous final search space *and* cached spectral bounds (the Lanczos
//! estimate is skipped) — which is also what the `chase-serve` session
//! cache feeds.

use chase_comm::GridShape;
use chase_core::{solve_serial, ChaseResult, Params, WarmStart};
use chase_device::Backend;
use chase_linalg::{Matrix, C64};
use chase_matgen::{dense_with_spectrum, perturb_hermitian, Spectrum};
use chase_tune::{solve_grid, GridRun};

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
        // Hand the previous search space (and spectral bounds) over whole.
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

/// Solve `h` on `shape` with `backend`, warm-started from `warm`, and hand
/// back every rank's result.
fn solve_on(
    h: &Matrix<C64>,
    p: &Params,
    shape: GridShape,
    backend: Backend,
    warm: Option<&WarmStart<C64>>,
) -> Vec<ChaseResult<C64>> {
    let run = GridRun {
        backend,
        warm,
        ..GridRun::new(shape)
    };
    solve_grid(h, p, &run)
        .into_solved()
        .unwrap_or_else(|e| panic!("{backend:?} solve on {shape:?}: {e}"))
}

/// The same hand-off cut to its `nev` eigenvectors: still a valid `1..=ne`
/// block, whose `nex` directions the next solve draws at random.
fn eigenvectors_only(full: &WarmStart<C64>, nev: usize) -> WarmStart<C64> {
    WarmStart {
        v0: full.v0.copy_cols(0..nev),
        bounds: full.bounds,
    }
}

#[test]
fn from_results_hands_over_the_whole_search_space() {
    let n = 90;
    let h = &scf_sequence(n, 1, 0.0)[0];
    let p = Params::new(7, 5);
    for (shape, backend) in [
        (GridShape::new(1, 1), Backend::Nccl),
        (GridShape::new(2, 2), Backend::Nccl),
        (GridShape::new(1, 2), Backend::Lms),
    ] {
        let results = solve_on(h, &p, shape, backend, None);
        let warm = WarmStart::from_results(&results);
        let eigenvectors = ChaseResult::assemble_eigenvectors(&results);
        assert_eq!((warm.v0.rows(), warm.v0.cols()), (n, p.ne()), "{shape:?}");
        assert_eq!(eigenvectors.cols(), p.nev);
        assert_eq!(
            warm.v0.cols_ref(0..p.nev).as_slice(),
            eigenvectors.as_slice(),
            "{backend:?} on {shape:?}: the leading nev columns are the eigenvectors"
        );
    }
}

/// Walk `scf_sequence` warm-started from the full hand-off and, at every
/// warm step, solve the same matrix once more from the hand-off cut to the
/// `nev` eigenvectors: the full one must take strictly fewer MatVecs and
/// find the same eigenvalues.
fn full_hand_off_beats_eigenvectors_only(backend: Backend) {
    let n = 100;
    let seq = scf_sequence(n, 4, 5e-4);
    let mut p = Params::new(8, 6);
    p.tol = 1e-9;
    let one = GridShape::new(1, 1);
    let mut prev = solve_on(&seq[0], &p, one, backend, None);
    for (k, h) in seq.iter().enumerate().skip(1) {
        let full = WarmStart::from_results(&prev);
        let cut = eigenvectors_only(&full, p.nev);
        let from_full = solve_on(h, &p, one, backend, Some(&full));
        let from_cut = solve_on(h, &p, one, backend, Some(&cut));
        let (a, b) = (&from_full[0], &from_cut[0]);
        assert!(a.converged && b.converged, "{backend:?} step {k}");
        assert!(
            a.matvecs < b.matvecs,
            "{backend:?} step {k}: full hand-off {} MatVecs !< eigenvectors only {}",
            a.matvecs,
            b.matvecs
        );
        for j in 0..p.nev {
            assert!(
                (a.eigenvalues[j] - b.eigenvalues[j]).abs() < 1e-7,
                "{backend:?} step {k} lambda_{j}"
            );
        }
        prev = from_full;
    }
}

#[test]
fn the_full_hand_off_takes_fewer_matvecs_than_the_eigenvectors_alone() {
    full_hand_off_beats_eigenvectors_only(Backend::Nccl);
}

#[test]
fn the_full_hand_off_takes_fewer_matvecs_through_lms() {
    full_hand_off_beats_eigenvectors_only(Backend::Lms);
}
