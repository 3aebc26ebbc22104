//! Quickstart: solve for the lowest eigenpairs of a dense Hermitian matrix.
//!
//! ```text
//! cargo run --release -p chase-bench --bin quickstart
//! ```
//!
//! Builds a 400x400 complex Hermitian matrix with a known uniform spectrum
//! (the paper's artificial "Uniform" class, Section 4.1.2), asks ChASE for
//! the 20 lowest eigenpairs with 10 extra search directions, and checks the
//! answer against the prescribed spectrum.

use chase_core::{solve_serial, Params};
use chase_linalg::C64;
use chase_matgen::{dense_with_spectrum, Spectrum};

fn main() {
    let n = 400;
    let nev = 20;
    let nex = 10;

    println!("Generating a {n}x{n} Hermitian matrix with uniform spectrum on [-1, 1]...");
    let spectrum = Spectrum::uniform(n, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spectrum, 2024);

    let mut params = Params::new(nev, nex);
    params.tol = 1e-10; // the paper's tolerance
    params.track_true_cond = false;

    println!(
        "Running ChASE (nev = {nev}, nex = {nex}, tol = {:.0e})...",
        params.tol
    );
    let result = solve_serial(&h, &params, None).expect("ChASE solve");

    println!(
        "Converged: {} in {} iterations, {} MatVecs\n",
        result.converged, result.iterations, result.matvecs
    );
    println!(
        "{:>4} {:>18} {:>18} {:>12} {:>12}",
        "k", "computed", "exact", "abs err", "residual"
    );
    for k in 0..nev {
        let exact = spectrum.values()[k];
        println!(
            "{k:>4} {:>18.12} {exact:>18.12} {:>12.2e} {:>12.2e}",
            result.eigenvalues[k],
            (result.eigenvalues[k] - exact).abs(),
            result.residuals[k]
        );
    }

    println!("\nPer-iteration diagnostics (QR switchboard of Algorithm 4):");
    for s in &result.stats {
        println!(
            "  iter {:>2}: est cond {:>9.2e} -> {:<13} locked {:>3} (+{:>2}), max residual {:.2e}",
            s.iter,
            s.est_cond,
            s.qr_variant.name(),
            s.locked,
            s.new_locked,
            s.max_res
        );
    }
}
