//! Ablation: block vs block-cyclic distribution of `H` (Section 2.2).
//!
//! ChASE's communication volume is distribution-independent (the HEMM trick
//! never redistributes the vector blocks); what the distribution changes is
//! load balance when `N` does not divide the grid evenly. This binary
//! verifies both live.

use chase_comm::{run_grid, Category, Distribution, GridShape};
use chase_core::{solve_dist, DistHerm, Params};
use chase_device::Backend;
use chase_linalg::C64;
use chase_matgen::{dense_with_spectrum, Spectrum};

fn main() {
    let n = 150; // deliberately not divisible by the 4-rank grid
    let spec = Spectrum::uniform(n, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 17);
    let mut p = Params::new(10, 6);
    p.tol = 1e-9;

    println!("Ablation: H distribution (N = {n}, 2x2 grid, nev = 10)\n");
    println!(
        "{:>18} {:>9} {:>7} {:>14} {:>12} {:>14}",
        "distribution", "MatVecs", "iters", "comm bytes", "lambda_0", "block sizes"
    );
    let dists = [
        ("block", Distribution::Block),
        ("cyclic(1)", Distribution::BlockCyclic { block: 1 }),
        ("cyclic(8)", Distribution::BlockCyclic { block: 8 }),
        ("cyclic(32)", Distribution::BlockCyclic { block: 32 }),
    ];
    let mut reference: Option<(u64, f64)> = None;
    for (name, dist) in dists {
        let (href, pref) = (&h, &p);
        let out = run_grid(GridShape::new(2, 2), move |ctx| {
            let dh = DistHerm::from_global_dist(href, ctx, dist);
            let shape = (dh.n_r(), dh.n_c());
            (
                solve_dist(ctx, Backend::Nccl, dh, pref, None).expect("ChASE solve"),
                shape,
            )
        });
        let (r, _) = &out.results[0];
        assert!(r.converged, "{name} did not converge");
        let bytes: u64 = out.ledgers[0].bytes_in(Category::Comm);
        let shapes: Vec<String> = out
            .results
            .iter()
            .map(|(_, (nr, nc))| format!("{nr}x{nc}"))
            .collect();
        println!(
            "{name:>18} {:>9} {:>7} {bytes:>14} {:>12.6} {:>14}",
            r.matvecs,
            r.iterations,
            r.eigenvalues[0],
            shapes.join(" ")
        );
        match &reference {
            None => reference = Some((r.matvecs, r.eigenvalues[0])),
            Some((mv, l0)) => {
                assert_eq!(*mv, r.matvecs, "{name}: MatVecs depend on distribution");
                assert!((l0 - r.eigenvalues[0]).abs() < 1e-9);
            }
        }
    }
    println!(
        "\nExpected: identical convergence and (near-)identical communication for\n\
         every distribution — the layout changes only which rows each rank owns."
    );
}
