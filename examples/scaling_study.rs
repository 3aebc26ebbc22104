//! Weak-scaling study: run the distributed solver functionally on small
//! grids (threads as ranks), validate that the analytic cost model matches
//! the recorded event ledgers, then extrapolate to JUWELS-Booster scales
//! with the calibrated machine model — the methodology behind Figs. 2–3.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use chase_comm::{run_grid, GridShape, Region};
use chase_core::{solve_dist, DistHerm, Params, QrStrategy};
use chase_device::Backend;
use chase_linalg::C64;
use chase_matgen::{dense_with_spectrum, Spectrum};
use chase_perfmodel::{
    iteration_events, price_ledger, profiled_time, CommFlavor, IterationSpec, Layout, Machine,
    PriceCtx, ScalarKind,
};

fn main() {
    let machine = Machine::juwels_booster();

    println!("== Part 1: functional runs (threads as ranks), 1 ChASE iteration ==\n");
    println!(
        "{:>6} {:>8} {:>10} {:>14} {:>14}",
        "ranks", "N", "converged?", "comm bytes", "modeled (s)"
    );
    for (ranks, n) in [(1usize, 60usize), (4, 120), (9, 180)] {
        let shape = GridShape::squarest(ranks);
        let spec = Spectrum::uniform(n, -1.0, 1.0);
        let h = dense_with_spectrum::<C64>(&spec, 1);
        let mut p = Params::new(n / 12, n / 24);
        p.max_iter = 1;
        p.optimize_degrees = false;
        p.qr = QrStrategy::AlwaysCholeskyQr2;
        let (href, pref) = (&h, &p);
        let out = run_grid(shape, move |ctx| {
            solve_dist(
                ctx,
                Backend::Nccl,
                DistHerm::from_global(href, ctx),
                pref,
                None,
            )
            .expect("ChASE solve")
        });
        let bytes = out.ledgers[0].bytes_in(chase_comm::Category::Comm);
        let costs = price_ledger(&out.ledgers[0], &machine, PriceCtx::nccl());
        println!(
            "{ranks:>6} {n:>8} {:>10} {bytes:>14} {:>14.6}",
            out.results[0].iterations == 1,
            profiled_time(&costs),
        );
    }

    println!("\n== Part 2: extrapolated weak scaling (paper Fig. 3a setup) ==");
    println!("Uniform matrices, 30k per node-square, nev=2250 nex=750, 1 iteration\n");
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "nodes", "GPUs", "N", "LMS (s)", "STD (s)", "NCCL (s)"
    );
    for side in [1u64, 2, 3, 4, 6, 8, 12, 16, 20, 25, 30] {
        let nodes = side * side;
        let gpus = 4 * nodes;
        let n = 30_000 * side;
        let g = (gpus as f64).sqrt() as u64;
        let spec_of = |layout, flavor, p, q| IterationSpec {
            n,
            ne: 3000,
            active: 3000,
            p,
            q,
            deg: 20,
            layout,
            flavor,
            scalar: ScalarKind::F64,
        };
        // STD/NCCL: one rank per GPU on a sqrt(4 nodes) grid.
        let std_l = iteration_events(&spec_of(Layout::New, CommFlavor::MpiHostStaged, g, g));
        let nccl_l = iteration_events(&spec_of(Layout::New, CommFlavor::NcclDeviceDirect, g, g));
        // LMS: one rank per node with 4 GPUs, sqrt(nodes) grid; memory cap
        // limits it to 144 nodes as in the paper.
        let lms_str = if nodes <= 144 {
            let lms_l =
                iteration_events(&spec_of(Layout::Lms, CommFlavor::MpiHostStaged, side, side));
            let mut ctx = PriceCtx::lms();
            ctx.scalar = ScalarKind::F64;
            let t = profiled_time(&price_ledger(&lms_l, &machine, ctx));
            format!("{t:>12.2}")
        } else {
            format!("{:>12}", "OOM")
        };
        // The paper's Uniform matrices are real double precision (A = Q^T D Q).
        let real = |mut c: PriceCtx| {
            c.scalar = ScalarKind::F64;
            c
        };
        let t_std = profiled_time(&price_ledger(&std_l, &machine, real(PriceCtx::std())));
        let t_nccl = profiled_time(&price_ledger(&nccl_l, &machine, real(PriceCtx::nccl())));
        println!("{nodes:>6} {gpus:>8} {n:>10} {lms_str} {t_std:>12.2} {t_nccl:>12.2}");
    }

    println!("\n== Part 3: per-kernel breakdown at 64 nodes (paper Fig. 2 setup) ==\n");
    let g = 16; // sqrt(256 GPUs)
    let spec = IterationSpec {
        n: 240_000,
        ne: 3000,
        active: 3000,
        p: g,
        q: g,
        deg: 20,
        layout: Layout::New,
        flavor: CommFlavor::NcclDeviceDirect,
        scalar: ScalarKind::F64,
    };
    let mut pctx = PriceCtx::nccl();
    pctx.scalar = ScalarKind::F64;
    let costs = price_ledger(&iteration_events(&spec), &machine, pctx);
    println!(
        "{:>14} {:>12} {:>12} {:>12}",
        "kernel", "compute", "comm", "transfer"
    );
    for r in Region::PROFILED {
        let c = costs.get(&r).copied().unwrap_or_default();
        println!(
            "{:>14} {:>12.4} {:>12.4} {:>12.4}",
            r.name(),
            c.compute,
            c.comm,
            c.transfer
        );
    }
    println!("\n(ChASE(NCCL): the transfer column is identically zero — Section 3.3.)");
}
