//! Fig. 2: weak-scaling kernel profile — computation (green), communication
//! (red) and host-device data movement (blue) within Filter, QR,
//! Rayleigh-Ritz and Residuals, for ChASE(LMS), ChASE(STD) and ChASE(NCCL).
//!
//! Setup mirrors the paper: Uniform (real f64) matrices, N = 30k..240k with
//! node count 1..64, nev = 2250, nex = 750, first iteration only (fixed
//! workload per task). The analytic event streams priced here are asserted
//! equal to live functional-run ledgers in `tests/it/analytic_vs_live.rs`.

use chase_comm::Region;
use chase_perfmodel::{
    iteration_events, price_ledger, CommFlavor, IterationSpec, Layout, Machine, PriceCtx,
    ScalarKind,
};

struct Build {
    name: &'static str,
    layout: Layout,
    flavor: CommFlavor,
    gpus_per_rank: f64,
}

fn main() {
    let machine = Machine::juwels_booster();
    let builds = [
        Build {
            name: "ChASE(LMS)",
            layout: Layout::Lms,
            flavor: CommFlavor::MpiHostStaged,
            gpus_per_rank: 4.0,
        },
        Build {
            name: "ChASE(STD)",
            layout: Layout::New,
            flavor: CommFlavor::MpiHostStaged,
            gpus_per_rank: 1.0,
        },
        Build {
            name: "ChASE(NCCL)",
            layout: Layout::New,
            flavor: CommFlavor::NcclDeviceDirect,
            gpus_per_rank: 1.0,
        },
    ];

    println!(
        "Fig. 2: kernel profile, weak scaling (Uniform f64, ne = 3000, deg = 20, 1 iteration)\n"
    );
    for side in [1u64, 2, 4, 8] {
        let nodes = side * side;
        let n = 30_000 * side;
        println!("--- {nodes} node(s), N = {n} ---");
        println!(
            "{:<13} {:>14} {:>9} {:>9} {:>9} {:>9}",
            "build", "kernel", "compute", "comm", "movement", "total"
        );
        for b in &builds {
            // LMS: one rank per node (grid side x side, 4 GPUs each);
            // STD/NCCL: one rank per GPU (grid 2side x 2side).
            let grid = if matches!(b.layout, Layout::Lms) {
                side
            } else {
                2 * side
            };
            let spec = IterationSpec {
                n,
                ne: 3000,
                active: 3000,
                p: grid,
                q: grid,
                deg: 20,
                layout: b.layout,
                flavor: b.flavor,
                scalar: ScalarKind::F64,
            };
            let ctx = PriceCtx {
                scalar: ScalarKind::F64,
                flavor: b.flavor,
                gpus_per_rank: b.gpus_per_rank,
            };
            let costs = price_ledger(&iteration_events(&spec), &machine, ctx);
            for r in Region::PROFILED {
                let c = costs.get(&r).copied().unwrap_or_default();
                println!(
                    "{:<13} {:>14} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                    b.name,
                    r.name(),
                    c.compute,
                    c.comm,
                    c.transfer,
                    c.total()
                );
            }
        }
        println!();
    }

    // The headline speedups of Section 4.4 at 64 nodes.
    println!("--- Speedups at 64 nodes (paper Section 4.4) ---");
    let side = 8u64;
    let n = 240_000;
    let per_kernel = |layout: Layout, flavor: CommFlavor, gpus: f64| {
        let grid = if matches!(layout, Layout::Lms) {
            side
        } else {
            2 * side
        };
        let spec = IterationSpec {
            n,
            ne: 3000,
            active: 3000,
            p: grid,
            q: grid,
            deg: 20,
            layout,
            flavor,
            scalar: ScalarKind::F64,
        };
        let ctx = PriceCtx {
            scalar: ScalarKind::F64,
            flavor,
            gpus_per_rank: gpus,
        };
        price_ledger(&iteration_events(&spec), &machine, ctx)
    };
    let lms = per_kernel(Layout::Lms, CommFlavor::MpiHostStaged, 4.0);
    let std_ = per_kernel(Layout::New, CommFlavor::MpiHostStaged, 1.0);
    let nccl = per_kernel(Layout::New, CommFlavor::NcclDeviceDirect, 1.0);
    println!(
        "{:>14} {:>12} {:>12} {:>12} (paper: 1.6x/22x/10x/8x STD, 3.8x/1149x/23x/33x NCCL)",
        "kernel", "STD vs LMS", "NCCL vs LMS", "NCCL vs STD"
    );
    for r in Region::PROFILED {
        let l = lms[&r].total();
        let s = std_[&r].total();
        let c = nccl[&r].total();
        println!(
            "{:>14} {:>11.1}x {:>11.1}x {:>11.1}x",
            r.name(),
            l / s,
            l / c,
            s / c
        );
    }
}
