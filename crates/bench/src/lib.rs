//! # chase-bench
//!
//! Benchmark harness: one binary per table/figure of the paper's evaluation
//! (Section 4), plus ablation studies. Shared plumbing lives here:
//! running a problem live on a thread grid, extracting its iteration
//! schedule, and re-pricing that schedule at the paper's original scale with
//! the calibrated machine model.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_suite` | Table 1 (problem suite + surrogate mapping) |
//! | `fig1_cond` | Fig. 1 (estimated vs computed condition numbers) |
//! | `table2_qr` | Table 2 (HHQR vs CholeskyQR) |
//! | `fig2_profile` | Fig. 2 (kernel profile: compute/comm/transfer) |
//! | `fig3a_weak` | Fig. 3a (weak scaling to 900 nodes) |
//! | `fig3b_strong` | Fig. 3b (strong scaling vs ELPA) |
//! | `ablation_*` | design-choice ablations from DESIGN.md |

use chase_comm::{GridShape, Ledger};
use chase_core::{ChaseResult, Params};
use chase_device::Backend;
use chase_linalg::{Matrix, C64};
use chase_perfmodel::{
    iteration_events, CommFlavor, IterationSpec, Layout, Machine, PriceCtx, ScalarKind,
};
use chase_tune::{solve_grid, GridRun};

/// Outcome of a live (functional) distributed run: per-rank result of rank
/// 0 plus its event ledger.
pub struct LiveRun {
    pub result: ChaseResult<C64>,
    pub ledger: Ledger,
    pub wall: std::time::Duration,
}

/// Solve `h` on a `shape` grid of threads with the given backend. Panics
/// when the solve fails: the bench binaries run fault-free problems.
pub fn run_live(h: &Matrix<C64>, params: &Params, shape: GridShape, backend: Backend) -> LiveRun {
    let t0 = std::time::Instant::now();
    let run = GridRun {
        backend,
        ..GridRun::new(shape)
    };
    let mut out = solve_grid(h, params, &run);
    let wall = t0.elapsed();
    let ledger = out.ledgers.swap_remove(0);
    let solved = out.into_solved();
    LiveRun {
        result: solved.expect("ChASE solve aborted").swap_remove(0),
        ledger,
        wall,
    }
}

/// Extract the per-iteration `(active_columns, average_degree)` schedule
/// from a live run — the input for re-pricing the same convergence history
/// at the paper's full problem scale.
pub fn schedule_of(result: &ChaseResult<C64>, ne: usize) -> Vec<(u64, u64)> {
    let mut locked_before = 0usize;
    let mut schedule = Vec::with_capacity(result.stats.len());
    for s in &result.stats {
        let active = (ne - locked_before) as u64;
        // Average degree = matvecs per active column, floored at 2 and
        // rounded to even as the filter requires.
        let mut deg = s.matvecs.checked_div(active).unwrap_or(0).max(2);
        deg += deg % 2;
        schedule.push((active, deg));
        locked_before = s.locked;
    }
    schedule
}

/// Price a schedule at full problem scale.
#[allow(clippy::too_many_arguments)]
pub fn price_schedule(
    machine: &Machine,
    schedule: &[(u64, u64)],
    n: u64,
    ne: u64,
    grid: u64,
    layout: Layout,
    flavor: CommFlavor,
    scalar: ScalarKind,
    gpus_per_rank: f64,
) -> std::collections::HashMap<chase_comm::Region, chase_perfmodel::RegionCost> {
    let base = IterationSpec {
        n,
        ne,
        active: ne,
        p: grid,
        q: grid,
        deg: 20,
        layout,
        flavor,
        scalar,
    };
    let mut total = Ledger::new();
    for &(active, deg) in schedule {
        let spec = IterationSpec {
            active,
            deg,
            ..base
        };
        total.absorb(&iteration_events(&spec));
    }
    let ctx = PriceCtx {
        scalar,
        flavor,
        gpus_per_rank,
    };
    chase_perfmodel::price_ledger(&total, machine, ctx)
}

/// Format a byte count as KiB/MiB (ablation tables).
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{} MiB", bytes >> 20)
    } else {
        format!("{} KiB", bytes >> 10)
    }
}

/// Host-staged collectives pay D2H before and H2D after (PCIe gen4).
pub fn staging_time(m: &Machine, bytes: u64) -> f64 {
    2.0 * (m.pcie_latency + bytes as f64 / m.pcie_bw)
}

/// Format seconds compactly.
pub fn fmt_s(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else {
        format!("{t:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_matgen::{dense_with_spectrum, Spectrum};

    #[test]
    fn live_run_and_schedule() {
        let spec = Spectrum::uniform(60, -1.0, 1.0);
        let h = dense_with_spectrum::<C64>(&spec, 1);
        let mut p = Params::new(6, 4);
        p.tol = 1e-8;
        let run = run_live(&h, &p, GridShape::new(2, 2), Backend::Nccl);
        assert!(run.result.converged);
        let sched = schedule_of(&run.result, p.ne());
        assert_eq!(sched.len(), run.result.iterations);
        // Active counts never grow; degrees stay even.
        for w in sched.windows(2) {
            assert!(w[1].0 <= w[0].0);
        }
        for (_, d) in &sched {
            assert_eq!(d % 2, 0);
        }
        // Total modeled matvecs approximate the real count.
        let modeled: u64 = sched.iter().map(|(a, d)| a * d).sum();
        let real = run.result.matvecs;
        assert!(
            modeled as f64 > real as f64 * 0.7 && (modeled as f64) < real as f64 * 1.3,
            "schedule matvecs {modeled} vs live {real}"
        );
    }

    #[test]
    fn price_schedule_is_positive_and_monotone_in_iters() {
        let m = Machine::juwels_booster();
        let one = price_schedule(
            &m,
            &[(100, 20)],
            10_000,
            120,
            2,
            Layout::New,
            CommFlavor::NcclDeviceDirect,
            ScalarKind::C64,
            1.0,
        );
        let two = price_schedule(
            &m,
            &[(100, 20), (100, 20)],
            10_000,
            120,
            2,
            Layout::New,
            CommFlavor::NcclDeviceDirect,
            ScalarKind::C64,
            1.0,
        );
        let t1 = chase_perfmodel::profiled_time(&one);
        let t2 = chase_perfmodel::profiled_time(&two);
        assert!(t1 > 0.0);
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }
}
