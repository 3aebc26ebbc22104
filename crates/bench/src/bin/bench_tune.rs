//! Tuned-vs-analytic ablation: what does *measuring* the collective and
//! filter schedules buy over the alpha-beta model's analytic picks?
//!
//! Three questions, one deterministic tuning pass plus three live solves of
//! the same problem:
//!
//! 1. **Trial-level**: the tuner's measured winner against the always-flat
//!    default over the probed hot-path operations — `tuned_cost` vs
//!    `flat_cost` off the [`chase_tune::PlanEntry`]. The flat schedule is
//!    always among the candidates, so tuned <= flat is asserted.
//! 2. **Model residual**: per-trial modeled-vs-measured rows
//!    (`chase_perfmodel::residual_summary`) — the systematic bias and worst
//!    single disagreement of the analytic model on this machine, i.e. how
//!    much headroom measurement has over trusting the model.
//! 3. **End-to-end**: the same solve run flat, analytic-`Auto` (topology
//!    tuner, no measurements) and under the measured plan, each ledger
//!    priced on the JUWELS-Booster model. Schedules are pure reschedules,
//!    so all three land on bitwise-identical eigenvalues — also asserted.
//!
//! Emits `BENCH_tune.json`. Usage: `bench_tune [--tiny]`.

use chase_bench::{run_live, write_bench_json, BenchRecord};
use chase_comm::{run_grid, GridShape, Ledger};
use chase_core::{DistHerm, Params, PrecisionMode};
use chase_device::{Backend, CollectiveAlgo};
use chase_linalg::C64;
use chase_matgen::{dense_with_spectrum, Spectrum};
use chase_perfmodel::{price_ledger, residual_report, residual_summary, PriceCtx, ScalarKind};
use chase_tune::{solve_grid, tune_entry, GridRun, PlanChoice, TuneOptions};

/// Trial and solve costs here are micro/milliseconds; `fmt_s` rounds them
/// to 0.000.
fn fmt_t(t: f64) -> String {
    if t >= 1e-3 {
        format!("{:.3}ms", t * 1e3)
    } else {
        format!("{:.3}us", t * 1e6)
    }
}

/// Total modeled comm seconds across every region of a ledger.
fn comm_seconds(ledger: &Ledger, opts: &TuneOptions) -> f64 {
    let ctx = PriceCtx {
        scalar: ScalarKind::C64,
        flavor: opts.flavor(),
        gpus_per_rank: 1.0,
    };
    price_ledger(ledger, &opts.machine, ctx)
        .values()
        .map(|c| c.comm)
        .sum()
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let (n, nev, nex) = if tiny { (48, 6, 4) } else { (96, 8, 4) };
    let shape = GridShape::new(2, 2);
    let spec = Spectrum::uniform(n, -1.0, 1.0);
    let h = dense_with_spectrum::<C64>(&spec, 5);
    let opts = TuneOptions::deterministic();

    // --- 1. deterministic tuning pass ------------------------------------
    let (h_ref, opts_ref) = (&h, &opts);
    let outcome = run_grid(shape, move |ctx| {
        let mut dh = DistHerm::from_global(h_ref, ctx);
        tune_entry(ctx, &mut dh, nev, nex, opts_ref)
    })
    .results
    .into_iter()
    .next()
    .expect("at least one rank tuned");
    let e = &outcome.entry;
    assert!(
        e.tuned_cost <= e.flat_cost,
        "tuned {} must not lose to flat {}",
        e.tuned_cost,
        e.flat_cost
    );
    println!(
        "trials: {} over {} ({} rule(s))",
        e.trials,
        e.key.canonical(),
        e.rules.len()
    );
    println!(
        "trial-level: tuned {} vs flat {} ({:.1}% saved)",
        fmt_t(e.tuned_cost),
        fmt_t(e.flat_cost),
        100.0 * (1.0 - e.tuned_cost / e.flat_cost)
    );

    // --- 2. modeled-vs-measured residual ---------------------------------
    let summary = residual_summary(&outcome.residuals);
    println!("\n{}", residual_report(&outcome.residuals));

    // --- 3. end-to-end: flat vs analytic Auto vs measured plan -----------
    let mut p = Params::new(nev, nex);
    p.tol = 1e-9;
    let flat = run_live(&h, &p, shape, Backend::Nccl);
    let mut pa = p.clone();
    pa.collective = CollectiveAlgo::Auto;
    let analytic = run_live(&h, &pa, shape, Backend::Nccl);
    let mut pm = p.clone();
    pm.precision = PrecisionMode::Auto;
    let stored = PlanChoice::Hit(outcome.entry.clone());
    let run = GridRun {
        plan: Some(&stored),
        ..GridRun::new(shape)
    };
    let mut measured = solve_grid(&h, &pm, &run);
    let measured_l = measured.ledgers.swap_remove(0);
    let measured_r = measured
        .into_solved()
        .expect("measured-plan solve")
        .swap_remove(0);

    // Pure reschedules: the data plane is identical under every schedule.
    assert_eq!(
        flat.result.eigenvalues, analytic.result.eigenvalues,
        "analytic Auto changed the numbers, not just the schedule"
    );
    assert_eq!(
        flat.result.eigenvalues, measured_r.eigenvalues,
        "the measured plan changed the numbers, not just the schedule"
    );

    let costs = [
        ("flat", comm_seconds(&flat.ledger, &opts)),
        ("analytic", comm_seconds(&analytic.ledger, &opts)),
        ("measured", comm_seconds(&measured_l, &opts)),
    ];
    println!("end-to-end modeled comm (JUWELS-Booster, per solve):");
    for (name, c) in costs {
        println!("  {name:<9} {}", fmt_t(c));
    }

    let records = vec![
        BenchRecord::new("tune/trial/tuned", vec![e.tuned_cost]),
        BenchRecord::new("tune/trial/flat", vec![e.flat_cost]),
        BenchRecord::new("tune/residual/geo_mean_ratio", vec![summary.geo_mean_ratio]),
        BenchRecord::new("tune/residual/worst_factor", vec![summary.worst_factor]),
        BenchRecord::new("tune/solve/comm/flat", vec![costs[0].1]),
        BenchRecord::new("tune/solve/comm/analytic", vec![costs[1].1]),
        BenchRecord::new("tune/solve/comm/measured", vec![costs[2].1]),
    ];
    write_bench_json("BENCH_tune.json", &records).expect("write BENCH_tune.json");
    println!("\nwrote BENCH_tune.json ({} records)", records.len());
}
