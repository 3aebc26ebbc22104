//! Consolidated end-to-end solve matrix: {1x1, 2x2, 1x4} grids x
//! {f64, C64} x {clean, one injected fault}. One sweep, one set of invariants:
//!
//! - every rank converges and agrees bitwise with its siblings,
//! - residuals meet the requested tolerance (relative to `||H||`),
//! - the recovery log is sane — empty of injections on clean runs, carrying
//!   the injected event on chaos runs,
//! - eigenvalues agree across grid shapes (~1e-7: different reduction
//!   orders),
//! - clean and faulted runs land on the same spectrum (the fault either
//!   recovers fully or the solve fails typed — chaos contract).
//!
//! This module replaces the per-suite copies of the solve-loop helper that
//! the `faults` suite used to carry; the shared harness lives in `common`.

use crate::common;

use chase_comm::{run_grid, Category, EventKind, GridShape, Ledger, Reduce, Region, SpmdOutput};
use chase_core::{
    try_solve_elastic, ChaseResult, DistHerm, ElasticOutcome, Params, RecoveryEventKind,
};
use chase_device::Backend;
use chase_linalg::{RealScalar, Scalar, C64};
use chase_serve::{
    GenSpec, JobSpec, MatrixSource, Scheduler, SchedulerConfig, SpectrumKind, WarmKind,
};
use chase_tune::{solve_grid, GridRun};
use common::{expect_all_ok, params, problem, solve_on, MATRIX_GRIDS};

const N: usize = 48;
const NEV: usize = 6;
const NEX: usize = 4;
const TOL: f64 = 1e-9;
/// One deterministic fault for the chaos leg: a NaN planted in a filter
/// collective payload on rank 0 (present on every grid shape).
const FAULT: &str = "seed=11;nan@iter=1,region=filter,rank=0";

fn case_params(fault: Option<&str>) -> Params {
    let mut p = params(NEV, NEX, TOL);
    p.inject = fault.map(|s| s.parse().expect("valid fault spec"));
    p
}

/// Run the full (grid x clean/fault) block for one scalar,
/// asserting the invariants above.
fn run_block<T>(label: &str)
where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    let (h, spec) = problem::<T>(N, 7);
    // Serial clean reference: the cross-grid anchor.
    let reference = expect_all_ok(
        solve_on(&h, &case_params(None), GridShape::new(1, 1)),
        label,
    )
    .remove(0);
    assert!(reference.converged, "{label}: serial reference diverged");
    for k in 0..NEV {
        assert!(
            (reference.eigenvalues[k].to_f64() - spec.values()[k]).abs() < 1e-7,
            "{label}: serial lambda_{k} off the true spectrum"
        );
    }

    for (p, q) in MATRIX_GRIDS {
        let shape = GridShape::new(p, q);
        // --- clean leg ---
        let case = format!("{label} {p}x{q}");
        let clean = expect_all_ok(solve_on(&h, &case_params(None), shape), &case);
        check_ranks_agree(&clean, &case);
        let r0 = &clean[0];
        assert!(r0.converged, "{case}: clean run diverged");
        for res in &r0.residuals {
            assert!(
                res.to_f64() < TOL * r0.norm_h,
                "{case}: residual above tolerance"
            );
        }
        assert!(
            !r0.recovery
                .any(|k| matches!(k, RecoveryEventKind::Injected(_))),
            "{case}: phantom injection on a clean run:\n{}",
            r0.recovery
        );
        for k in 0..NEV {
            assert!(
                (r0.eigenvalues[k].to_f64() - reference.eigenvalues[k].to_f64()).abs() < 1e-7,
                "{case}: lambda_{k} drifted across grids"
            );
        }

        // --- fault leg: recovers to the same answer or fails typed ---
        let case = format!("{case} faulted");
        let results = solve_on(&h, &case_params(Some(FAULT)), shape);
        let oks = results.iter().filter(|r| r.is_ok()).count();
        assert!(
            oks == 0 || oks == results.len(),
            "{case}: ranks disagree on the outcome"
        );
        let mut fired = 0usize;
        for r in &results {
            let log = match r {
                Ok(r) => {
                    assert!(r.converged, "{case}: Ok but unconverged");
                    for k in 0..NEV {
                        assert!(
                            (r.eigenvalues[k].to_f64() - reference.eigenvalues[k].to_f64()).abs()
                                < 1e-7,
                            "{case}: faulted lambda_{k} drifted"
                        );
                    }
                    &r.recovery
                }
                Err(e) => &e.recovery,
            };
            fired += log
                .events
                .iter()
                .filter(|e| matches!(e.kind, RecoveryEventKind::Injected(_)))
                .count();
        }
        assert!(fired > 0, "{case}: campaign never fired — dead trigger");
    }
}

/// All ranks of one SPMD run must agree bitwise on every world-replicated
/// output.
fn check_ranks_agree<T: Scalar>(results: &[ChaseResult<T>], case: &str) {
    let r0 = &results[0];
    for (rank, r) in results.iter().enumerate().skip(1) {
        assert_eq!(r.eigenvalues, r0.eigenvalues, "{case}: rank {rank} eigs");
        assert_eq!(r.residuals, r0.residuals, "{case}: rank {rank} residuals");
        assert_eq!(r.iterations, r0.iterations, "{case}: rank {rank} iters");
        assert_eq!(r.matvecs, r0.matvecs, "{case}: rank {rank} matvecs");
        assert_eq!(r.recovery, r0.recovery, "{case}: rank {rank} recovery");
    }
}

/// Serve warm-start column: the matrix problem scale, run as a two-step
/// `chase-serve` session. Step 0 of the warm chain is bitwise identical to
/// the cache-disabled ablation (no cache to draw on yet); step 1 warm-starts,
/// lands on the same spectrum within tolerance, and spends strictly fewer
/// MatVecs than its cold twin.
#[test]
fn matrix_serve_warm_start_column() {
    let chain = || -> Vec<JobSpec<C64>> {
        (0..2)
            .map(|step| {
                let p = params(NEV, NEX, 1e-8);
                JobSpec::new(
                    format!("m{step}"),
                    MatrixSource::Generated(GenSpec {
                        n: N,
                        spectrum: SpectrumKind::Uniform,
                        seed: 7,
                        perturb_steps: step,
                        eps: 1e-3,
                    }),
                    p,
                )
                .in_session("matrix", step)
            })
            .collect()
    };
    let drain = |cache_bytes: Option<usize>| -> Vec<(usize, WarmKind, Vec<u64>, u64)> {
        let mut cfg = SchedulerConfig::default();
        if let Some(b) = cache_bytes {
            cfg.cache_bytes = b;
        }
        let mut sched: Scheduler<C64> = Scheduler::new(cfg);
        for j in chain() {
            sched.submit(j).expect("admission");
        }
        let mut rows: Vec<_> = sched
            .drain()
            .iter()
            .map(|r| {
                let out = r.solve().expect("session step done");
                let bits: Vec<u64> = out.eigenvalues.iter().map(|v| v.to_bits()).collect();
                (r.session.as_ref().unwrap().step, r.warm, bits, out.matvecs)
            })
            .collect();
        rows.sort_by_key(|(step, ..)| *step);
        rows
    };
    let warm = drain(None);
    let cold = drain(Some(0));
    assert_eq!(warm[0].1, WarmKind::Cold, "step 0 has no cache to draw on");
    assert_eq!(
        warm[0].2, cold[0].2,
        "step 0 must match the ablation bitwise"
    );
    assert_eq!(warm[1].1, WarmKind::Warm, "step 1 must warm-start");
    assert_eq!(cold[1].1, WarmKind::Cold);
    for (k, (w, c)) in warm[1].2.iter().zip(&cold[1].2).enumerate() {
        let (w, c) = (f64::from_bits(*w), f64::from_bits(*c));
        assert!(
            (w - c).abs() < 1e-6,
            "lambda_{k}: warm {w} vs cold {c} beyond tolerance"
        );
    }
    assert!(
        warm[1].3 < cold[1].3,
        "warm step must spend strictly fewer MatVecs ({} vs {})",
        warm[1].3,
        cold[1].3
    );
}

/// The rank-crash column: world rank 1 crashes mid-filter at iteration 2;
/// the survivors agree on the death, shrink 4 -> 3 ranks, restore the
/// latest checkpoint and converge to the clean run's eigenpairs — at
/// strictly fewer surviving-rank communication events than a from-scratch
/// restart on the shrunk grid has used at the same iteration, with the
/// crash→shrink→restore trail on the recovery log, bitwise identical across
/// survivors and across reruns.
const CRASH_FAULT: &str = "seed=11;rank-crash@iter=2,region=filter,rank=1";
const VICTIM: usize = 1;

fn elastic_on<T>(
    h: &chase_linalg::Matrix<T>,
    p: &Params,
    shape: GridShape,
) -> SpmdOutput<Option<ElasticOutcome<T>>>
where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    run_grid(shape, move |ctx| {
        try_solve_elastic(ctx, Backend::Nccl, |c| DistHerm::from_global(h, c), p)
    })
}

/// Comm events on a survivor's ledger up to where its last attempt (the one
/// after the grid shrink) has finished `iters` outer iterations, or all of
/// them if it ran no more than that. An iteration is over — its checkpoint
/// commit included — where the ledger comes back to the filter from a stage
/// behind it.
fn comm_events_through(ledger: &Ledger, iters: usize) -> usize {
    let comm: Vec<_> = ledger
        .events()
        .iter()
        .filter(|e| e.kind.category() == Category::Comm)
        .collect();
    let shrink = comm
        .iter()
        .position(|e| matches!(e.kind, EventKind::GridShrink { .. }))
        .expect("a survivor's ledger holds the shrink");
    let mut finished = 0;
    for at in shrink + 1..comm.len() {
        let behind = !matches!(comm[at - 1].region, Region::Filter | Region::Lanczos);
        if behind && comm[at].region == Region::Filter {
            finished += 1;
            if finished == iters {
                return at;
            }
        }
    }
    comm.len()
}

fn crash_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "chase-crash-{}-{}",
        tag.replace(['/', ' '], "_"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn run_crash_block<T>(label: &str)
where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    let (h, _) = problem::<T>(N, 7);
    for (p, q) in [(2, 2), (1, 4)] {
        let shape = GridShape::new(p, q);
        let case = format!("{label} {p}x{q} crash");

        // Clean comparator on the original grid.
        let clean = expect_all_ok(solve_on(&h, &case_params(None), shape), &case).remove(0);
        assert!(clean.converged, "{case}: clean comparator diverged");

        let crash_params = |dir: Option<&std::path::Path>| -> Params {
            let mut cp = case_params(Some(CRASH_FAULT));
            cp.checkpoint_dir = dir.map(|d| d.display().to_string());
            cp
        };

        // Checkpointed elastic run (plus an identical rerun for replay).
        let mut runs = Vec::new();
        for rerun in 0..2 {
            let dir = crash_dir(&format!("{case}-{rerun}"));
            let out = elastic_on(&h, &crash_params(Some(&dir)), shape);
            let _ = std::fs::remove_dir_all(&dir);
            runs.push(out);
        }
        // From-scratch comparator: same crash, no checkpoints to restore.
        let scratch = elastic_on(&h, &crash_params(None), shape);

        for (out, what) in [(&runs[0].results, "ckpt"), (&scratch.results, "scratch")] {
            assert!(
                out[VICTIM].is_none(),
                "{case} [{what}]: the victim must leave the computation"
            );
            let survivors: Vec<&ElasticOutcome<T>> = out
                .iter()
                .enumerate()
                .filter(|(r, _)| *r != VICTIM)
                .map(|(_, o)| o.as_ref().expect("survivor must finish"))
                .collect();
            assert_eq!(survivors.len(), p * q - 1, "{case} [{what}]: survivors");
            let results: Vec<ChaseResult<T>> = survivors
                .iter()
                .map(|o| {
                    assert_eq!(o.attempts, 2, "{case} [{what}]: one crash, one resume");
                    assert_eq!(
                        o.shape,
                        GridShape::squarest(p * q - 1),
                        "{case} [{what}]: shrunk shape"
                    );
                    o.result.clone().unwrap_or_else(|e| {
                        panic!("{case} [{what}]: survivor failed: {e}\n{}", e.recovery)
                    })
                })
                .collect();
            check_ranks_agree(&results, &format!("{case} [{what}]"));
            let r0 = &results[0];
            assert!(r0.converged, "{case} [{what}]: resumed solve diverged");
            for res in &r0.residuals {
                assert!(
                    res.to_f64() < TOL * r0.norm_h,
                    "{case} [{what}]: residual above tolerance after resume"
                );
            }
            for k in 0..NEV {
                assert!(
                    (r0.eigenvalues[k].to_f64() - clean.eigenvalues[k].to_f64()).abs() < 1e-7,
                    "{case} [{what}]: lambda_{k} drifted after crash recovery"
                );
            }
            // The full crash→shrink→restore trail, in order.
            let trail: Vec<usize> = r0
                .recovery
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match &e.kind {
                    RecoveryEventKind::Injected(rec) if rec.rank == VICTIM => Some(i),
                    RecoveryEventKind::RankDead { dead } => {
                        assert_eq!(dead, &vec![VICTIM], "{case} [{what}]: agreed dead set");
                        Some(i)
                    }
                    RecoveryEventKind::GridShrunk { from, to } => {
                        assert_eq!((from.p, from.q), (p, q));
                        assert_eq!(to.ranks(), p * q - 1);
                        Some(i)
                    }
                    RecoveryEventKind::CheckpointRestored { iter, .. } => {
                        if what == "ckpt" {
                            assert!(*iter > 0, "{case}: must restore a real snapshot");
                        } else {
                            assert_eq!(*iter, 0, "{case}: scratch restarts cold");
                        }
                        Some(i)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(
                trail.len(),
                4,
                "{case} [{what}]: crash→shrink→restore trail incomplete:\n{}",
                r0.recovery
            );
            assert!(
                trail.windows(2).all(|w| w[0] < w[1]),
                "{case} [{what}]: trail out of order"
            );
        }

        // Bitwise replay: two identical elastic runs, identical everything.
        for (a, b) in runs[0].results.iter().zip(&runs[1].results) {
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
                    assert_eq!(ra.eigenvalues, rb.eigenvalues, "{case}: replay eigs");
                    assert_eq!(ra.residuals, rb.residuals, "{case}: replay residuals");
                    assert_eq!(ra.recovery, rb.recovery, "{case}: replay recovery log");
                    assert_eq!(a.attempts, b.attempts, "{case}: replay attempts");
                    // Note: `comm_events` is deliberately NOT compared —
                    // whether a survivor's ledger recorded the collective it
                    // was parked in when the crash unwound it is a wall-clock
                    // race (+-1). The algorithmic outputs above are bitwise.
                }
                _ => panic!("{case}: replay changed who survived"),
            }
        }

        // The grid driver picks the elastic path by itself from the crash
        // spec: same survivors, same bits, same trail as the direct call.
        let driven = solve_grid(&h, &crash_params(None), &GridRun::new(shape));
        for (rank, (d, s)) in driven.results.iter().zip(&scratch.results).enumerate() {
            match (d, s) {
                (None, None) => {}
                (Some(d), Some(s)) => {
                    let (rd, rs) = (d.as_ref().unwrap(), s.result.as_ref().unwrap());
                    assert_eq!(rd.eigenvalues, rs.eigenvalues, "{case}: driver eigs");
                    assert_eq!(rd.residuals, rs.residuals, "{case}: driver residuals");
                    assert_eq!(
                        rd.eigenvectors_local().as_slice(),
                        rs.eigenvectors_local().as_slice(),
                        "{case}: driver vectors"
                    );
                    assert_eq!(rd.recovery, rs.recovery, "{case}: driver recovery log");
                }
                _ => panic!("{case}: rank {rank} survived one run and not the other"),
            }
        }

        // Checkpoint restore must beat the from-scratch restart on
        // surviving-rank communication volume: it skips the re-run
        // iterations and the Lanczos re-estimation, and pays a commit per
        // iteration. Counted at equal progress — through the last iteration
        // both runs reach, which is the whole of both ledgers whenever they
        // iterate equally long — because how many iterations a resumed solve
        // needs from a given state is not something a checkpoint controls.
        // How long the resumed solve goes on is bounded on its own: never
        // longer than the worse of the uncrashed solve and the restarted one.
        let survivors = runs[0].results.iter().zip(&scratch.results);
        for (rank, (c, s)) in survivors.enumerate() {
            if let (Some(c), Some(s)) = (c, s) {
                let (rc, rs) = (c.result.as_ref().unwrap(), s.result.as_ref().unwrap());
                assert!(
                    rc.iterations <= rs.iterations.max(clean.iterations),
                    "{case}: rank {rank}: resumed from a snapshot, {} iterations against {} \
                     from scratch and {} uncrashed",
                    rc.iterations,
                    rs.iterations,
                    clean.iterations
                );
                // The snapshot's iterations are the ones the resumed attempt
                // does not run.
                let upto = rc.iterations.min(rs.iterations);
                let restored = rc.iterations - rc.stats.len();
                assert!(0 < restored && restored < upto && rs.stats.len() == rs.iterations);
                let resumed = comm_events_through(&runs[0].ledgers[rank], upto - restored);
                let restarted = comm_events_through(&scratch.ledgers[rank], upto);
                if rc.iterations == rs.iterations {
                    assert_eq!((resumed, restarted), (c.comm_events, s.comm_events));
                }
                assert!(
                    resumed < restarted,
                    "{case}: rank {rank}: through iteration {upto} the checkpointed resume \
                     ({resumed}) must use strictly fewer comm events than a from-scratch \
                     restart ({restarted})"
                );
            }
        }
    }
}

#[test]
fn matrix_rank_crash_f64_full() {
    run_crash_block::<f64>("f64/full");
}

#[test]
fn matrix_rank_crash_c64_full() {
    run_crash_block::<C64>("C64/full");
}

#[test]
fn matrix_f64_full() {
    run_block::<f64>("f64/full");
}

#[test]
fn matrix_c64_full() {
    run_block::<C64>("C64/full");
}
