//! The one SPMD driver around a solve: spawn the grid, install what the
//! run asks for on every rank, slice `H`, resolve the plan, solve, uninstall,
//! gather. The CLI, the serve scheduler, `chase check`, the bench harness
//! and the end-to-end tests all call [`solve_grid`]; none of them touches a
//! seam or a recorder itself.

use crate::db::{PlanDb, PlanEntry};
use crate::plan_from_entry;
use crate::trial::{plan_key, tune_entry, TuneOptions, TuneOutcome};
use chase_comm::{run_grid, Distribution, GridShape, Ledger, Reduce, SchedulePolicy, TraceHook};
use chase_core::{
    lms::solve_lms, solve_dist, try_solve_elastic, ChaseError, ChaseErrorKind, ChaseResult,
    DistHerm, Params, WarmStart,
};
use chase_device::Backend;
use chase_linalg::{Matrix, Scalar};
use chase_trace::{Trace, TraceRecorder};
use std::sync::Arc;

/// How a solve gets its measured plan, decided by a plan-DB lookup.
///
/// The lookup happens once, *before* the SPMD region, and every rank is
/// handed the answer: a lookup per rank could straddle another worker's
/// insert into a shared DB, leaving some ranks tuning (collectives) and
/// others not — a deadlocked grid.
#[derive(Debug, Clone)]
pub enum PlanChoice {
    /// The DB has the key: apply the stored entry, zero trials.
    Hit(PlanEntry),
    /// A miss: run the trials inside the solve's own grid, so they show up
    /// as `tune` spans in the solve's own trace.
    Tune(TuneOptions),
}

impl PlanChoice {
    /// Look up the key of an `n x n` solve of scalar `T` on `shape`.
    pub fn lookup<T: Scalar>(
        db: &PlanDb,
        opts: &TuneOptions,
        shape: GridShape,
        n: usize,
        nev: usize,
        nex: usize,
    ) -> Self {
        let key = plan_key::<T>(&opts.machine, shape.p, shape.q, n, nev, nex);
        match db.get(&key) {
            Some(e) => PlanChoice::Hit(e.clone()),
            None => PlanChoice::Tune(opts.clone()),
        }
    }
}

/// What a [`solve_grid`] run is configured with, besides the problem.
pub struct GridRun<'a, T: Scalar> {
    pub shape: GridShape,
    pub backend: Backend,
    /// How `H` is dealt onto the grid.
    pub dist: Distribution,
    /// Approximate solution of the previous problem of a sequence.
    pub warm: Option<&'a WarmStart<T>>,
    /// Record one [`chase_trace::RankTrace`] per rank.
    pub trace: bool,
    /// Measured plan to solve under; `None` leaves `params` as they are.
    pub plan: Option<&'a PlanChoice>,
    /// Schedule-exploration policy gating every collective deposit.
    pub policy: Option<Arc<dyn SchedulePolicy>>,
    /// Arm the order-sensitive fold (`chase check --canary`).
    pub canary: bool,
}

impl<T: Scalar> GridRun<'_, T> {
    /// A plain cold solve on `shape`: device-direct backend, block
    /// distribution, nothing installed.
    pub fn new(shape: GridShape) -> Self {
        Self {
            shape,
            backend: Backend::Nccl,
            dist: Distribution::Block,
            warm: None,
            trace: false,
            plan: None,
            policy: None,
            canary: false,
        }
    }
}

/// Everything a [`solve_grid`] run produced, in world-rank order.
pub struct GridOutcome<T: Scalar> {
    /// `None` for a rank that left an elastic run (the crash victim, a
    /// survivor idled out by the shrunk shape).
    pub results: Vec<Option<Result<ChaseResult<T>, ChaseError>>>,
    pub ledgers: Vec<Ledger>,
    /// Every rank's stream (those of ranks that left included) when
    /// [`GridRun::trace`] was set.
    pub trace: Option<Trace>,
    /// The plan the solve ran under: the stored entry on a
    /// [`PlanChoice::Hit`] (no residual rows), the fresh measurement on a
    /// [`PlanChoice::Tune`].
    pub tuned: Option<TuneOutcome>,
}

impl<T: Scalar> GridOutcome<T> {
    /// The results of the ranks that saw the solve through, or the run's
    /// failure: the error of the lowest-ranked surviving rank that has one
    /// (a rank-local error fails the run even when rank 0 returned `Ok`),
    /// and `RankDead { dead: [] }` when nobody is left to speak — the
    /// victim of a 1x1 grid has no survivors to shrink onto.
    pub fn into_solved(self) -> Result<Vec<ChaseResult<T>>, ChaseError> {
        let solved: Vec<_> = self
            .results
            .into_iter()
            .flatten()
            .collect::<Result<_, _>>()?;
        if solved.is_empty() {
            let nobody = ChaseErrorKind::RankDead { dead: Vec::new() };
            return Err(ChaseError::outside_loop(nobody));
        }
        Ok(solved)
    }
}

/// Solve `h` SPMD on `run.shape`.
///
/// Per rank, in this order: schedule policy, canary and trace recorder go
/// in (before the first collective, so the bounds estimate is gated and
/// traced); `H` is sliced; the plan is resolved and applied with its
/// measured hook; the solve runs; everything comes out again before the
/// rendezvous teardown.
///
/// Parameters that plan a rank crash run under [`try_solve_elastic`], which
/// re-slices `H` for every grid it shrinks to and takes neither `run.warm`
/// nor `run.plan`: both are laid out for the pre-crash grid.
/// [`Backend::Lms`] runs the legacy-layout baseline, [`solve_lms`].
pub fn solve_grid<T>(h: &Matrix<T>, params: &Params, run: &GridRun<'_, T>) -> GridOutcome<T>
where
    T: Scalar + Reduce,
    T::Real: Reduce,
{
    let elastic = params.plans_rank_crash();
    let out = run_grid(run.shape, |ctx| {
        let rec = run
            .trace
            .then(|| Arc::new(TraceRecorder::new(ctx.world_rank())));
        let installed = ctx.seams.scoped(|s| {
            s.schedule = run.policy.clone();
            s.order_canary = run.canary;
            s.trace = rec.clone().map(|r| r as Arc<dyn TraceHook>);
        });
        let slice = |c: &chase_comm::RankCtx| DistHerm::from_global_dist(h, c, run.dist);
        let (result, tuned) = if elastic {
            let outcome = try_solve_elastic(ctx, run.backend, slice, params);
            (outcome.map(|o| o.result), None)
        } else {
            let mut dh = slice(ctx);
            let tuned = run.plan.map(|choice| match choice {
                PlanChoice::Hit(entry) => TuneOutcome {
                    entry: entry.clone(),
                    residuals: Vec::new(),
                },
                PlanChoice::Tune(opts) => tune_entry(ctx, &mut dh, params.nev, params.nex, opts),
            });
            let planned = tuned.as_ref().map(|t| {
                // Inside `installed`'s scope: its drop takes the hook out.
                ctx.set_tune_hook(Some(Arc::new(t.entry.clone())));
                let mut p = params.clone();
                p.apply_plan(&plan_from_entry(&t.entry));
                p
            });
            let params = planned.as_ref().unwrap_or(params);
            let result = if run.backend == Backend::Lms {
                solve_lms(ctx, dh, params, run.warm.map(|w| &w.v0))
            } else {
                solve_dist(ctx, run.backend, dh, params, run.warm)
            };
            (Some(result), tuned)
        };
        drop(installed);
        (result, rec.map(|r| r.finish()), tuned)
    });
    let mut results = Vec::new();
    let mut ranks = Vec::new();
    let mut tuned = None;
    for (result, rank_trace, rank_tuned) in out.results {
        results.push(result);
        ranks.extend(rank_trace);
        tuned = tuned.or(rank_tuned);
    }
    GridOutcome {
        results,
        ledgers: out.ledgers,
        trace: run.trace.then_some(Trace { ranks }),
        tuned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::kind_to_json;
    use chase_core::solve_serial;
    use chase_matgen::{dense_with_spectrum, Spectrum};

    fn problem() -> (Matrix<f64>, Params) {
        let h = dense_with_spectrum::<f64>(&Spectrum::uniform(40, -1.0, 1.0), 7);
        let mut p = Params::new(4, 3);
        p.tol = 1e-9;
        (h, p)
    }

    /// What `chase check` keeps of a ledger: everything but the wall clock.
    fn projection(ledger: &Ledger) -> Vec<String> {
        let events = ledger.events().iter();
        events
            .map(|e| format!("{}|{:?}|{:?}", kind_to_json(&e.kind), e.region, e.window))
            .collect()
    }

    #[test]
    fn a_1x1_grid_equals_the_serial_solve_bit_for_bit() {
        let (h, p) = problem();
        let serial = solve_serial(&h, &p, None).expect("serial solve");
        // `solve_serial` keeps its ledger to itself; this is its body.
        let ctx = chase_comm::solo_ctx();
        solve_dist(
            &ctx,
            Backend::Nccl,
            DistHerm::from_global(&h, &ctx),
            &p,
            None,
        )
        .unwrap();

        let mut out = solve_grid(&h, &p, &GridRun::new(GridShape::new(1, 1)));
        assert!(out.trace.is_none() && out.tuned.is_none());
        assert_eq!(
            projection(&out.ledgers[0]),
            projection(&ctx.ledger_snapshot())
        );
        let grid = out
            .results
            .remove(0)
            .expect("nobody leaves")
            .expect("grid solve");
        assert_eq!(grid.eigenvalues, serial.eigenvalues);
        assert_eq!(grid.residuals, serial.residuals);
        assert_eq!(
            grid.eigenvectors_local.as_slice(),
            serial.eigenvectors_local.as_slice()
        );
        assert_eq!(
            (grid.iterations, grid.matvecs),
            (serial.iterations, serial.matvecs)
        );
    }

    #[test]
    fn one_failed_rank_fails_the_run_even_when_rank_zero_is_ok() {
        let (h, p) = problem();
        let run = GridRun::new(GridShape::new(1, 2));
        let healthy = solve_grid(&h, &p, &run);
        assert_eq!(healthy.into_solved().expect("both ranks solved").len(), 2);

        let mut out = solve_grid(&h, &p, &run);
        let failure = ChaseError {
            kind: ChaseErrorKind::UnrecoverableNonFinite,
            iter: 3,
            recovery: chase_core::RecoveryLog::default(),
        };
        out.results[1] = Some(Err(failure));
        assert!(out.results[0].as_ref().is_some_and(|r| r.is_ok()));
        let err = out.into_solved().expect_err("rank 1 failed");
        assert!(matches!(err.kind, ChaseErrorKind::UnrecoverableNonFinite));
        assert_eq!(err.iter, 3);

        // A rank that left does not fail the run; nobody left to speak does.
        let mut out = solve_grid(&h, &p, &run);
        out.results[0] = None;
        assert_eq!(out.into_solved().expect("rank 1 speaks").len(), 1);
        let mut out = solve_grid(&h, &p, &run);
        out.results.fill_with(|| None);
        let err = out.into_solved().expect_err("no survivor");
        assert!(matches!(err.kind, ChaseErrorKind::RankDead { dead } if dead.is_empty()));
        assert_eq!(err.iter, 0);
    }
}
