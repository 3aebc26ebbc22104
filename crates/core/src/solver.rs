//! The main ChASE iteration with the novel parallelization scheme
//! (Algorithm 2 of the paper).
//!
//! Per outer iteration: Chebyshev-filter the active columns of `C`
//! (C-layout), orthonormalize `C` with the flexible 1D-CAQR inside each
//! column communicator, redistribute `C2 -> B2`, form the Rayleigh–Ritz
//! quotient with one row-communicator allreduce, diagonalize it redundantly,
//! back-transform locally, compute residuals in B-layout, then deflate and
//! lock converged columns. The only replicated object is the `ne x ne`
//! quotient `A` — the `O(N ne)` redundancy of v1.2 is gone (Section 3.1).
//!
//! `Chase::run` is that loop and `Chase::iterate` one pass through its
//! stages, in the paper's order. An iteration leaves the straight path in
//! one of two ways, and each is handled in one place: `Step::Restart` (the
//! replicas diverged, or Ritz values/residuals regressed to non-finite —
//! `Chase::restart` rolls back to the last locked checkpoint) and `Abort`
//! (`Chase::abort` turns it into the typed [`ChaseError`]).

use crate::ckpt::{CkptError, Snapshot};
use crate::condest::cond_est;
use crate::filter::{chebyshev_filter_with, FilterBounds, FilterError, FilterExec};
use crate::hemm::{hemm_c_to_b, matvec_replicated};
use crate::layout::{DistHerm, MemoryReport, RowDist};
use crate::params::{Params, MAX_DEG};
use crate::qr::{qr_ladder, QrVariant};
use crate::result::{
    ChaseError, ChaseErrorKind, ChaseResult, IterStats, RecoveryEventKind, RecoveryLog,
};
use crate::subspace::{permute_cols, Measured, Subspace};
use crate::warm::{initial_block, WarmStart};
use chase_comm::{RankCtx, Reduce, Region};
use chase_device::{Backend, Device};
use chase_faults::FaultPlan;
use chase_linalg::{Matrix, Op, RealScalar, Scalar, SpectralBounds};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use std::sync::Arc;

/// Relative `b_sup` inflation applied to cached warm-start bounds: a
/// perturbed Hamiltonian's spectrum may poke slightly past the previous
/// upper estimate, and the Chebyshev filter amplifies anything outside
/// `[mu_ne, b_sup]` — 1% of the spectral span is cheap insurance.
const WARM_BOUND_MARGIN: f64 = 0.01;

/// Lanczos steps per run of the spectral estimate.
const LANCZOS_STEPS: usize = 25;

/// Independent Lanczos runs whose Ritz values feed the DoS quantile for
/// `mu_ne`.
const LANCZOS_RUNS: usize = 4;

/// Distributed spectral-bound estimation (Algorithm 2, line 1):
/// [`LANCZOS_RUNS`] Lanczos runs of [`LANCZOS_STEPS`] iterations on the
/// distributed operator, advanced as one block (two collectives per step
/// whatever the number of runs), with a DoS quantile for `mu_ne`. Identical
/// output on every rank.
///
/// A non-finite entry in `H` makes the estimate fail as
/// [`ChaseErrorKind::BadSpectrum`]; the quantities it is detected on are
/// replicated, so every rank takes that exit, after the same collectives.
pub fn estimate_bounds_dist<T: Scalar + Reduce>(
    dev: &Device<'_>,
    h: &DistHerm<T>,
    ne: usize,
    params: &Params,
) -> Result<SpectralBounds<T::Real>, ChaseError> {
    lanczos_bounds(dev, h, ne, params.seed, LANCZOS_STEPS, LANCZOS_RUNS)
}

/// [`estimate_bounds_dist`] with the shape of the estimate as arguments.
fn lanczos_bounds<T: Scalar + Reduce>(
    dev: &Device<'_>,
    h: &DistHerm<T>,
    ne: usize,
    seed: u64,
    steps: usize,
    runs: usize,
) -> Result<SpectralBounds<T::Real>, ChaseError> {
    dev.set_region(Region::Lanczos);
    let ctx = dev.ctx();
    let b_dist = RowDist::b_layout(h.n, ctx.shape, h.dist);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1a9c205);
    let runs = chase_linalg::lanczos_block::<T, _, _>(
        h.n,
        steps,
        runs,
        |x| matvec_replicated(dev, ctx, h, &b_dist, x),
        &mut rng,
    );
    let detail = match runs.map(|runs| SpectralBounds::from_runs(h.n, ne, &runs)) {
        Ok(b) if [b.mu_1, b.mu_ne, b.b_sup].iter().all(|v| v.is_finite_r()) => return Ok(b),
        Ok(b) => format!("Lanczos bounds {b:?} are not finite"),
        Err(e) => format!("Lanczos estimate failed: {e}"),
    };
    Err(ChaseError::outside_loop(ChaseErrorKind::BadSpectrum {
        detail: format!("{detail} (non-finite entry in H?)"),
    }))
}

/// Lightweight checkpoint of the locked eigenpairs: enough to roll the
/// converged work back after a detected corruption without replaying the
/// whole solve. Updated whenever new columns lock.
struct Checkpoint<T: Scalar> {
    locked: usize,
    /// Local rows of the locked columns (`n_r x locked`).
    c: Matrix<T>,
    ritzv: Vec<T::Real>,
    resd: Vec<T::Real>,
}

impl<T: Scalar> Checkpoint<T> {
    /// The locked prefix of `sub`, with its columns of the local iterate `c`.
    fn of(c: &Matrix<T>, sub: &Subspace<T::Real>) -> Self {
        Self {
            locked: sub.locked,
            c: c.copy_cols(0..sub.locked),
            ritzv: sub.ritzv[..sub.locked].to_vec(),
            resd: sub.resd[..sub.locked].to_vec(),
        }
    }
}

/// Rollback-restarts tolerated before declaring the run lost.
const MAX_RESTARTS: usize = 3;

/// Where a solve stands: the work done and the recovery trail so far. All
/// zero for a fresh solve; a checkpoint restore fills in the work done
/// before the snapshot (so elastic runs report true totals) and the elastic
/// driver the crash→shrink→restore trail that led to this attempt (so
/// `ChaseResult::recovery` tells the whole story).
#[derive(Default)]
struct Progress {
    /// The outer iteration under way, or the last one finished.
    iter: usize,
    matvecs: u64,
    recovery: RecoveryLog,
    restarts: usize,
    /// Recovery events already mirrored into the trace counter stream.
    traced: usize,
}

impl Progress {
    /// Log a recovery event against the current iteration.
    fn note(&mut self, kind: RecoveryEventKind) {
        self.recovery.push(self.iter, kind);
    }

    /// Mirror the recovery events logged since the last call into the trace.
    fn trace_new_events(&mut self, ctx: &RankCtx) {
        let new = self.recovery.events.len() - self.traced;
        if new > 0 {
            ctx.trace_counter("recovery_events", new as u64);
            self.traced += new;
        }
    }
}

/// How an iteration that did not abort ended.
enum Step {
    /// Through every stage.
    Done(IterStats),
    /// Abandoned for the detected reason: roll back and restart the active
    /// subspace ([`Chase::restart`]).
    Restart(RecoveryEventKind),
}

/// Why the solve gives up ([`Chase::abort`] makes the [`ChaseError`]).
enum Abort {
    /// Non-finite data outlived the re-filter attempts or the restarts.
    NonFinite,
    /// A filter call refused its interval or degrees.
    Filter(FilterError),
    /// The cross-check of the returned pairs failed.
    Verification(String),
}

impl From<FilterError> for Abort {
    fn from(e: FilterError) -> Self {
        Abort::Filter(e)
    }
}

/// Where a solve begins.
pub(crate) enum Start<'a, T: Scalar> {
    /// Seeded random block, Lanczos bounds.
    Cold,
    /// Approximate solution of the previous problem of a sequence.
    Warm(&'a WarmStart<T>),
    /// An attempt of the elastic driver: `prelude` is the
    /// crash→shrink→restore trail so far (empty on the first attempt),
    /// `snapshot` the checkpoint to continue from on the shrunk grid
    /// (`None`: start at iteration 0).
    Resume {
        snapshot: Option<&'a Snapshot>,
        prelude: RecoveryLog,
    },
}

/// Solver state for one rank.
pub struct Chase<'d, 'c, T: Scalar + Reduce>
where
    T::Real: Reduce,
{
    dev: &'d Device<'c>,
    params: Params,
    h: DistHerm<T>,
    c: Matrix<T>,
    c2: Matrix<T>,
    b: Matrix<T>,
    b2: Matrix<T>,
    sub: Subspace<T::Real>,
    c_dist: RowDist,
    /// Cached spectral bounds from a warm start; when set the Lanczos
    /// estimation phase is skipped.
    warm_bounds: Option<SpectralBounds<T::Real>>,
    /// The loop starts at `progress.iter + 1`.
    progress: Progress,
    /// The rollback target of [`Chase::restart`].
    ckpt: Checkpoint<T>,
}

impl<'d, 'c, T: Scalar + Reduce> Chase<'d, 'c, T>
where
    T::Real: Reduce,
{
    /// Allocate buffers for the given distributed matrix, seeding the
    /// search space from `warm` when given and from the seeded random block
    /// (identical across ranks) otherwise.
    ///
    /// The warm block may have any `1 <= k <= ne` columns; the remaining
    /// `ne - k` search directions are drawn from the random block, so
    /// callers never pad by hand. Cached bounds, when present, replace the
    /// Lanczos estimation phase (with a `b_sup` safety margin). Panics on
    /// parameters or a warm block that do not fit `h`; [`solve_dist`]
    /// rejects both as a typed error first.
    pub fn new(
        dev: &'d Device<'c>,
        h: DistHerm<T>,
        params: Params,
        warm: Option<&WarmStart<T>>,
    ) -> Self {
        let v0 = warm.map(|w| &w.v0);
        if let Err(refused) = check_input(&params, h.n, v0) {
            panic!("{refused}");
        }
        let ne = params.ne();
        let ctx = dev.ctx();
        let c_dist = RowDist::c_layout(h.n, ctx.shape, h.dist);

        let c = initial_block(h.n, ne, params.seed, v0, h.row_set.iter());
        let c2 = c.clone();
        let b = Matrix::zeros(h.n_c(), ne);
        let b2 = Matrix::zeros(h.n_c(), ne);
        // `run` sets the Ritz values and degrees once the bounds are known.
        let sub = Subspace::new(ne, <T::Real as Scalar>::zero(), 0);
        let ckpt = Checkpoint::of(&c, &sub);
        Self {
            dev,
            h,
            c,
            c2,
            b,
            b2,
            sub,
            c_dist,
            warm_bounds: warm.and_then(|w| w.inflated_bounds(WARM_BOUND_MARGIN)),
            params,
            progress: Progress::default(),
            ckpt,
        }
    }

    /// Restore solver state from a checkpoint [`Snapshot`], typically onto
    /// a *different* (shrunk) grid than the one that wrote it: the global
    /// iterate is re-sliced into this rank's C-layout row set, and the
    /// Lanczos phase is skipped via the snapshot's spectral bounds. The
    /// subsequent `run` resumes at `snapshot.iter + 1` with Ritz values,
    /// residuals, degrees, and the locked prefix intact.
    fn apply_snapshot(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        let ne = self.params.ne();
        snap.check_problem::<T>(self.h.n, self.params.nev, ne, self.params.seed)?;
        if snap.locked > ne {
            return Err(CkptError::Field {
                field: "locked",
                detail: format!("{} exceeds ne={ne}", snap.locked),
            });
        }
        let c_global = snap.c_global::<T>()?;
        self.c = c_global.select_rows(self.h.row_set.iter());
        self.c2 = self.c.clone();
        for (dst, bits) in [
            (&mut self.sub.ritzv, &snap.ritzv_bits),
            (&mut self.sub.resd, &snap.resd_bits),
        ] {
            for (dst, &bits) in dst.iter_mut().zip(bits) {
                *dst = T::Real::from_f64_r(f64::from_bits(bits));
            }
        }
        for (dst, &d) in self.sub.degs.iter_mut().zip(&snap.degs) {
            *dst = d as usize;
        }
        self.sub.locked = snap.locked;
        self.warm_bounds = Some(snap.bounds::<T::Real>());
        self.progress.iter = snap.iter;
        self.progress.matvecs = snap.matvecs;
        // The restored locked prefix already is a known-good state.
        self.ckpt = Checkpoint::of(&self.c, &self.sub);
        Ok(())
    }

    /// Eq. (2) audit: bytes actually allocated by this rank.
    pub fn memory_report(&self) -> MemoryReport {
        MemoryReport {
            h_bytes: self.h.local.bytes(),
            c_bytes: self.c.bytes() + self.c2.bytes(),
            b_bytes: self.b.bytes() + self.b2.bytes(),
            a_bytes: self.params.ne() * self.params.ne() * std::mem::size_of::<T>(),
            redundant_bytes: 0,
        }
    }

    /// The active (not yet locked) columns.
    fn active(&self) -> Range<usize> {
        self.sub.locked..self.params.ne()
    }

    /// The global `n x ne` block behind the C-layout buffer `local`, every
    /// rank of the column communicator joining. `on_ledger = false` gathers
    /// below the device layer: a diagnostic the cost model must not see.
    fn gather_c(&self, local: &Matrix<T>, on_ledger: bool) -> Matrix<T> {
        let comm = &self.dev.ctx().col_comm;
        let gathered = if on_ledger {
            self.dev.allgather(comm, local.as_slice())
        } else {
            comm.allgather(local.as_slice())
        };
        self.c_dist.assemble(&gathered, self.params.ne())
    }

    /// Redistribute `C2` (C-layout) into `B2` (B-layout): a single broadcast
    /// from the diagonal rank on square grids (Algorithm 2, line 14), an
    /// allgather + slice otherwise.
    fn update_b2(&mut self) {
        let ctx = self.dev.ctx();
        if ctx.shape.is_square() {
            let root = ctx.col; // rank (j, j) within column communicator j
            if ctx.row == root {
                debug_assert_eq!(self.c2.rows(), self.b2.rows());
                self.b2.as_mut_slice().copy_from_slice(self.c2.as_slice());
            }
            self.dev.bcast(&ctx.col_comm, self.b2.as_mut_slice(), root);
        } else {
            let full = self.gather_c(&self.c2, true);
            self.b2 = full.select_rows(self.h.col_set.iter());
        }
    }

    /// `B[:, cols] = H C[:, cols]`.
    fn h_times_c(&mut self, cols: Range<usize>) {
        hemm_c_to_b(
            self.dev,
            self.dev.ctx(),
            &self.h,
            &self.c,
            &mut self.b,
            cols.start,
            cols.len(),
            T::one(),
            T::zero(),
        );
    }

    /// `‖H c_j − lambda_j c_j‖` for `j` in `cols`, where `B` holds `H C` and
    /// `B2` the same columns of `C` in B-layout: `B -= lambda .* B2`
    /// column-wise, then one allreduce of the squared norms over the row
    /// communicator. `B[:, cols]` is overwritten with the residual vectors.
    fn residual_norms(&mut self, cols: Range<usize>, lambda: &[T::Real]) -> Vec<T::Real> {
        let mut nrm: Vec<T::Real> = Vec::with_capacity(cols.len());
        for (j, &lambda) in cols.zip(lambda) {
            let (bj, b2j) = (self.b.col_mut(j), self.b2.col(j));
            for (x, y) in bj.iter_mut().zip(b2j) {
                *x -= y.scale(lambda);
            }
            nrm.push(chase_linalg::blas1::nrm2_sqr(bj));
        }
        self.dev.allreduce_sum(&self.dev.ctx().row_comm, &mut nrm);
        nrm.into_iter().map(|v| v.sqrt_r()).collect()
    }

    /// Whether any rank of the world says `mine`: how a finding on one
    /// replica becomes the same exit on every rank.
    fn any_rank(&self, mine: bool) -> bool {
        let votes = if mine { 1.0f64 } else { 0.0 };
        self.dev.ctx().world.allreduce_scalar(votes) > 0.0
    }

    /// Fold any fault-injection records the device/comm layers produced
    /// since the last drain into the recovery log.
    fn drain_faults(&mut self) {
        if let Some(plan) = self.dev.fault_plan() {
            for r in plan.take_records() {
                self.progress.note(RecoveryEventKind::Injected(r));
            }
        }
    }

    /// Run the full Algorithm 2 loop with the detection/recovery guard
    /// layer. Returns a typed [`ChaseError`] (carrying the recovery log)
    /// instead of hanging or silently returning corrupt eigenpairs.
    fn run(mut self) -> Result<ChaseResult<T>, ChaseError> {
        let ne = self.params.ne();
        self.dev.ctx().trace_span_begin("solve", 0);

        // Warm starts reuse the previous solve's (inflated) bounds and skip
        // the Lanczos phase entirely — the sequence's second saving besides
        // the reduced filter degrees.
        let warm_started = self.warm_bounds.is_some();
        let mut bounds = match self.warm_bounds {
            Some(b) => b,
            None => estimate_bounds_dist(self.dev, &self.h, ne, &self.params)?,
        };
        let norm_h = bounds.mu_1.abs_r().max_r(bounds.b_sup.abs_r());
        if self.progress.iter == 0 {
            // A checkpoint resume keeps the restored values instead.
            self.sub = Subspace::new(ne, bounds.mu_1, self.params.init_deg());
        }

        let mut stats: Vec<IterStats> = Vec::new();
        let mut converged = false;
        for iter in (self.progress.iter + 1)..=self.params.max_iter {
            match self.iterate(iter, &mut bounds, norm_h) {
                Ok(Step::Done(row)) => stats.push(row),
                Ok(Step::Restart(cause)) => match self.restart(cause, bounds.mu_1) {
                    Ok(()) => continue,
                    Err(abort) => return Err(self.abort(abort)),
                },
                Err(abort) => return Err(self.abort(abort)),
            }
            if self.sub.locked >= self.params.nev {
                converged = true;
                break;
            }
        }
        self.finish(bounds, norm_h, stats, converged, warm_started)
    }

    /// One outer iteration (Algorithm 2, lines 8–26), stage by stage.
    fn iterate(
        &mut self,
        iter: usize,
        bounds: &mut SpectralBounds<T::Real>,
        norm_h: T::Real,
    ) -> Result<Step, Abort> {
        let ctx = self.dev.ctx();
        self.progress.iter = iter;
        // Re-opening "iteration" auto-closes the previous iteration span,
        // so a restarted iteration needs no explicit span end.
        ctx.trace_span_begin("iteration", iter as u64);
        self.progress.trace_new_events(ctx);
        if let Some(plan) = self.dev.fault_plan() {
            plan.set_iter(iter as u64);
        }
        let fb = FilterBounds::from_spectrum(bounds.mu_1, bounds.mu_ne, bounds.b_sup);

        if iter > 1 {
            self.plan_degrees(&fb, norm_h);
        }
        let matvecs = self.filter(fb)?;
        // Planned block faults (chaos harness only).
        if let Some(plan) = self.dev.fault_plan() {
            let active = self.active();
            plan.apply_block_faults(&mut self.c, active.start, active.len());
        }
        if self.params.guards {
            self.guard_filtered_block(fb)?;
        }
        let (est_cond, true_cond) = self.condition(&fb);
        let qr_variant = match self.orthonormalize(est_cond) {
            Ok(variant) => variant,
            Err(cause) => return Ok(Step::Restart(cause)),
        };
        if let Err(cause) = self.rayleigh_ritz().and_then(|()| self.residuals()) {
            return Ok(Step::Restart(cause));
        }
        let measured = Measured {
            iter,
            matvecs,
            est_cond,
            true_cond,
            qr_variant,
        };
        let row = self.lock_and_record(bounds, norm_h, measured);
        self.maybe_checkpoint(bounds);
        self.drain_faults();
        Ok(Step::Done(row))
    }

    /// Filter degrees of the active columns (Algorithm 1, line 11), and the
    /// active columns sorted ascending by degree (line 12).
    fn plan_degrees(&mut self, fb: &FilterBounds<T::Real>, norm_h: T::Real) {
        let locked = self.sub.locked;
        let perm = self.sub.plan_degrees(&self.params, fb, norm_h);
        permute_cols(&mut self.c, locked, &perm);
        permute_cols(&mut self.c2, locked, &perm);
    }

    /// The Chebyshev filter on the active columns (Algorithm 2, line 10).
    /// Returns the MatVecs spent.
    fn filter(&mut self, fb: FilterBounds<T::Real>) -> Result<u64, FilterError> {
        let locked = self.sub.locked;
        let degrees: Vec<usize> = self.sub.degs[locked..].to_vec();
        let mv = chebyshev_filter_with(
            self.dev,
            self.dev.ctx(),
            &mut self.h,
            &mut self.c,
            &mut self.b,
            locked,
            &degrees,
            fb,
            FilterExec::Flat,
        )?;
        self.progress.matvecs += mv;
        Ok(mv)
    }

    /// Post-filter finite check with the bounded re-filter ladder: poisoned
    /// columns are restored from the pre-filter copy and filtered again, up
    /// to `max_refilter` times at a bumped degree.
    fn guard_filtered_block(&mut self, fb: FilterBounds<T::Real>) -> Result<(), Abort> {
        let mut attempt = 0usize;
        loop {
            let poisoned = |j| self.c.col(j).iter().any(|v| !v.is_finite());
            let mut flags: Vec<f64> = self.active().map(|j| f64::from(poisoned(j))).collect();
            // Agree world-wide on which columns are poisoned: a NaN
            // in one replica must trigger the same repair everywhere.
            self.dev.ctx().world.allreduce_sum(&mut flags);
            let bad: Vec<usize> = self
                .active()
                .zip(&flags)
                .filter(|(_, f)| **f > 0.0)
                .map(|(j, _)| j)
                .collect();
            if bad.is_empty() {
                return Ok(());
            }
            self.drain_faults();
            self.progress
                .note(RecoveryEventKind::NonFiniteBlock { cols: bad.len() });
            attempt += 1;
            if attempt > self.params.max_refilter {
                return Err(Abort::NonFinite);
            }
            let mut by_degree: Vec<(usize, usize)> = bad
                .iter()
                .map(|&j| {
                    // A bumped (still even) degree.
                    let d = (self.sub.degs[j] + 2 * attempt).min(MAX_DEG);
                    (d, j)
                })
                .collect();
            by_degree.sort_unstable();
            self.progress.matvecs += self.refilter_columns(&by_degree, fb)?;
            self.progress.note(RecoveryEventKind::Refiltered {
                cols: by_degree.len(),
                degree: by_degree.last().map(|&(d, _)| d).unwrap_or(0),
                attempt,
            });
        }
    }

    /// Restore the columns named in `by_degree` (sorted ascending
    /// `(degree, col)` pairs) from the pre-filter copy `C2` and re-filter
    /// them at those degrees, writing the results (and degrees) back in
    /// place.
    fn refilter_columns(
        &mut self,
        by_degree: &[(usize, usize)],
        fb: FilterBounds<T::Real>,
    ) -> Result<u64, FilterError> {
        let ctx = self.dev.ctx();
        let k = by_degree.len();
        let mut tmp_c = Matrix::<T>::zeros(self.h.n_r(), k);
        let mut tmp_b = Matrix::<T>::zeros(self.h.n_c(), k);
        for (t, &(_, j)) in by_degree.iter().enumerate() {
            tmp_c.col_mut(t).copy_from_slice(self.c2.col(j));
        }
        let redegs: Vec<usize> = by_degree.iter().map(|&(d, _)| d).collect();
        let mv = chebyshev_filter_with(
            self.dev,
            ctx,
            &mut self.h,
            &mut tmp_c,
            &mut tmp_b,
            0,
            &redegs,
            fb,
            FilterExec::Flat,
        )?;
        for (t, &(d, j)) in by_degree.iter().enumerate() {
            self.c.col_mut(j).copy_from_slice(tmp_c.col(t));
            self.sub.degs[j] = d;
        }
        Ok(mv)
    }

    /// Condition estimate of the filtered block (Algorithm 2 line 11 /
    /// Algorithm 5) and, when tracked, the true kappa_com of "the matrix of
    /// vectors outputted by the filter" (Fig. 1): the active block only —
    /// locked columns were not filtered this iteration.
    fn condition(&self, fb: &FilterBounds<T::Real>) -> (f64, Option<f64>) {
        let ritzv: Vec<f64> = self.sub.ritzv.iter().map(|r| r.to_f64()).collect();
        let est_cond = cond_est(
            &ritzv,
            fb.c.to_f64(),
            fb.e.to_f64(),
            &self.sub.degs,
            self.sub.locked,
        );
        let true_cond = self.params.track_true_cond.then(|| {
            let active = self.gather_c(&self.c, false).copy_cols(self.active());
            chase_linalg::cond2(&active).to_f64()
        });
        (est_cond, true_cond)
    }

    /// Flexible QR with escalation ladder (Algorithm 2 line 12), then line
    /// 13. With guards enabled, `Err` names the divergence of the replicas
    /// the ladder exposed — agreed world-wide, so every rank restarts.
    fn orthonormalize(&mut self, est_cond: f64) -> Result<QrVariant, RecoveryEventKind> {
        let ctx = self.dev.ctx();
        self.dev.set_region(Region::Qr);
        let (qr_variant, attempts) = qr_ladder(
            self.dev,
            &ctx.col_comm,
            &mut self.c,
            &self.c_dist,
            est_cond,
            self.params.qr,
        );
        if attempts.len() > 1 {
            ctx.trace_counter("qr_rung_climbs", (attempts.len() - 1) as u64);
        }
        for (k, a) in attempts.iter().enumerate() {
            if let Some(e) = a.error {
                self.progress.note(RecoveryEventKind::QrBreakdown {
                    variant: a.variant.name(),
                    detail: e.to_string(),
                });
                self.progress.note(RecoveryEventKind::QrEscalated {
                    from: a.variant.name(),
                    to: attempts[k + 1].variant.name(),
                });
            }
        }
        if self.params.guards {
            // Each column communicator ran its ladder on its own replica.
            // If escalation counts disagree, the replicas have diverged:
            // roll back and restart the active subspace in lockstep.
            let esc = (attempts.len() - 1) as f64;
            let total = ctx.world.allreduce_scalar(esc);
            if total != esc * ctx.world.size() as f64 {
                return Err(RecoveryEventKind::ReplicaDivergence { stage: "qr" });
            }
        }
        // Line 13: restore exact locked vectors, refresh C2's active part.
        let (locked, active) = (0..self.sub.locked, self.active());
        self.c
            .cols_mut(locked.clone())
            .copy_from(self.c2.cols_ref(locked));
        self.c2
            .cols_mut(active.clone())
            .copy_from(self.c.cols_ref(active));
        Ok(qr_variant)
    }

    /// One Rayleigh–Ritz projection over the active columns
    /// (Algorithm 2, lines 14–20), leaving the active Ritz values in `sub`.
    ///
    /// With guards enabled, a poisoned (non-finite) quotient or a failed
    /// redundant eigensolve is `Err` with the regression to restart on —
    /// agreed across the whole world first, so every rank bails before the
    /// next collective and the SPMD call sequences stay aligned. Without
    /// guards the historic panic behavior is kept.
    fn rayleigh_ritz(&mut self) -> Result<(), RecoveryEventKind> {
        self.dev.set_region(Region::RayleighRitz);
        let active = self.active();
        let act = active.len();
        let ctx = self.dev.ctx();

        self.update_b2();
        // B[:, act] = H C[:, act]
        self.h_times_c(active.clone());
        // A = B2[:, act]^H B[:, act], reduced over the row communicator.
        let mut a = Matrix::<T>::zeros(act, act);
        self.dev.gemm(
            Op::ConjTrans,
            Op::None,
            T::one(),
            self.b2.cols_ref(active.clone()),
            self.b.cols_ref(active.clone()),
            T::zero(),
            a.as_mut(),
        );
        self.dev.allreduce_sum(&ctx.row_comm, a.as_mut_slice());
        let a_finite = a.as_slice().iter().all(|v| v.is_finite());
        let solved = if a_finite {
            self.dev.heevd(&a).ok()
        } else {
            None
        };
        if self.params.guards {
            // Corruption may have poisoned only one grid row's replica of A;
            // agree world-wide so all ranks take the same exit.
            if self.any_rank(solved.is_none()) {
                return Err(RecoveryEventKind::ResidualRegression {
                    col: active.start,
                    value_bits: f64::INFINITY.to_bits(),
                });
            }
        }
        let (vals, y) = solved.expect("Rayleigh-Ritz eigensolve failed");
        // Back-transform: C[:, act] = C2[:, act] Y (local within column comm).
        self.dev.gemm(
            Op::None,
            Op::None,
            T::one(),
            self.c2.cols_ref(active.clone()),
            y.as_ref(),
            T::zero(),
            self.c.cols_mut(active.clone()),
        );
        // C2 mirrors C on the active part; refresh B2 for the residuals.
        self.c2
            .cols_mut(active.clone())
            .copy_from(self.c.cols_ref(active.clone()));
        self.update_b2();
        self.sub.ritzv[active].copy_from_slice(&vals);
        Ok(())
    }

    /// Residual norms of the active columns (Algorithm 2, lines 21–25).
    /// With guards enabled, a non-finite Ritz value or residual on any rank
    /// is `Err` with the regression to restart on.
    fn residuals(&mut self) -> Result<(), RecoveryEventKind> {
        self.dev.set_region(Region::Residuals);
        let active = self.active();
        // B[:, act] = H C[:, act]
        self.h_times_c(active.clone());
        // B -= ritzv .* B2 , column-wise (single batched BLAS-1 kernel).
        self.dev.blas1::<T>(self.h.n_c() * active.len() * 2);
        let lambda = self.sub.ritzv[active.clone()].to_vec();
        let norms = self.residual_norms(active.clone(), &lambda);
        self.sub.resd[active.clone()].copy_from_slice(&norms);
        if !self.params.guards {
            return Ok(());
        }
        let local = active.clone().find_map(|j| {
            [self.sub.ritzv[j].to_f64(), self.sub.resd[j].to_f64()]
                .into_iter()
                .find(|v| !v.is_finite())
                .map(|v| (j, v.to_bits()))
        });
        if self.any_rank(local.is_some()) {
            let (col, value_bits) = local.unwrap_or((active.start, f64::INFINITY.to_bits()));
            return Err(RecoveryEventKind::ResidualRegression { col, value_bits });
        }
        Ok(())
    }

    /// Deflation & locking (Algorithm 2, line 26) with the iteration's row
    /// of diagnostics, a fresh rollback target when columns locked, and the
    /// bound updates (lines 5–7).
    fn lock_and_record(
        &mut self,
        bounds: &mut SpectralBounds<T::Real>,
        norm_h: T::Real,
        measured: Measured,
    ) -> IterStats {
        let tol = T::Real::from_f64_r(self.params.tol) * norm_h;
        let row = self.sub.lock_and_record(tol, measured);
        if row.new_locked > 0 {
            self.ckpt = Checkpoint::of(&self.c, &self.sub);
        }
        self.sub.update_bounds(self.params.nev, bounds);
        row
    }

    /// Checkpoint of an iteration that leaves wanted columns active, when
    /// `Params::checkpoint_dir` names a directory (elastic recovery
    /// substrate): assemble the global iterate over the column communicator
    /// (every rank joins the collective) and persist a [`Snapshot`] from
    /// world rank 0 via tmp+rename, so readers never observe a torn file.
    /// Write errors are swallowed deliberately: a full disk on rank 0 must
    /// not diverge its control flow from the other ranks' (recovery logs are
    /// compared bitwise across ranks) — for the same reason the saved event
    /// is logged on every rank.
    fn maybe_checkpoint(&mut self, bounds: &SpectralBounds<T::Real>) {
        let iter = self.progress.iter;
        let Some(dir) = &self.params.checkpoint_dir else {
            return;
        };
        if self.sub.locked >= self.params.nev {
            return;
        }
        let ctx = self.dev.ctx();
        self.dev.set_region(Region::Other);
        let full = self.gather_c(&self.c, true);
        if ctx.world_rank() == 0 {
            let snap = Snapshot::capture::<T>(
                iter,
                self.sub.locked,
                self.params.nev,
                self.params.seed,
                bounds,
                &self.sub.ritzv,
                &self.sub.resd,
                &self.sub.degs,
                self.progress.matvecs,
                0,
                &full,
            );
            let _ = snap.save(dir);
        }
        // Commit barrier: no rank may advance past this iteration until the
        // snapshot is durable. Without it a fast rank could crash in the
        // *next* iteration while rank 0 is still writing, making checkpoint
        // availability on recovery a wall-clock race instead of an
        // invariant ("a crash at iter N always finds the iter N-k file").
        let _ = ctx.world.allreduce_scalar(0.0);
        let locked = self.sub.locked;
        self.progress
            .note(RecoveryEventKind::CheckpointSaved { iter, locked });
    }

    /// The one restart path: log what was detected and — unless
    /// [`MAX_RESTARTS`] are spent — roll the locked set back to the
    /// checkpoint and restart the active subspace from a fresh
    /// deterministic random block. The block is generated globally and
    /// sliced per rank — identical on every rank — so this also restores
    /// replica consistency after a detected divergence.
    fn restart(&mut self, cause: RecoveryEventKind, mu_1: T::Real) -> Result<(), Abort> {
        self.drain_faults();
        self.progress.note(cause);
        self.progress.restarts += 1;
        if self.progress.restarts > MAX_RESTARTS {
            return Err(Abort::NonFinite);
        }
        let ne = self.params.ne();
        let kept = self.ckpt.locked;
        for j in 0..kept {
            self.c.col_mut(j).copy_from_slice(self.ckpt.c.col(j));
            self.sub.ritzv[j] = self.ckpt.ritzv[j];
            self.sub.resd[j] = self.ckpt.resd[j];
        }
        self.sub.locked = kept;
        let restarted = ne - kept;
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.params.seed ^ 0x0dd_f00d ^ (self.progress.iter as u64).rotate_left(32),
        );
        let fresh = Matrix::<T>::random(self.h.n, restarted, &mut rng);
        let local = fresh.select_rows(self.h.row_set.iter());
        for (t, j) in (kept..ne).enumerate() {
            self.c.col_mut(j).copy_from_slice(local.col(t));
            self.sub.ritzv[j] = mu_1;
            self.sub.resd[j] = <T::Real as Scalar>::one();
            self.sub.degs[j] = self.params.init_deg();
        }
        self.c2 = self.c.clone();
        self.progress
            .note(RecoveryEventKind::LockedRollback { kept, restarted });
        Ok(())
    }

    /// The one abort path: the fault records not yet drained, the typed
    /// error (a spectrum/degree violation is a caller bug or a stale warm
    /// bound — no recovery event), and the recovery trail handed over to
    /// the error.
    fn abort(&mut self, cause: Abort) -> ChaseError {
        self.drain_faults();
        let kind = match cause {
            Abort::NonFinite => ChaseErrorKind::UnrecoverableNonFinite,
            Abort::Verification(detail) => ChaseErrorKind::VerificationFailed { detail },
            Abort::Filter(FilterError::BadSpectrum(detail) | FilterError::BadDegrees(detail)) => {
                ChaseErrorKind::BadSpectrum { detail }
            }
            Abort::Filter(FilterError::Comm(e)) => {
                unreachable!("the flat filter posts no nonblocking collective: {e}")
            }
        };
        ChaseError {
            kind,
            iter: self.progress.iter,
            recovery: std::mem::take(&mut self.progress.recovery),
        }
    }

    /// Close the solve: sort the returned pairs, cross-check them on chaos
    /// runs, and hand the result over.
    fn finish(
        mut self,
        bounds: SpectralBounds<T::Real>,
        norm_h: T::Real,
        stats: Vec<IterStats>,
        converged: bool,
        warm_started: bool,
    ) -> Result<ChaseResult<T>, ChaseError> {
        let ctx = self.dev.ctx();
        let nev = self.params.nev;
        self.drain_faults();
        self.progress.trace_new_events(ctx);
        ctx.trace_span_end("solve");

        let (eigenvalues, residuals) = self.sub.sorted_pairs(nev, &mut self.c);

        // Chaos runs must never return silently-wrong eigenpairs: cross-check
        // the replicas and the residuals before handing the result back.
        if self.params.inject.is_some() {
            self.dev.set_region(Region::Other);
            if let Err(detail) = self.verify_returned_pairs(&eigenvalues, &residuals, norm_h) {
                return Err(self.abort(Abort::Verification(detail)));
            }
            self.drain_faults();
        }

        // The iterate itself is the hand-off: free the buffers nothing reads
        // any more, then move `C` out whole (eigenvectors, then directions).
        drop((self.c2, self.b, self.b2, self.ckpt));
        Ok(ChaseResult {
            eigenvalues,
            residuals,
            search_space_local: self.c,
            rows: self.h.row_set.clone(),
            n: self.h.n,
            iterations: self.progress.iter,
            matvecs: self.progress.matvecs,
            converged,
            stats,
            norm_h: norm_h.to_f64(),
            bounds,
            warm_started,
            recovery: self.progress.recovery,
        })
    }

    /// Post-solve verification (fault-injection runs only): the returned
    /// eigenvalues must agree bitwise-closely across all replicas, and the
    /// residuals recomputed from scratch must match the reported ones. Any
    /// violation is world-agreed before returning so every rank exits the
    /// collectives in lockstep.
    fn verify_returned_pairs(
        &mut self,
        ritz: &[T::Real],
        reported: &[T::Real],
        norm_h: T::Real,
    ) -> Result<(), String> {
        let ctx = self.dev.ctx();
        let scale = norm_h.to_f64().max(1.0);
        let p = ctx.world.size() as f64;

        // (a) Replica agreement: grid-row divergence shows up here.
        let mut sums: Vec<f64> = ritz.iter().map(|v| v.to_f64()).collect();
        ctx.world.allreduce_sum(&mut sums);
        let diverged = sums.iter().zip(ritz).enumerate().find_map(|(k, (s, v))| {
            let (mine, avg) = (v.to_f64(), s / p);
            (!mine.is_finite() || (mine - avg).abs() > 1e-6 * scale).then(|| {
                format!("eigenvalue {k} diverges across ranks (local {mine}, grid mean {avg})")
            })
        });
        self.agreed(diverged, "eigenvalue divergence")?;

        // (b) Recompute residuals of the returned pairs from scratch: a
        // corrupted residual collective that caused a premature lock is
        // caught here.
        self.c2 = self.c.clone();
        self.update_b2();
        self.h_times_c(0..ritz.len());
        let recomputed = self.residual_norms(0..ritz.len(), ritz);
        let mismatch = recomputed
            .iter()
            .zip(reported)
            .enumerate()
            .find_map(|(k, (r, rep))| {
                let (r, rep) = (r.to_f64(), rep.to_f64());
                (!r.is_finite() || r > 100.0 * rep + 1e-8 * scale)
                    .then(|| format!("residual {k} recomputed as {r}, reported {rep}"))
            });
        self.agreed(mismatch, "residual mismatch")
    }

    /// World-agree on a finding of the verification: every rank leaves with
    /// one — its own, or word of another rank's — or none does.
    fn agreed(&self, finding: Option<String>, what: &str) -> Result<(), String> {
        if self.any_rank(finding.is_some()) {
            return Err(finding.unwrap_or_else(|| format!("{what} detected on another rank")));
        }
        Ok(())
    }
}

/// Solve a distributed eigenproblem from within an SPMD region: the one
/// way into the solver. `warm` is the approximate solution of the previous
/// problem of a sequence — any `1..=ne` columns, optionally with spectral
/// bounds that replace the Lanczos phase; `None` starts from the seeded
/// random block.
///
/// Parameters or a warm block that do not fit `h` come back as
/// [`ChaseErrorKind::InvalidParams`] before any collective (every rank sees
/// the same inputs, so every rank returns the same error). When
/// `params.inject` is set, a per-rank [`FaultPlan`] is compiled and wired
/// into the device layer (payload and filtered-block corruption, rank
/// crashes); an unrecoverable fault is a typed error carrying the recovery
/// log.
pub fn solve_dist<T: Scalar + Reduce>(
    ctx: &chase_comm::RankCtx,
    backend: Backend,
    h: DistHerm<T>,
    params: &Params,
    warm: Option<&WarmStart<T>>,
) -> Result<ChaseResult<T>, ChaseError>
where
    T::Real: Reduce,
{
    let start = warm.map_or(Start::Cold, Start::Warm);
    solve_from(ctx, backend, h, params, start)
}

/// What [`solve_dist`] and [`crate::lms::solve_lms`] refuse up front:
/// parameters that do not fit an `n x n` problem, or a warm block of the
/// wrong shape (a session step whose `n`, `nev` or `nex` differs from the
/// step that produced the block).
pub(crate) fn check_input<T: Scalar>(
    params: &Params,
    n: usize,
    v0: Option<&Matrix<T>>,
) -> Result<(), String> {
    params.try_validate(n)?;
    if let Some(v0) = v0 {
        let (rows, cols, ne) = (v0.rows(), v0.cols(), params.ne());
        if rows != n || !(1..=ne).contains(&cols) {
            return Err(format!(
                "warm-start block is {rows} x {cols}, need {n} rows and 1..={ne} columns"
            ));
        }
    }
    Ok(())
}

/// [`solve_dist`] with the start the elastic driver needs as well.
pub(crate) fn solve_from<T: Scalar + Reduce>(
    ctx: &chase_comm::RankCtx,
    backend: Backend,
    h: DistHerm<T>,
    params: &Params,
    start: Start<'_, T>,
) -> Result<ChaseResult<T>, ChaseError>
where
    T::Real: Reduce,
{
    // Reject malformed input as a typed error before any collective work:
    // one bad workload entry must not abort a whole serve run.
    let warm = match start {
        Start::Warm(w) => Some(w),
        _ => None,
    };
    check_input(params, h.n, warm.map(|w| &w.v0))
        .map_err(|detail| ChaseError::outside_loop(ChaseErrorKind::InvalidParams { detail }))?;
    let plan = params
        .inject
        .as_ref()
        .map(|spec| Arc::new(FaultPlan::new(spec.clone(), ctx.world_rank(), ctx.row)));
    if let Some(p) = &plan {
        // Mirror injections into the trace stream when a recorder is
        // installed on this rank.
        p.set_trace_hook(ctx.seams.get().trace.clone());
        // Arm rank-crash injections: without a death handle a `rank-crash`
        // site is inert, so plain solves never crash by accident.
        p.set_death_handle(Some(ctx.death_handle()));
    }
    let dev = Device::new(ctx, backend).with_faults(plan);
    let mut chase = Chase::new(&dev, h, params.clone(), warm);
    if let Start::Resume { snapshot, prelude } = start {
        if let Some(snap) = snapshot {
            chase.apply_snapshot(snap).map_err(|e| ChaseError {
                kind: ChaseErrorKind::BadCheckpoint {
                    detail: e.to_string(),
                },
                iter: snap.iter,
                recovery: RecoveryLog::default(),
            })?;
        }
        chase.progress.recovery = prelude;
    }
    chase.run()
}

/// [`solve_dist`] on a replicated matrix and a 1x1 grid: the full
/// distributed code path without spawning a thread.
pub fn solve_serial<T: Scalar + Reduce>(
    h: &Matrix<T>,
    params: &Params,
    warm: Option<&WarmStart<T>>,
) -> Result<ChaseResult<T>, ChaseError>
where
    T::Real: Reduce,
{
    let ctx = chase_comm::solo_ctx();
    let dh = DistHerm::from_global(h, &ctx);
    solve_dist(&ctx, Backend::Nccl, dh, params, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::RecoveryEvent;
    use chase_comm::GridShape;
    use chase_linalg::C64;

    #[test]
    fn swap_and_permute_cols() {
        let mut m = Matrix::<f64>::from_fn(2, 4, |i, j| (10 * j + i) as f64);
        permute_cols(&mut m, 0, &[3, 1, 2, 0]); // swap columns 0 and 3
        assert_eq!(m[(0, 0)], 30.0);
        assert_eq!(m[(1, 3)], 1.0);
        // permute active block [1..4] with perm [2,0,1] over old cols 1,2,3
        permute_cols(&mut m, 1, &[2, 0, 1]);
        assert_eq!(m[(0, 1)], 0.0); // old col 3 (which held col 0's data)
        assert_eq!(m[(0, 2)], 10.0);
        assert_eq!(m[(0, 3)], 20.0);
    }

    #[test]
    fn mismatched_warm_block_is_a_typed_error() {
        // A session step whose shape differs from the step that produced
        // the block: wrong row count, and more columns than the subspace.
        // The LMS baseline refuses the same blocks alike.
        let h = chase_matgen::dense_with_spectrum::<f64>(
            &chase_matgen::Spectrum::uniform(48, -1.0, 1.0),
            7,
        );
        for (rows, cols, nev, nex) in [(64, 8, 5, 3), (48, 11, 3, 2), (48, 0, 5, 3)] {
            let warm = WarmStart::from_vectors(Matrix::<f64>::zeros(rows, cols));
            let params = Params::new(nev, nex);
            let err = solve_serial(&h, &params, Some(&warm)).unwrap_err();
            assert!(
                matches!(&err.kind, ChaseErrorKind::InvalidParams { detail }
                    if detail.contains(&format!("{rows} x {cols}"))),
                "{rows} x {cols} block: {err}"
            );
            assert_eq!(err.iter, 0);
            let ctx = chase_comm::solo_ctx();
            let dh = DistHerm::from_global(&h, &ctx);
            let lms = crate::lms::solve_lms(&ctx, dh, &params, Some(&warm.v0));
            assert_eq!(lms.unwrap_err(), err);
        }
    }

    #[test]
    fn serial_solve_small_uniform() {
        let spec = chase_matgen::Spectrum::uniform(60, -1.0, 1.0);
        let h = chase_matgen::dense_with_spectrum::<C64>(&spec, 42);
        let mut p = Params::new(6, 4);
        p.tol = 1e-9;
        let r = solve_serial(&h, &p, None).expect("clean solve");
        assert!(r.converged, "did not converge in {} iters", r.iterations);
        for (k, v) in r.eigenvalues.iter().enumerate() {
            let want = spec.values()[k];
            assert!((v - want).abs() < 1e-7, "lambda_{k}: got {v}, want {want}");
        }
        assert!(r.matvecs > 0);
    }

    /// What one rank saw of one Lanczos phase made both ways.
    struct LanczosPhase {
        /// `lanczos_bounds` (one block) and the bounds of the same
        /// runs made one at a time through a one-column operator.
        block_bounds: [u64; 3],
        one_by_one_bounds: [u64; 3],
        /// Steps each run took.
        steps: Vec<usize>,
        /// `(collectives, comm bytes, flops)` of the two.
        block_cost: (usize, u64, u64),
        one_by_one_cost: (usize, u64, u64),
    }

    /// `(seed, steps, runs)` shape the estimate, as in [`lanczos_bounds`].
    fn lanczos_phase<T: Scalar + Reduce>(
        shape: GridShape,
        h: &Matrix<T>,
        ne: usize,
        (seed, steps, runs): (u64, usize, usize),
    ) -> Vec<LanczosPhase> {
        let n = h.rows();
        let dist = chase_comm::Distribution::BlockCyclic { block: 3 };
        let bits =
            |b: SpectralBounds<T::Real>| [b.mu_1, b.mu_ne, b.b_sup].map(|x| x.to_f64().to_bits());
        let cost = |l: chase_comm::Ledger| {
            (
                l.collective_count(),
                l.bytes_in(chase_comm::Category::Comm),
                l.flops_in(Region::Lanczos),
            )
        };
        chase_comm::run_grid(shape, |ctx| {
            let dev = Device::new(ctx, Backend::Nccl);
            let dh = DistHerm::from_global_dist(h, ctx, dist);
            let from = ctx.ledger_snapshot().len();
            let block = lanczos_bounds(&dev, &dh, ne, seed, steps, runs).expect("finite H");
            let block_cost = cost(ctx.ledger_snapshot().since(from));

            let from = ctx.ledger_snapshot().len();
            let b_dist = RowDist::b_layout(n, ctx.shape, dist);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1a9c205);
            let runs: Vec<_> = (0..runs)
                .map(|_| {
                    let matvec = |x: &[T], y: &mut [T]| {
                        let xm = Matrix::from_vec(n, 1, x.to_vec());
                        y.copy_from_slice(matvec_replicated(&dev, ctx, &dh, &b_dist, &xm).col(0));
                    };
                    chase_linalg::lanczos_run(n, steps, matvec, &mut rng).expect("finite H")
                })
                .collect();
            LanczosPhase {
                block_bounds: bits(block),
                one_by_one_bounds: bits(SpectralBounds::from_runs(n, ne, &runs)),
                steps: runs.iter().map(|r| r.ritz.len()).collect(),
                block_cost,
                one_by_one_cost: cost(ctx.ledger_snapshot().since(from)),
            }
        })
        .results
    }

    /// A matrix with `distinct` different eigenvalues of size `scale`:
    /// Krylov spaces close after `distinct` steps, up to rounding.
    fn few_eigenvalues<T: Scalar>(n: usize, distinct: usize, scale: f64, seed: u64) -> Matrix<T> {
        let values = (0..n)
            .map(|i| scale * (1.0 + (i % distinct) as f64))
            .collect();
        chase_matgen::dense_with_spectrum(&chase_matgen::Spectrum::from_values(values), seed)
    }

    fn check_block_lanczos<T: Scalar + Reduce>(
        (n, distinct, scale): (usize, usize, f64),
        (steps, runs): (usize, usize),
        seed: u64,
    ) {
        let h = few_eigenvalues::<T>(n, distinct.min(n), scale, seed);
        let ne = n.div_ceil(4) + n / 8;
        for (p, q) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            let what = format!(
                "{} {p}x{q} n={n} distinct={distinct} scale={scale} steps={steps} runs={runs} seed={seed}",
                std::any::type_name::<T>()
            );
            let ranks = lanczos_phase(GridShape::new(p, q), &h, ne, (seed, steps, runs));
            for r in &ranks {
                assert_eq!(
                    r.block_bounds, ranks[0].block_bounds,
                    "{what}: ranks disagree"
                );
                assert_eq!(r.block_bounds, r.one_by_one_bounds, "{what}");
                // Two collectives per step of the longest run, against two
                // per step of every run; the same bytes and flops either way.
                let longest = *r.steps.iter().max().expect("runs >= 1");
                assert_eq!(r.block_cost.0, 2 * longest, "{what}");
                assert_eq!(
                    r.one_by_one_cost.0,
                    2 * r.steps.iter().sum::<usize>(),
                    "{what}"
                );
                assert_eq!(r.block_cost.1, r.one_by_one_cost.1, "{what}: bytes");
                assert_eq!(r.block_cost.2, r.one_by_one_cost.2, "{what}: flops");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The block Lanczos phase against the same runs made one at a time
        /// through the same distributed operator (what `estimate_bounds_dist`
        /// did before; chase-linalg's own proptest ties the one-column call
        /// to the sequential loop): the same bits on every rank of every
        /// grid, for every scalar — with Krylov spaces that close early, on
        /// some columns before others, and with `steps > n`.
        #[test]
        fn block_lanczos_equals_runs_made_one_at_a_time(
            n in 2usize..30,
            distinct in 1usize..30,
            scale in 0usize..4,
            steps in 1usize..36,
            runs in 1usize..7,
            seed in 0u64..1 << 32,
        ) {
            let spectrum = (n, distinct, [1e-2, 3.0, 4.0, 1e2][scale]);
            check_block_lanczos::<f32>(spectrum, (steps, runs), seed);
            check_block_lanczos::<f64>(spectrum, (steps, runs), seed);
            check_block_lanczos::<chase_linalg::C32>(spectrum, (steps, runs), seed);
            check_block_lanczos::<C64>(spectrum, (steps, runs), seed);
        }
    }

    #[test]
    fn lanczos_phase_is_two_collectives_per_step_whatever_the_runs() {
        let h = few_eigenvalues::<C64>(64, 64, 1.0, 3);
        let params = Params::new(8, 4);
        let mut one_run_bytes = Vec::new();
        for runs in [1, LANCZOS_RUNS, 6] {
            let estimate = (params.seed, LANCZOS_STEPS, runs);
            let ranks = lanczos_phase(GridShape::new(2, 2), &h, params.ne(), estimate);
            if runs == 1 {
                one_run_bytes = ranks.iter().map(|r| r.block_cost.1).collect();
            }
            for (rank, one_run_bytes) in ranks.iter().zip(&one_run_bytes) {
                assert_eq!(rank.steps, vec![LANCZOS_STEPS; runs]);
                assert_eq!(rank.block_cost.0, 2 * LANCZOS_STEPS, "{runs} runs");
                assert_eq!(
                    rank.block_cost.1,
                    runs as u64 * one_run_bytes,
                    "{runs} runs"
                );
            }
        }
    }

    /// A solver on the 1x1 grid at the start of its first iteration, as
    /// `run` would have it after the Lanczos phase.
    fn with_chase<T: Scalar + Reduce, R>(
        params: &Params,
        f: impl FnOnce(&mut Chase<'_, '_, T>) -> R,
    ) -> R
    where
        T::Real: Reduce,
    {
        let spec = chase_matgen::Spectrum::uniform(40, -1.0, 1.0);
        let h = chase_matgen::dense_with_spectrum::<T>(&spec, 7);
        let ctx = chase_comm::solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let dh = DistHerm::from_global(&h, &ctx);
        let mut chase = Chase::new(&dev, dh, params.clone(), None);
        let mu_1 = T::Real::from_f64_r(-1.0);
        chase.sub = Subspace::new(params.ne(), mu_1, params.init_deg());
        chase.progress.iter = 1;
        f(&mut chase)
    }

    /// A poisoned column is restored and re-filtered at a bumped degree;
    /// with no attempt left the guard gives up through the abort path.
    #[test]
    fn refilter_ladder_bumps_the_degree_then_aborts() {
        let mut params = Params::new(4, 3);
        params.max_refilter = 1;
        with_chase::<C64, _>(&params, |chase| {
            let fb = FilterBounds::from_spectrum(-1.0, 0.0, 1.0);
            chase.c[(3, 5)] = C64::from_f64(f64::NAN);
            assert!(chase.guard_filtered_block(fb).is_ok());
            assert!(chase.c.as_slice().iter().all(|v| v.is_finite()));
            let degree = params.init_deg() + 2;
            assert_eq!(chase.sub.degs[5], degree);
            let kinds: Vec<_> = chase.progress.recovery.events.iter().collect();
            assert!(
                matches!(
                    kinds[..],
                    [
                        RecoveryEvent {
                            iter: 1,
                            kind: RecoveryEventKind::NonFiniteBlock { cols: 1 }
                        },
                        RecoveryEvent {
                            iter: 1,
                            kind: RecoveryEventKind::Refiltered {
                                cols: 1,
                                degree: d,
                                attempt: 1
                            }
                        },
                    ] if *d == degree
                ),
                "{}",
                chase.progress.recovery
            );
            chase.params.max_refilter = 0;
            chase.c[(3, 5)] = C64::from_f64(f64::NAN);
            let out = chase.guard_filtered_block(fb);
            assert!(matches!(out, Err(Abort::NonFinite)));
        });
    }

    /// `Chase::restart` is the one restart path: whatever the cause, it logs
    /// it, restores the locked checkpoint, restarts the rest, and gives up
    /// after `MAX_RESTARTS` through the one abort path.
    #[test]
    fn every_cause_restarts_alike_and_aborts_after_max_restarts() {
        let params = Params::new(4, 3);
        let ne = params.ne();
        let causes = [
            RecoveryEventKind::ReplicaDivergence { stage: "qr" },
            RecoveryEventKind::ResidualRegression {
                col: 2,
                value_bits: f64::NAN.to_bits(),
            },
        ];
        let logs = causes.clone().map(|cause| {
            with_chase::<f64, _>(&params, |chase| {
                // Two columns locked and checkpointed, then two more locked
                // (not checkpointed) by an iteration that went wrong.
                chase.sub.locked = 2;
                chase.sub.ritzv[..2].copy_from_slice(&[-0.9, -0.8]);
                chase.sub.resd[..2].copy_from_slice(&[1e-12, 2e-12]);
                chase.ckpt = Checkpoint::of(&chase.c, &chase.sub);
                let good = chase.c.copy_cols(0..2);
                for attempt in 1..=MAX_RESTARTS {
                    chase.progress.iter = attempt;
                    chase.sub.locked = 4;
                    chase.sub.ritzv.fill(f64::NAN);
                    chase.sub.resd.fill(f64::NAN);
                    chase.sub.degs.fill(36);
                    chase.c.as_mut_slice().fill(f64::NAN);
                    assert!(chase.restart(cause.clone(), -1.0).is_ok());
                    assert_eq!(chase.sub.locked, 2);
                    assert_eq!(chase.c.copy_cols(0..2), good);
                    assert_eq!(chase.c, chase.c2);
                    assert!(chase.c.as_slice().iter().all(|v| v.is_finite()));
                    assert_eq!(chase.sub.ritzv, [-0.9, -0.8, -1.0, -1.0, -1.0, -1.0, -1.0]);
                    assert_eq!(chase.sub.resd, [1e-12, 2e-12, 1.0, 1.0, 1.0, 1.0, 1.0]);
                    assert_eq!(chase.sub.degs[2..], [params.init_deg(); 5]);
                }
                chase.progress.iter = MAX_RESTARTS + 1;
                let Err(abort) = chase.restart(cause.clone(), -1.0) else {
                    panic!("restart {} must abort", MAX_RESTARTS + 1);
                };
                let err = chase.abort(abort);
                assert_eq!(err.kind, ChaseErrorKind::UnrecoverableNonFinite);
                assert_eq!(err.iter, MAX_RESTARTS + 1);
                assert!(chase.progress.recovery.is_empty(), "the error owns the log");
                err.recovery
            })
        });
        for (cause, log) in causes.iter().zip(&logs) {
            let rollback = RecoveryEventKind::LockedRollback {
                kept: 2,
                restarted: ne - 2,
            };
            let mut expected = RecoveryLog::default();
            for iter in 1..=MAX_RESTARTS {
                expected.push(iter, cause.clone());
                expected.push(iter, rollback.clone());
            }
            expected.push(MAX_RESTARTS + 1, cause.clone());
            assert_eq!(log, &expected);
        }
    }

    /// Parameters that do not fit the problem and a non-finite `H` are the
    /// same typed errors from the LMS baseline as from `solve_dist`.
    #[test]
    fn lms_refuses_what_solve_dist_refuses() {
        let mut h = few_eigenvalues::<C64>(40, 40, 1.0, 5);
        let solve_both = |h: &Matrix<C64>, params: &Params| {
            let ctx = chase_comm::solo_ctx();
            let lms = crate::lms::solve_lms(&ctx, DistHerm::from_global(h, &ctx), params, None);
            (lms.unwrap_err(), solve_serial(h, params, None).unwrap_err())
        };
        let mut bad = [Params::new(0, 4), Params::new(6, 4), Params::new(30, 20)];
        bad[1].tol = 0.0;
        for params in &bad {
            let (lms, new) = solve_both(&h, params);
            assert!(
                matches!(lms.kind, ChaseErrorKind::InvalidParams { .. }),
                "{lms}"
            );
            assert_eq!(lms, new);
        }
        (h[(7, 31)], h[(31, 7)]) = (C64::from_f64(f64::NAN), C64::from_f64(f64::NAN));
        let (lms, new) = solve_both(&h, &Params::new(6, 4));
        assert!(
            matches!(lms.kind, ChaseErrorKind::BadSpectrum { .. }),
            "{lms}"
        );
        assert_eq!(lms, new);
    }

    /// A non-finite entry in `H` is `BadSpectrum` from the Lanczos phase on
    /// every rank — it used to panic in the tridiagonal eigensolve.
    #[test]
    fn non_finite_h_is_a_typed_error_on_every_rank() {
        let mut h = few_eigenvalues::<C64>(40, 40, 1.0, 5);
        (h[(7, 31)], h[(31, 7)]) = (C64::from_f64(f64::NAN), C64::from_f64(f64::NAN));
        let params = Params::new(6, 4);
        let serial = solve_serial(&h, &params, None).unwrap_err();
        assert!(
            matches!(serial.kind, ChaseErrorKind::BadSpectrum { .. }),
            "{serial}"
        );
        let out = chase_comm::run_grid(GridShape::new(2, 2), |ctx| {
            let dh = DistHerm::from_global(&h, ctx);
            solve_dist(ctx, Backend::Nccl, dh, &params, None).unwrap_err()
        });
        for err in &out.results {
            assert_eq!(err, &serial);
        }
    }
}
