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

use crate::ckpt::{CkptError, Snapshot};
use crate::condest::cond_est;
use crate::degrees::{degree_sort_permutation, optimize_degrees};
use crate::filter::{
    chebyshev_filter_mixed, chebyshev_filter_with, FilterBounds, FilterError, FilterExec,
};
use crate::hemm::{hemm_c_to_b, matvec_replicated};
use crate::layout::{DistHerm, MemoryReport, RowDist};
use crate::params::{Params, PrecisionMode};
use crate::qr::qr_ladder;
use crate::result::{
    ChaseError, ChaseErrorKind, ChaseResult, IterStats, RecoveryEventKind, RecoveryLog,
};
use crate::warm::WarmStart;
use chase_comm::{Reduce, Region};
use chase_device::{Backend, Device};
use chase_faults::FaultPlan;
use chase_linalg::{Matrix, Op, RealScalar, Scalar, SpectralBounds};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Relative `b_sup` inflation applied to cached warm-start bounds: a
/// perturbed Hamiltonian's spectrum may poke slightly past the previous
/// upper estimate, and the Chebyshev filter amplifies anything outside
/// `[mu_ne, b_sup]` — 1% of the spectral span is cheap insurance.
const WARM_BOUND_MARGIN: f64 = 0.01;

/// Permute columns `offset..offset+perm.len()` of `m` so that new column `k`
/// is old column `offset + perm[k]`.
pub(crate) fn permute_cols<T: Scalar>(m: &mut Matrix<T>, offset: usize, perm: &[usize]) {
    let block = m.copy_cols(offset..offset + perm.len());
    for (k, &src) in perm.iter().enumerate() {
        m.col_mut(offset + k).copy_from_slice(block.col(src));
    }
}

pub(crate) fn permute_vec<V: Copy>(v: &mut [V], perm: &[usize]) {
    let old: Vec<V> = v.to_vec();
    for (k, &src) in perm.iter().enumerate() {
        v[k] = old[src];
    }
}

/// Distributed spectral-bound estimation (Algorithm 2, line 1): `runs`
/// Lanczos runs of `steps` iterations on the distributed operator, advanced
/// as one block (two collectives per step whatever `runs` is), with a DoS
/// quantile for `mu_ne`. Identical output on every rank.
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
    dev.set_region(Region::Lanczos);
    let ctx = dev.ctx();
    let b_dist = RowDist::b_layout(h.n, ctx.shape, h.dist);
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0x1a9c205);
    let runs = chase_linalg::lanczos_block::<T, _, _>(
        h.n,
        params.lanczos_steps,
        params.lanczos_runs,
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

/// Estimated condition number of the filtered block above which the next
/// low-precision filter is considered at risk of f32 overflow; the mixed
/// policy escalates preemptively instead of waiting for the guard to catch
/// non-finite output.
const LO_COND_LIMIT: f64 = 1e30;

/// Multiple of the demoted type's epsilon defining the single-precision
/// residual floor. The theoretical floor is ~50 * eps_lo * ||H||, but the
/// degree-<=36 Chebyshev recurrence amplifies the demoted iterate's rounding
/// noise by about two further orders of magnitude before Rayleigh-Ritz sees
/// it, so the practical switch point sits at ~5e3 * eps_lo * ||H|| —
/// escalating there keeps every demoted iteration productive instead of
/// burning MatVecs against the noise floor.
const LO_FLOOR_EPS_MULT: f64 = 5.0e3;

/// Consecutive low-precision iterations allowed without a >30% residual
/// improvement before escalating anyway: the backstop for problems whose
/// filter amplification pushes the single-precision noise floor above the
/// eps-based estimate.
const LO_STALL_LIMIT: usize = 2;

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
    T::Lo: Reduce,
{
    dev: &'d Device<'c>,
    params: Params,
    h: DistHerm<T>,
    c: Matrix<T>,
    c2: Matrix<T>,
    b: Matrix<T>,
    b2: Matrix<T>,
    ritzv: Vec<T::Real>,
    resd: Vec<T::Real>,
    degs: Vec<usize>,
    locked: usize,
    c_dist: RowDist,
    /// Cached spectral bounds from a warm start; when set the Lanczos
    /// estimation phase is skipped.
    warm_bounds: Option<SpectralBounds<T::Real>>,
    /// Demoted replica of the local `H` panel, built lazily the first time a
    /// mixed-precision filter call runs (never built in full mode).
    h_lo: Option<DistHerm<T::Lo>>,
    /// Sticky escalation flag of the mixed-precision policy: once true,
    /// every remaining filter call runs at full precision. A pure function
    /// of world-replicated state, so it flips identically on every rank.
    escalated: bool,
    /// Previous iteration's estimated condition number of the filtered
    /// block (drives preemptive escalation before an f32 overflow).
    prev_est_cond: f64,
    /// Max active residual seen at the previous mixed-mode decision point
    /// (stall detection).
    prev_low_max_res: f64,
    /// Consecutive decision points without meaningful residual improvement
    /// while running demoted.
    low_stall: usize,
    /// Outer iteration to resume *after* (0 for a fresh solve); set by
    /// `apply_snapshot`. The loop starts at `start_iter + 1`.
    start_iter: usize,
    /// MatVecs accumulated before the restored checkpoint was taken; folded
    /// into the result so elastic runs report true total work.
    base_matvecs: u64,
    /// Demoted-precision MatVecs accumulated before the checkpoint.
    base_lowprec_matvecs: u64,
    /// Recovery events that happened before this solve attempt (the
    /// crash→shrink→restore trail from the elastic driver); prepended to
    /// the attempt's own log so `ChaseResult::recovery` tells the whole
    /// story.
    prelude_recovery: RecoveryLog,
}

impl<'d, 'c, T: Scalar + Reduce> Chase<'d, 'c, T>
where
    T::Real: Reduce,
    T::Lo: Reduce,
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
        params.validate(h.n);
        let ne = params.ne();
        let ctx = dev.ctx();
        let c_dist = RowDist::c_layout(h.n, ctx.shape, h.dist);

        let c_global = match warm {
            Some(w) => {
                assert_eq!(w.v0.rows(), h.n, "warm-start block row count");
                let k = w.v0.cols();
                assert!(
                    (1..=ne).contains(&k),
                    "warm-start block must have 1..=ne columns (got {k}, ne {ne})"
                );
                if k == ne {
                    w.v0.clone()
                } else {
                    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
                    let mut g = Matrix::random(h.n, ne, &mut rng);
                    for j in 0..k {
                        g.col_mut(j).copy_from_slice(w.v0.col(j));
                    }
                    g
                }
            }
            None => {
                let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
                Matrix::random(h.n, ne, &mut rng)
            }
        };
        let c = c_global.select_rows(h.row_set.iter());
        let c2 = c.clone();
        let b = Matrix::zeros(h.n_c(), ne);
        let b2 = Matrix::zeros(h.n_c(), ne);
        Self {
            dev,
            h,
            c,
            c2,
            b,
            b2,
            ritzv: vec![<T::Real as Scalar>::zero(); ne],
            resd: vec![<T::Real as Scalar>::one(); ne],
            degs: vec![0; ne],
            locked: 0,
            c_dist,
            params,
            warm_bounds: warm.and_then(|w| w.inflated_bounds(WARM_BOUND_MARGIN)),
            h_lo: None,
            escalated: false,
            prev_est_cond: 0.0,
            prev_low_max_res: f64::INFINITY,
            low_stall: 0,
            start_iter: 0,
            base_matvecs: 0,
            base_lowprec_matvecs: 0,
            prelude_recovery: RecoveryLog::default(),
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
        for (dst, &bits) in self.ritzv.iter_mut().zip(&snap.ritzv_bits) {
            *dst = T::Real::from_f64_r(f64::from_bits(bits));
        }
        for (dst, &bits) in self.resd.iter_mut().zip(&snap.resd_bits) {
            *dst = T::Real::from_f64_r(f64::from_bits(bits));
        }
        for (dst, &d) in self.degs.iter_mut().zip(&snap.degs) {
            *dst = d as usize;
        }
        self.locked = snap.locked;
        self.warm_bounds = Some(snap.bounds::<T::Real>());
        self.start_iter = snap.iter;
        self.base_matvecs = snap.matvecs;
        self.base_lowprec_matvecs = snap.lowprec_matvecs;
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

    /// Redistribute `C2` (C-layout) into `B2` (B-layout): a single broadcast
    /// from the diagonal rank on square grids (Algorithm 2, line 14), an
    /// allgather + slice otherwise.
    fn update_b2(&mut self) {
        let ctx = self.dev.ctx();
        let ne = self.params.ne();
        if ctx.shape.is_square() {
            let root = ctx.col; // rank (j, j) within column communicator j
            if ctx.row == root {
                debug_assert_eq!(self.c2.rows(), self.b2.rows());
                self.b2.as_mut_slice().copy_from_slice(self.c2.as_slice());
            }
            self.dev.bcast(&ctx.col_comm, self.b2.as_mut_slice(), root);
        } else {
            let gathered = self.dev.allgather(&ctx.col_comm, self.c2.as_slice());
            let full = self.c_dist.assemble(&gathered, ne);
            self.b2 = full.select_rows(self.h.col_set.iter());
        }
    }

    /// Assemble the global iterate over the column communicator (every rank
    /// joins the collective) and persist a [`Snapshot`] from world rank 0
    /// via tmp+rename, so readers never observe a torn file. Write errors
    /// are swallowed deliberately: a full disk on rank 0 must not diverge
    /// its control flow from the other ranks' (recovery logs are compared
    /// bitwise across ranks).
    fn write_checkpoint(
        &self,
        iter: usize,
        matvecs: u64,
        lowprec_matvecs: u64,
        bounds: SpectralBounds<T::Real>,
    ) {
        let ctx = self.dev.ctx();
        let ne = self.params.ne();
        self.dev.set_region(Region::Other);
        let gathered = self.dev.allgather(&ctx.col_comm, self.c.as_slice());
        let full = self.c_dist.assemble(&gathered, ne);
        if ctx.world_rank() == 0 {
            if let Some(dir) = &self.params.checkpoint_dir {
                let snap = Snapshot::capture::<T>(
                    iter,
                    self.locked,
                    self.params.nev,
                    self.params.seed,
                    &bounds,
                    &self.ritzv,
                    &self.resd,
                    &self.degs,
                    matvecs,
                    lowprec_matvecs,
                    &full,
                );
                let _ = snap.save(dir);
            }
        }
        // Commit barrier: no rank may advance past this iteration until the
        // snapshot is durable. Without it a fast rank could crash in the
        // *next* iteration while rank 0 is still writing, making checkpoint
        // availability on recovery a wall-clock race instead of an
        // invariant ("a crash at iter N always finds the iter N-k file").
        let _ = ctx.world.allreduce_scalar(0.0);
    }

    /// `B[:, cols] = H C[:, cols]` for the `cols` columns from `offset`.
    fn h_times_c(&mut self, offset: usize, cols: usize) {
        hemm_c_to_b(
            self.dev,
            self.dev.ctx(),
            &self.h,
            &self.c,
            &mut self.b,
            offset,
            cols,
            T::one(),
            T::zero(),
        );
    }

    /// One Rayleigh–Ritz projection over the active columns
    /// (Algorithm 2, lines 14–20). Returns the active Ritz values.
    ///
    /// With guards enabled, a poisoned (non-finite) quotient or a failed
    /// redundant eigensolve returns `Err(())` — agreed across the whole
    /// world first, so every rank bails before the next collective and the
    /// SPMD call sequences stay aligned. Without guards the historic panic
    /// behavior is kept.
    fn rayleigh_ritz(&mut self) -> Result<Vec<T::Real>, ()> {
        self.dev.set_region(Region::RayleighRitz);
        let ne = self.params.ne();
        let act = ne - self.locked;
        let ctx = self.dev.ctx();

        self.update_b2();
        // B[:, act] = H C[:, act]
        self.h_times_c(self.locked, act);
        // A = B2[:, act]^H B[:, act], reduced over the row communicator.
        let mut a = Matrix::<T>::zeros(act, act);
        self.dev.gemm(
            Op::ConjTrans,
            Op::None,
            T::one(),
            self.b2.cols_ref(self.locked..ne),
            self.b.cols_ref(self.locked..ne),
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
            let bad = ctx
                .world
                .allreduce_scalar(if solved.is_some() { 0.0f64 } else { 1.0 });
            if bad > 0.0 {
                return Err(());
            }
        }
        let (vals, y) = solved.expect("Rayleigh-Ritz eigensolve failed");
        // Back-transform: C[:, act] = C2[:, act] Y (local within column comm).
        self.dev.gemm(
            Op::None,
            Op::None,
            T::one(),
            self.c2.cols_ref(self.locked..ne),
            y.as_ref(),
            T::zero(),
            self.c.cols_mut(self.locked..ne),
        );
        // C2 mirrors C on the active part; refresh B2 for the residuals.
        self.c2
            .cols_mut(self.locked..ne)
            .copy_from(self.c.cols_ref(self.locked..ne));
        self.update_b2();
        Ok(vals)
    }

    /// Residual norms of the active columns (Algorithm 2, lines 21–25).
    fn residuals(&mut self) {
        self.dev.set_region(Region::Residuals);
        let ne = self.params.ne();
        let act = ne - self.locked;
        let ctx = self.dev.ctx();
        // B[:, act] = H C[:, act]
        self.h_times_c(self.locked, act);
        // B -= ritzv .* B2 , column-wise (single batched BLAS-1 kernel).
        self.dev.blas1::<T>(self.h.n_c() * act * 2);
        let mut nrm: Vec<T::Real> = Vec::with_capacity(act);
        for k in 0..act {
            let j = self.locked + k;
            let lambda = self.ritzv[j];
            let (bj, b2j) = (self.b.col_mut(j), self.b2.col(j));
            for (x, y) in bj.iter_mut().zip(b2j) {
                *x -= y.scale(lambda);
            }
            nrm.push(chase_linalg::blas1::nrm2_sqr(bj));
        }
        self.dev.allreduce_sum_real::<T>(&ctx.row_comm, &mut nrm);
        for (k, v) in nrm.into_iter().enumerate() {
            self.resd[self.locked + k] = v.sqrt_r();
        }
    }

    /// Deflation & locking: after the Rayleigh–Ritz step the active columns
    /// are in ascending Ritz order, so locking the longest converged
    /// *prefix* guarantees the locked set is exactly the lowest eigenpairs
    /// (no holes — a converged pair above an unconverged one must wait).
    /// Returns how many were locked.
    fn lock_converged(&mut self, norm_h: T::Real) -> usize {
        let ne = self.params.ne();
        let tol = T::Real::from_f64_r(self.params.tol) * norm_h;
        let before = self.locked;
        while self.locked < ne && self.resd[self.locked] < tol {
            self.locked += 1;
        }
        self.locked - before
    }

    /// Fold any fault-injection records the device/comm layers produced
    /// since the last drain into the recovery log.
    fn drain_faults(&self, iter: usize, recovery: &mut RecoveryLog) {
        if let Some(plan) = self.dev.fault_plan() {
            for r in plan.take_records() {
                recovery.push(iter, RecoveryEventKind::Injected(r));
            }
        }
    }

    /// Roll the locked set back to `ckpt` and restart the active subspace
    /// from a fresh deterministic random block. The block is generated
    /// globally and sliced per rank — identical on every rank — so this
    /// also restores replica consistency after a detected divergence.
    fn rollback_and_restart(
        &mut self,
        iter: usize,
        mu_1: T::Real,
        init_deg: usize,
        ckpt: &Checkpoint<T>,
    ) -> (usize, usize) {
        let ne = self.params.ne();
        let kept = ckpt.locked;
        for j in 0..kept {
            self.c.col_mut(j).copy_from_slice(ckpt.c.col(j));
            self.ritzv[j] = ckpt.ritzv[j];
            self.resd[j] = ckpt.resd[j];
        }
        self.locked = kept;
        let restarted = ne - kept;
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.params.seed ^ 0x0dd_f00d ^ (iter as u64).rotate_left(32),
        );
        let fresh = Matrix::<T>::random(self.h.n, restarted, &mut rng);
        let local = fresh.select_rows(self.h.row_set.iter());
        for (t, j) in (kept..ne).enumerate() {
            self.c.col_mut(j).copy_from_slice(local.col(t));
            self.ritzv[j] = mu_1;
            self.resd[j] = <T::Real as Scalar>::one();
            self.degs[j] = init_deg;
        }
        self.c2 = self.c.clone();
        (kept, restarted)
    }

    /// Post-solve verification (fault-injection runs only): the returned
    /// eigenvalues must agree bitwise-closely across all replicas, and the
    /// residuals recomputed from scratch must match the reported ones. Any
    /// violation is world-agreed before returning so every rank exits the
    /// collectives in lockstep.
    fn verify_returned_pairs(
        &mut self,
        nev: usize,
        ritz: &[T::Real],
        reported: &[T::Real],
        norm_h: T::Real,
    ) -> Result<(), String> {
        let ctx = self.dev.ctx();
        let scale = norm_h.to_f64().max(1.0);
        let p = ctx.world.size() as f64;

        // (a) Replica agreement: grid-row divergence shows up here.
        let mut sums: Vec<f64> = ritz[..nev].iter().map(|v| v.to_f64()).collect();
        ctx.world.allreduce_sum(&mut sums);
        let mut detail = String::new();
        for (k, s) in sums.iter().enumerate() {
            let mine = ritz[k].to_f64();
            let avg = s / p;
            if !mine.is_finite() || (mine - avg).abs() > 1e-6 * scale {
                detail =
                    format!("eigenvalue {k} diverges across ranks (local {mine}, grid mean {avg})");
                break;
            }
        }
        let bad = ctx
            .world
            .allreduce_scalar(if detail.is_empty() { 0.0f64 } else { 1.0 });
        if bad > 0.0 {
            if detail.is_empty() {
                detail = "eigenvalue divergence detected on another rank".into();
            }
            return Err(detail);
        }

        // (b) Recompute residuals of the returned pairs from scratch: a
        // corrupted residual collective that caused a premature lock is
        // caught here.
        self.c2 = self.c.clone();
        self.update_b2();
        self.h_times_c(0, nev);
        let mut nrm: Vec<T::Real> = Vec::with_capacity(nev);
        for (k, &lambda) in ritz.iter().enumerate().take(nev) {
            let (bk, b2k) = (self.b.col_mut(k), self.b2.col(k));
            for (x, y) in bk.iter_mut().zip(b2k) {
                *x -= y.scale(lambda);
            }
            nrm.push(chase_linalg::blas1::nrm2_sqr(bk));
        }
        self.dev.allreduce_sum_real::<T>(&ctx.row_comm, &mut nrm);
        let mut detail = String::new();
        for (k, v) in nrm.into_iter().enumerate() {
            let r = v.sqrt_r().to_f64();
            let rep = reported[k].to_f64();
            if !r.is_finite() || r > 100.0 * rep + 1e-8 * scale {
                detail = format!("residual {k} recomputed as {r}, reported {rep}");
                break;
            }
        }
        let bad = ctx
            .world
            .allreduce_scalar(if detail.is_empty() { 0.0f64 } else { 1.0 });
        if bad > 0.0 {
            if detail.is_empty() {
                detail = "residual mismatch detected on another rank".into();
            }
            return Err(detail);
        }
        Ok(())
    }

    /// Run the full Algorithm 2 loop with the detection/recovery guard
    /// layer. Returns a typed [`ChaseError`] (carrying the recovery log)
    /// instead of hanging or silently returning corrupt eigenpairs.
    fn run(mut self) -> Result<ChaseResult<T>, ChaseError> {
        /// Rollback-restarts tolerated before declaring the run lost.
        const MAX_RESTARTS: usize = 3;
        let ne = self.params.ne();
        let nev = self.params.nev;
        let ctx = self.dev.ctx();
        ctx.trace_span_begin("solve", 0);
        // Recovery events already mirrored into the trace counter stream.
        let mut traced_recovery = 0usize;

        // Warm starts reuse the previous solve's (inflated) bounds and skip
        // the Lanczos phase entirely — the sequence's second saving besides
        // the reduced filter degrees.
        let warm_started = self.warm_bounds.is_some();
        let bounds = match self.warm_bounds {
            Some(b) => b,
            None => estimate_bounds_dist(self.dev, &self.h, ne, &self.params)?,
        };
        let b_sup = bounds.b_sup;
        let mut mu_1 = bounds.mu_1;
        let mut mu_ne = bounds.mu_ne;
        let norm_h = mu_1.abs_r().max_r(b_sup.abs_r());
        // Residual floor of the demoted filter: below ~50*eps_lo*||H|| the
        // low-precision recurrence can no longer separate the subspace.
        let lo_floor = LO_FLOOR_EPS_MULT
            * <<T::Lo as Scalar>::Real as RealScalar>::EPS.to_f64()
            * norm_h.to_f64();
        let mixed = self.params.precision == PrecisionMode::Mixed && T::HAS_LO;
        let mut lowprec_matvecs = self.base_lowprec_matvecs;

        let resumed = self.start_iter > 0;
        let init_deg = self.params.deg + self.params.deg % 2;
        if !resumed {
            // Initialize Ritz values at the lower estimate (used by the first
            // condition estimate; see Section 4.2's first-iteration caveat).
            // A checkpoint resume keeps the restored values instead.
            self.ritzv.fill(mu_1);
            self.degs.fill(init_deg);
        }

        let mut stats: Vec<IterStats> = Vec::new();
        let mut total_matvecs = self.base_matvecs;
        let mut converged = false;
        let mut iterations = self.start_iter;
        let mut recovery = std::mem::take(&mut self.prelude_recovery);
        let mut restarts = 0usize;
        // The rollback target: on resume the restored locked prefix already
        // is a known-good state, so seed it from there.
        let mut ckpt = Checkpoint {
            locked: self.locked,
            c: self.c.copy_cols(0..self.locked),
            ritzv: self.ritzv[..self.locked].to_vec(),
            resd: self.resd[..self.locked].to_vec(),
        };

        for iter in (self.start_iter + 1)..=self.params.max_iter {
            iterations = iter;
            // Re-opening "iteration" auto-closes the previous iteration span,
            // so the recovery `continue` paths need no explicit span end.
            ctx.trace_span_begin("iteration", iter as u64);
            if recovery.events.len() > traced_recovery {
                ctx.trace_counter(
                    "recovery_events",
                    (recovery.events.len() - traced_recovery) as u64,
                );
                traced_recovery = recovery.events.len();
            }
            if let Some(plan) = self.dev.fault_plan() {
                plan.set_iter(iter as u64);
            }
            let half = T::Real::from_f64_r(0.5);
            let c_center = (b_sup + mu_ne) * half;
            let e_half = (b_sup - mu_ne) * half;

            if iter > 1 {
                if self.params.optimize_degrees {
                    let new_degs = optimize_degrees(
                        &self.resd[self.locked..]
                            .iter()
                            .map(|r| r.to_f64())
                            .collect::<Vec<_>>(),
                        &self.ritzv[self.locked..]
                            .iter()
                            .map(|r| r.to_f64())
                            .collect::<Vec<_>>(),
                        c_center.to_f64(),
                        e_half.to_f64(),
                        self.params.tol * norm_h.to_f64(),
                        self.params.max_deg,
                    );
                    self.degs[self.locked..].copy_from_slice(&new_degs);
                } else {
                    for d in &mut self.degs[self.locked..] {
                        *d = init_deg;
                    }
                }
                // Sort active columns ascending by degree (Alg. 1 line 12).
                let perm = degree_sort_permutation(&self.degs[self.locked..]);
                permute_cols(&mut self.c, self.locked, &perm);
                permute_cols(&mut self.c2, self.locked, &perm);
                permute_vec(&mut self.ritzv[self.locked..], &perm);
                permute_vec(&mut self.resd[self.locked..], &perm);
                permute_vec(&mut self.degs[self.locked..], &perm);
            }

            // --- Filter (Algorithm 2 line 10) ---
            let fb = FilterBounds {
                c: c_center,
                e: e_half,
                mu_1,
            };
            let degrees: Vec<usize> = self.degs[self.locked..].to_vec();
            let exec = self.params.filter_exec();
            // --- Mixed-precision policy (pure function of world-replicated
            // state: residuals, Ritz values and the previous condition
            // estimate are identical on every rank, so the decision is too).
            // Residuals start at one(), so iteration 1 always qualifies.
            let max_active_res = self.resd[self.locked..]
                .iter()
                .fold(0.0f64, |m, r| m.max(r.to_f64()));
            if mixed && !self.escalated {
                if max_active_res < 0.7 * self.prev_low_max_res {
                    self.low_stall = 0;
                } else {
                    self.low_stall += 1;
                }
                self.prev_low_max_res = max_active_res;
            }
            let run_low = mixed
                && !self.escalated
                && max_active_res > lo_floor
                && self.low_stall < LO_STALL_LIMIT
                && self.prev_est_cond < LO_COND_LIMIT
                && fb.demote().is_valid();
            if mixed && !run_low && !self.escalated {
                // The policy declined once (floor reached, conditioning at
                // risk, or interval degenerates under demotion): stay full
                // for the rest of the solve so the schedule is monotone.
                self.escalated = true;
            }
            let filtered = if run_low {
                if self.h_lo.is_none() {
                    self.h_lo = Some(self.h.demote());
                }
                chebyshev_filter_mixed(
                    self.dev,
                    ctx,
                    self.h_lo.as_mut().expect("demoted replica just built"),
                    &mut self.c,
                    &mut self.b,
                    self.locked,
                    &degrees,
                    fb,
                    exec,
                )
            } else {
                chebyshev_filter_with(
                    self.dev,
                    ctx,
                    &mut self.h,
                    &mut self.c,
                    &mut self.b,
                    self.locked,
                    &degrees,
                    fb,
                    exec,
                )
            };
            let mv = match filtered {
                Ok(mv) => mv,
                Err(e) => {
                    self.drain_faults(iter, &mut recovery);
                    return Err(filter_abort(e, iter, recovery));
                }
            };
            total_matvecs += mv;
            if run_low {
                lowprec_matvecs += mv;
            }

            // --- Inject planned block faults (chaos harness only) ---
            if let Some(plan) = self.dev.fault_plan() {
                plan.apply_block_faults(&mut self.c, self.locked, ne - self.locked);
            }

            // --- Guard: post-filter finite check + bounded re-filter ---
            if self.params.guards {
                let mut attempt = 0usize;
                let mut precision_rung_used = false;
                loop {
                    let act = ne - self.locked;
                    let mut flags = vec![0.0f64; act];
                    for (k, f) in flags.iter_mut().enumerate() {
                        if self.c.col(self.locked + k).iter().any(|v| !v.is_finite()) {
                            *f = 1.0;
                        }
                    }
                    // Agree world-wide on which columns are poisoned: a NaN
                    // in one replica must trigger the same repair everywhere.
                    ctx.world.allreduce_sum(&mut flags);
                    let bad: Vec<usize> = flags
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| **f > 0.0)
                        .map(|(k, _)| self.locked + k)
                        .collect();
                    if bad.is_empty() {
                        break;
                    }
                    self.drain_faults(iter, &mut recovery);
                    recovery.push(iter, RecoveryEventKind::NonFiniteBlock { cols: bad.len() });
                    // Precision rung: when this iteration filtered demoted,
                    // non-finite output is most likely an f32 range problem,
                    // not a transient fault. Re-filter the poisoned columns
                    // at full precision and the *same* degrees before
                    // spending any bounded degree-bump attempts. Escalation
                    // is sticky and world-agreed (the poison set came from a
                    // world allreduce, so every rank takes this rung
                    // together).
                    if run_low && !precision_rung_used {
                        precision_rung_used = true;
                        self.escalated = true;
                        let mut by_degree: Vec<(usize, usize)> =
                            bad.iter().map(|&j| (self.degs[j], j)).collect();
                        by_degree.sort_unstable();
                        match self.refilter_columns(&by_degree, fb, exec) {
                            Ok(mv2) => total_matvecs += mv2,
                            Err(e) => {
                                self.drain_faults(iter, &mut recovery);
                                return Err(filter_abort(e, iter, recovery));
                            }
                        }
                        recovery.push(
                            iter,
                            RecoveryEventKind::PrecisionEscalated {
                                cols: by_degree.len(),
                            },
                        );
                        continue;
                    }
                    attempt += 1;
                    if attempt > self.params.max_refilter {
                        return Err(ChaseError {
                            kind: ChaseErrorKind::UnrecoverableNonFinite,
                            iter,
                            recovery,
                        });
                    }
                    // Restore poisoned columns from the pre-filter copy and
                    // re-filter them at a bumped (still even) degree.
                    let mut by_degree: Vec<(usize, usize)> = bad
                        .iter()
                        .map(|&j| {
                            let mut d = (self.degs[j] + 2 * attempt).min(self.params.max_deg);
                            d += d % 2;
                            (d, j)
                        })
                        .collect();
                    by_degree.sort_unstable();
                    match self.refilter_columns(&by_degree, fb, exec) {
                        Ok(mv2) => total_matvecs += mv2,
                        Err(e) => {
                            self.drain_faults(iter, &mut recovery);
                            return Err(filter_abort(e, iter, recovery));
                        }
                    }
                    recovery.push(
                        iter,
                        RecoveryEventKind::Refiltered {
                            cols: by_degree.len(),
                            degree: by_degree.last().map(|&(d, _)| d).unwrap_or(0),
                            attempt,
                        },
                    );
                }
            }

            // --- Condition estimate (Algorithm 2 line 11 / Algorithm 5) ---
            let est_cond = cond_est(
                &self.ritzv.iter().map(|r| r.to_f64()).collect::<Vec<_>>(),
                c_center.to_f64(),
                e_half.to_f64(),
                &self.degs,
                self.locked,
            );
            self.prev_est_cond = est_cond;

            // kappa_com of "the matrix of vectors outputted by the filter"
            // (Fig. 1): the active block only — locked columns were not
            // filtered this iteration.
            let true_cond = if self.params.track_true_cond {
                let gathered = ctx.col_comm.allgather(self.c.as_slice());
                let full = self.c_dist.assemble(&gathered, ne);
                let active = full.copy_cols(self.locked..ne);
                Some(chase_linalg::cond2(&active).to_f64())
            } else {
                None
            };

            // --- Flexible QR with escalation ladder (Algorithm 2 line 12) ---
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
                    recovery.push(
                        iter,
                        RecoveryEventKind::QrBreakdown {
                            variant: a.variant.name(),
                            detail: e.to_string(),
                        },
                    );
                    recovery.push(
                        iter,
                        RecoveryEventKind::QrEscalated {
                            from: a.variant.name(),
                            to: attempts[k + 1].variant.name(),
                        },
                    );
                }
            }
            if self.params.guards {
                // Each column communicator ran its ladder on its own replica.
                // If escalation counts disagree, the replicas have diverged:
                // roll back and restart the active subspace in lockstep.
                let esc = (attempts.len() - 1) as f64;
                let total = ctx.world.allreduce_scalar(esc);
                if total != esc * ctx.world.size() as f64 {
                    self.drain_faults(iter, &mut recovery);
                    recovery.push(iter, RecoveryEventKind::ReplicaDivergence { stage: "qr" });
                    restarts += 1;
                    if restarts > MAX_RESTARTS {
                        return Err(ChaseError {
                            kind: ChaseErrorKind::UnrecoverableNonFinite,
                            iter,
                            recovery,
                        });
                    }
                    let (kept, restarted) = self.rollback_and_restart(iter, mu_1, init_deg, &ckpt);
                    recovery.push(iter, RecoveryEventKind::LockedRollback { kept, restarted });
                    continue;
                }
            }
            // Line 13: restore exact locked vectors, refresh C2's active part.
            self.c
                .cols_mut(0..self.locked)
                .copy_from(self.c2.cols_ref(0..self.locked));
            self.c2
                .cols_mut(self.locked..ne)
                .copy_from(self.c.cols_ref(self.locked..ne));

            // --- Rayleigh-Ritz (lines 14-20) + residuals (21-25), guarded ---
            let mut regression: Option<(usize, u64)> = None;
            match self.rayleigh_ritz() {
                Ok(vals) => {
                    self.ritzv[self.locked..].copy_from_slice(&vals);
                    self.residuals();
                    if self.params.guards {
                        let mut local: Option<(usize, u64)> = None;
                        for j in self.locked..ne {
                            let rv = self.ritzv[j].to_f64();
                            let rs = self.resd[j].to_f64();
                            if !rv.is_finite() {
                                local = Some((j, rv.to_bits()));
                                break;
                            }
                            if !rs.is_finite() {
                                local = Some((j, rs.to_bits()));
                                break;
                            }
                        }
                        let bad =
                            ctx.world
                                .allreduce_scalar(if local.is_some() { 1.0f64 } else { 0.0 });
                        if bad > 0.0 {
                            regression =
                                Some(local.unwrap_or((self.locked, f64::INFINITY.to_bits())));
                        }
                    }
                }
                Err(()) => {
                    regression = Some((self.locked, f64::INFINITY.to_bits()));
                }
            }
            if let Some((col, value_bits)) = regression {
                self.drain_faults(iter, &mut recovery);
                recovery.push(
                    iter,
                    RecoveryEventKind::ResidualRegression { col, value_bits },
                );
                restarts += 1;
                if restarts > MAX_RESTARTS {
                    return Err(ChaseError {
                        kind: ChaseErrorKind::UnrecoverableNonFinite,
                        iter,
                        recovery,
                    });
                }
                let (kept, restarted) = self.rollback_and_restart(iter, mu_1, init_deg, &ckpt);
                recovery.push(iter, RecoveryEventKind::LockedRollback { kept, restarted });
                continue;
            }

            // --- Deflation & locking (line 26) ---
            let new_locked = self.lock_converged(norm_h);
            if new_locked > 0 {
                ckpt = Checkpoint {
                    locked: self.locked,
                    c: self.c.copy_cols(0..self.locked),
                    ritzv: self.ritzv[..self.locked].to_vec(),
                    resd: self.resd[..self.locked].to_vec(),
                };
            }

            let active_res = &self.resd[self.locked.min(ne - 1)..];
            stats.push(IterStats {
                iter,
                est_cond,
                true_cond,
                qr_variant,
                matvecs: mv,
                low_precision: run_low,
                new_locked,
                locked: self.locked,
                min_res: active_res
                    .iter()
                    .fold(f64::INFINITY, |m, r| m.min(r.to_f64())),
                max_res: active_res.iter().fold(0.0f64, |m, r| m.max(r.to_f64())),
                max_degree: *self.degs[self.locked.min(ne - 1)..]
                    .iter()
                    .max()
                    .unwrap_or(&0),
            });

            // Bound updates (Algorithm 2, lines 5-7).
            mu_1 = self
                .ritzv
                .iter()
                .copied()
                .fold(self.ritzv[0], |m, v| m.min_r(v));
            mu_ne = self
                .ritzv
                .iter()
                .copied()
                .fold(self.ritzv[0], |m, v| m.max_r(v));

            // --- Periodic checkpoint (elastic recovery substrate) ---
            // Every rank joins the assembly collective; rank 0 writes. The
            // saved event is pushed on every rank so cross-rank recovery
            // logs stay bitwise-identical.
            if self.params.checkpoint_every > 0
                && self.params.checkpoint_dir.is_some()
                && iter % self.params.checkpoint_every == 0
                && self.locked < nev
            {
                self.write_checkpoint(
                    iter,
                    total_matvecs,
                    lowprec_matvecs,
                    SpectralBounds { mu_1, mu_ne, b_sup },
                );
                recovery.push(
                    iter,
                    RecoveryEventKind::CheckpointSaved {
                        iter,
                        locked: self.locked,
                    },
                );
            }

            self.drain_faults(iter, &mut recovery);
            if self.locked >= nev {
                converged = true;
                break;
            }
        }
        self.drain_faults(iterations, &mut recovery);
        if recovery.events.len() > traced_recovery {
            ctx.trace_counter(
                "recovery_events",
                (recovery.events.len() - traced_recovery) as u64,
            );
        }
        ctx.trace_span_end("solve");

        // Sort the locked prefix ascending by Ritz value for clean output.
        let take = self.locked.max(nev.min(ne)).min(ne);
        let mut order: Vec<usize> = (0..take).collect();
        order.sort_by(|&a, &b| self.ritzv[a].partial_cmp(&self.ritzv[b]).unwrap());
        permute_cols(&mut self.c, 0, &order);
        let ritz_sorted: Vec<T::Real> = order.iter().map(|&i| self.ritzv[i]).collect();
        let res_sorted: Vec<T::Real> = order.iter().map(|&i| self.resd[i]).collect();

        // Chaos runs must never return silently-wrong eigenpairs: cross-check
        // the replicas and the residuals before handing the result back.
        if self.params.inject.is_some() {
            self.dev.set_region(Region::Other);
            if let Err(detail) = self.verify_returned_pairs(nev, &ritz_sorted, &res_sorted, norm_h)
            {
                self.drain_faults(iterations, &mut recovery);
                return Err(ChaseError {
                    kind: ChaseErrorKind::VerificationFailed { detail },
                    iter: iterations,
                    recovery,
                });
            }
            self.drain_faults(iterations, &mut recovery);
        }

        Ok(ChaseResult {
            eigenvalues: ritz_sorted[..nev].to_vec(),
            residuals: res_sorted[..nev].to_vec(),
            eigenvectors_local: self.c.copy_cols(0..nev),
            rows: self.h.row_set.clone(),
            n: self.h.n,
            iterations,
            matvecs: total_matvecs,
            lowprec_matvecs,
            converged,
            stats,
            norm_h: norm_h.to_f64(),
            bounds: SpectralBounds { mu_1, mu_ne, b_sup },
            warm_started,
            recovery,
            plan: self.params.plan.clone(),
        })
    }

    /// Restore the columns named in `by_degree` (sorted ascending
    /// `(degree, col)` pairs) from the pre-filter copy `C2` and re-filter
    /// them at full precision, writing the results (and degrees) back in
    /// place. Shared by the precision rung (same degrees) and the
    /// degree-bump rung (bumped degrees) of the recovery ladder.
    fn refilter_columns(
        &mut self,
        by_degree: &[(usize, usize)],
        fb: FilterBounds<T::Real>,
        exec: FilterExec,
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
            exec,
        )?;
        for (t, &(d, j)) in by_degree.iter().enumerate() {
            self.c.col_mut(j).copy_from_slice(tmp_c.col(t));
            self.degs[j] = d;
        }
        Ok(mv)
    }
}

/// Map a filter failure to the solver's typed abort, logging timeouts into
/// the recovery trail (spectrum/degree violations are caller bugs or stale
/// warm bounds — no recovery event, just the typed error).
fn filter_abort(e: FilterError, iter: usize, mut recovery: RecoveryLog) -> ChaseError {
    let kind = match e {
        FilterError::Comm(chase_comm::CommError::Timeout(t)) => {
            recovery.push(
                iter,
                RecoveryEventKind::Timeout {
                    op_id: t.op_id,
                    timeout_ms: t.timeout_ms,
                },
            );
            ChaseErrorKind::CollectiveTimeout(t)
        }
        FilterError::Comm(chase_comm::CommError::RankDead { dead, .. }) => {
            recovery.push(iter, RecoveryEventKind::RankDead { dead: dead.clone() });
            ChaseErrorKind::RankDead { dead }
        }
        FilterError::Comm(chase_comm::CommError::UnknownOp { op_id }) => {
            ChaseErrorKind::UnknownCollective { op_id }
        }
        FilterError::BadSpectrum(detail) | FilterError::BadDegrees(detail) => {
            ChaseErrorKind::BadSpectrum { detail }
        }
    };
    ChaseError {
        kind,
        iter,
        recovery,
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
/// into the rank's three communicators (payload corruption, delays, drops)
/// and into the device layer (filtered-block corruption); an unrecoverable
/// fault is a typed error carrying the recovery log.
pub fn solve_dist<T: Scalar + Reduce>(
    ctx: &chase_comm::RankCtx,
    backend: Backend,
    h: DistHerm<T>,
    params: &Params,
    warm: Option<&WarmStart<T>>,
) -> Result<ChaseResult<T>, ChaseError>
where
    T::Real: Reduce,
    T::Lo: Reduce,
{
    let start = warm.map_or(Start::Cold, Start::Warm);
    solve_from(ctx, backend, h, params, start)
}

/// What [`solve_dist`] refuses up front: parameters that do not fit an
/// `n x n` problem, or a warm block of the wrong shape (a session step whose
/// `n`, `nev` or `nex` differs from the step that produced the block).
fn check_input<T: Scalar>(params: &Params, n: usize, start: &Start<'_, T>) -> Result<(), String> {
    params.try_validate(n)?;
    if let Start::Warm(w) = start {
        let (rows, cols, ne) = (w.v0.rows(), w.v0.cols(), params.ne());
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
    T::Lo: Reduce,
{
    // Reject malformed input as a typed error before any collective work:
    // one bad workload entry must not abort a whole serve run.
    check_input(params, h.n, &start)
        .map_err(|detail| ChaseError::outside_loop(ChaseErrorKind::InvalidParams { detail }))?;
    let plan = params
        .inject
        .as_ref()
        .map(|spec| Arc::new(FaultPlan::new(spec.clone(), ctx.world_rank(), ctx.row)));
    // Installed for this solve only: the guard restores the rank's record
    // on return and when a `RankDeadPanic` unwinds to the elastic driver.
    let _seams = ctx.seams.scoped(|s| {
        s.wait_timeout_ms = params.wait_timeout_ms.or(s.wait_timeout_ms);
        if let Some(p) = &plan {
            s.fault_hook = Some(p.clone());
        }
    });
    if let Some(p) = &plan {
        // Mirror injections into the trace stream when a recorder is
        // installed on this rank.
        p.set_trace_hook(ctx.seams.get().trace.clone());
        // Arm rank-crash injections: without a death handle a `rank-crash`
        // site is inert, so plain solves never crash by accident.
        p.set_death_handle(Some(ctx.death_handle()));
    }
    let dev = Device::with_collectives(
        ctx,
        backend,
        params.collective,
        chase_device::Topology::juwels_booster(),
    )
    .with_faults(plan.clone());
    let warm = match start {
        Start::Warm(w) => Some(w),
        _ => None,
    };
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
        chase.prelude_recovery = prelude;
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
    T::Lo: Reduce,
{
    let ctx = chase_comm::solo_ctx();
    let dh = DistHerm::from_global(h, &ctx);
    solve_dist(&ctx, Backend::Nccl, dh, params, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn solve_restores_the_seam_record() {
        // `wait_timeout_ms: Some(..)` holds for that solve only: a later
        // solve on the same context with `None` gets the default back.
        let spec = chase_matgen::Spectrum::uniform(40, -1.0, 1.0);
        let h = chase_matgen::dense_with_spectrum::<f64>(&spec, 7);
        let ctx = chase_comm::solo_ctx();
        let mut p = Params::new(4, 3);
        for timeout in [Some(50), None] {
            p.wait_timeout_ms = timeout;
            let dh = DistHerm::from_global(&h, &ctx);
            assert!(solve_dist(&ctx, Backend::Nccl, dh, &p, None).is_ok());
        }
        assert_eq!(
            ctx.world.wait_timeout_ms(),
            chase_comm::DEFAULT_WAIT_TIMEOUT_MS
        );
        assert!(ctx.seams.get().fault_hook.is_none());
    }

    #[test]
    fn mismatched_warm_block_is_a_typed_error() {
        // A session step whose shape differs from the step that produced
        // the block: wrong row count, and more columns than the subspace.
        let h = chase_matgen::dense_with_spectrum::<f64>(
            &chase_matgen::Spectrum::uniform(48, -1.0, 1.0),
            7,
        );
        for (rows, cols, nev, nex) in [(64, 8, 5, 3), (48, 11, 3, 2), (48, 0, 5, 3)] {
            let warm = WarmStart::from_vectors(Matrix::<f64>::zeros(rows, cols));
            let err = solve_serial(&h, &Params::new(nev, nex), Some(&warm)).unwrap_err();
            assert!(
                matches!(&err.kind, ChaseErrorKind::InvalidParams { detail }
                    if detail.contains(&format!("{rows} x {cols}"))),
                "{rows} x {cols} block: {err}"
            );
            assert_eq!(err.iter, 0);
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
        /// `estimate_bounds_dist` (one block) and the bounds of the same
        /// runs made one at a time through a one-column operator.
        block_bounds: [u64; 3],
        one_by_one_bounds: [u64; 3],
        /// Steps each run took.
        steps: Vec<usize>,
        /// `(collectives, comm bytes, flops)` of the two.
        block_cost: (usize, u64, u64),
        one_by_one_cost: (usize, u64, u64),
    }

    fn lanczos_phase<T: Scalar + Reduce>(
        shape: GridShape,
        h: &Matrix<T>,
        params: &Params,
    ) -> Vec<LanczosPhase> {
        let n = h.rows();
        let ne = params.ne();
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
            let block = estimate_bounds_dist(&dev, &dh, ne, params).expect("finite H");
            let block_cost = cost(ctx.ledger_snapshot().since(from));

            let from = ctx.ledger_snapshot().len();
            let b_dist = RowDist::b_layout(n, ctx.shape, dist);
            let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0x1a9c205);
            let runs: Vec<_> = (0..params.lanczos_runs)
                .map(|_| {
                    let matvec = |x: &[T], y: &mut [T]| {
                        let xm = Matrix::from_vec(n, 1, x.to_vec());
                        y.copy_from_slice(matvec_replicated(&dev, ctx, &dh, &b_dist, &xm).col(0));
                    };
                    chase_linalg::lanczos_run(n, params.lanczos_steps, matvec, &mut rng)
                        .expect("finite H")
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
        let mut params = Params::new(n.div_ceil(4), n / 8);
        (params.lanczos_steps, params.lanczos_runs, params.seed) = (steps, runs, seed);
        for (p, q) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            let what = format!(
                "{} {p}x{q} n={n} distinct={distinct} scale={scale} steps={steps} runs={runs} seed={seed}",
                std::any::type_name::<T>()
            );
            let ranks = lanczos_phase(GridShape::new(p, q), &h, &params);
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
        let mut params = Params::new(8, 4);
        let mut one_run_bytes = Vec::new();
        for runs in [1, 4, 6] {
            params.lanczos_runs = runs;
            let ranks = lanczos_phase(GridShape::new(2, 2), &h, &params);
            if runs == 1 {
                one_run_bytes = ranks.iter().map(|r| r.block_cost.1).collect();
            }
            for (rank, one_run_bytes) in ranks.iter().zip(&one_run_bytes) {
                assert_eq!(rank.steps, vec![params.lanczos_steps; runs]);
                assert_eq!(rank.block_cost.0, 2 * params.lanczos_steps, "{runs} runs");
                assert_eq!(
                    rank.block_cost.1,
                    runs as u64 * one_run_bytes,
                    "{runs} runs"
                );
            }
        }
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
