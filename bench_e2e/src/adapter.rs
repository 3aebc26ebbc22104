//! Every call the benchmark makes into the `chase-*` crates lives in this
//! file, and each goes through a crate's public API only. The rest of the
//! benchmark (workloads, timing, statistics, reporting) sees plain data:
//! matrices, `f64` vectors, counts and the [`Rank`] handle. A refactor of
//! the crates' public surface (ROADMAP item 2) has to keep exactly what is
//! named here working, or change this one file.
//!
//! Functions open a span around the call they wrap (see [`crate::spans`]);
//! spans cost one atomic load while the traced pass is off.

use crate::spans;
use chase_check::MemberOrder;
use chase_comm::{
    run_grid, Category, Communicator, Distribution, GridShape, Ledger, RankCtx, SchedulePolicy,
    TraceHook,
};
use chase_core::{
    chebyshev_filter_mixed, chebyshev_filter_with, cholesky_qr, estimate_bounds_dist, flexible_qr,
    hemm_b_to_c, hemm_c_to_b, householder_qr_dist, load_latest, shifted_cholesky_qr2,
    try_solve_dist_warm, Chase, ChaseResult, DistHerm, FilterBounds, FilterExec, RowDist, Snapshot,
    WarmStart,
};
use chase_device::{Backend, CollectiveAlgo, Device, Topology};
use chase_direct::eigh_partial;
use chase_linalg::{
    gemm, gemm_prepacked, gram, heevd, householder_qr, potrf_upper, prepack_a, trsm_right_upper,
    ColsMut, ColsRef, Op, RealScalar,
};
use chase_matgen::{dense_with_spectrum, perturb_hermitian, Spectrum};
use chase_serve::{JobSpec, MatrixSource, Scheduler, SchedulerConfig};
use chase_trace::{chrome_trace, stitch, RankTrace, Trace, TraceEvent, TraceRecorder};
use chase_tune::{tune_entry, PlanDb, TuneOptions};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

pub use chase_core::Params;
pub use chase_linalg::{Matrix, C64};
pub use chase_trace::json::{escape as json_escape, parse as json_parse, Json};

/// A scalar type the solver can be driven with end to end.
pub trait BenchScalar:
    chase_linalg::Scalar<Real: chase_comm::Reduce, Lo: chase_comm::Reduce> + chase_comm::Reduce
{
}
impl BenchScalar for f64 {}
impl BenchScalar for C64 {}

/// Spectral shape of a generated matrix (chase-matgen's surrogates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Dft,
    Bse,
    Uniform,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Dft => "dft_like",
            Shape::Bse => "bse_like",
            Shape::Uniform => "uniform(-1,1)",
        }
    }

    fn spectrum(self, n: usize) -> Spectrum {
        match self {
            Shape::Dft => Spectrum::dft_like(n),
            Shape::Bse => Spectrum::bse_like(n),
            Shape::Uniform => Spectrum::uniform(n, -1.0, 1.0),
        }
    }
}

// ---- chase-matgen / chase-direct ------------------------------------------

/// Dense Hermitian matrix with the shape's prescribed spectrum, plus that
/// spectrum (ascending) as the oracle.
pub fn generate<T: BenchScalar>(shape: Shape, n: usize, seed: u64) -> (Matrix<T>, Vec<f64>) {
    let _s = spans::span("matgen.dense_with_spectrum");
    let spec = shape.spectrum(n);
    (
        dense_with_spectrum::<T>(&spec, seed),
        spec.values().to_vec(),
    )
}

/// One SCF-style step: `h + eps * P` with a seeded Hermitian `P`.
pub fn perturb<T: BenchScalar>(h: &Matrix<T>, eps: f64, seed: u64) -> Matrix<T> {
    let _s = spans::span("matgen.perturb_hermitian");
    perturb_hermitian(h, eps, seed)
}

/// The `nev` lowest eigenvalues by the dense direct solver (the oracle for
/// matrices whose spectrum is not prescribed).
pub fn direct_lowest<T: BenchScalar>(h: &Matrix<T>, nev: usize) -> Vec<f64> {
    let _s = spans::span("direct.eigh_partial");
    eigh_partial(h, nev, false)
        .eigenvalues
        .iter()
        .map(|v| v.to_f64())
        .collect()
}

// ---- the solve, as `chase solve` runs it ------------------------------------

/// Optional seams switched on around one solve (all off as shipped).
#[derive(Debug, Clone, Copy, Default)]
pub struct Seams {
    /// Install a chase-trace `TraceRecorder` on every rank.
    pub recorder: bool,
    /// Install chase-check's identity schedule gate on every rank.
    pub gate: bool,
}

/// What the benchmark keeps of one iteration for replaying its filter and
/// QR calls.
#[derive(Debug, Clone, PartialEq)]
pub struct IterShape {
    pub locked_before: usize,
    pub matvecs: u64,
    pub max_degree: usize,
    pub est_cond: f64,
}

/// One collective the solve issued, as chase-trace recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollRec {
    pub scope: Scope,
    pub op: CollOp,
    pub bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    World,
    Row,
    Col,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    AllReduce,
    Bcast,
    AllGather,
    Barrier,
}

/// Rank 0's view of a finished solve, reduced to plain data.
pub struct Solved<T: BenchScalar> {
    pub eigenvalues: Vec<f64>,
    pub residuals: Vec<f64>,
    pub converged: bool,
    pub norm_h: f64,
    pub matvecs: u64,
    pub iterations: u64,
    pub iters: Vec<IterShape>,
    /// `(mu_1, mu_ne, b_sup)` at exit.
    pub bounds: (f64, f64, f64),
    /// Rank 0's device ledger: events, flops, host<->device bytes.
    pub ledger_events: u64,
    pub ledger_flops: u64,
    pub ledger_transfer_bytes: u64,
    /// Filled when `Seams::recorder` was on.
    pub recorded: Option<Recorded>,
    /// Hand-off for warm-starting the next solve of a sequence.
    pub warm: WarmStart<T>,
}

/// What the chase-trace recorder saw (rank 0's stream + the full trace).
pub struct Recorded {
    pub events: u64,
    pub collectives: Vec<CollRec>,
    pub collective_bytes: u64,
    trace: Trace,
}

impl Recorded {
    /// chase-trace's own post-processing: stitch ranks + Chrome export.
    /// Returns the exported size so the work cannot be optimised away.
    pub fn stitch_and_export(&self) -> Result<usize, String> {
        let _s = spans::span("trace.stitch+chrome_trace");
        stitch(&self.trace).map_err(|e| e.to_string())?;
        Ok(chrome_trace(&self.trace).len())
    }
}

fn coll_recs(rank0: &RankTrace) -> Vec<CollRec> {
    rank0
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Collective {
                scope, op, bytes, ..
            } => Some(CollRec {
                scope: match scope {
                    chase_comm::CommScope::Row => Scope::Row,
                    chase_comm::CommScope::Col => Scope::Col,
                    _ => Scope::World,
                },
                op: match op.as_str() {
                    "bcast" | "ibcast" => CollOp::Bcast,
                    "allgather" | "iallgather" => CollOp::AllGather,
                    "barrier" => CollOp::Barrier,
                    _ => CollOp::AllReduce,
                },
                bytes: *bytes,
            }),
            _ => None,
        })
        .collect()
}

/// One eigenproblem solved on a `p x q` thread grid, exactly as the CLI's
/// `chase solve` does it: spawn the grid, carve the block distribution out
/// of the replicated matrix, run `try_solve_dist`.
pub fn solve<T: BenchScalar>(
    h: &Matrix<T>,
    params: &Params,
    grid: (usize, usize),
    seams: Seams,
    warm: Option<&WarmStart<T>>,
) -> Result<Solved<T>, String> {
    let grid_span = spans::span("comm.run_grid");
    let parent = grid_span.id();
    let out = run_grid(GridShape::new(grid.0, grid.1), move |ctx| {
        let rank = ctx.world_rank();
        let rec = seams
            .recorder
            .then(|| Arc::new(TraceRecorder::new(ctx.world_rank())));
        if let Some(r) = &rec {
            ctx.set_trace_hook(Some(r.clone() as Arc<dyn TraceHook>));
        }
        if seams.gate {
            ctx.set_schedule_policy(Some(Arc::new(MemberOrder) as Arc<dyn SchedulePolicy>));
        }
        let dh = {
            let _s = spans::span_on(rank, parent, "core.DistHerm::from_global_dist");
            DistHerm::from_global_dist(h, ctx, Distribution::Block)
        };
        let result = {
            let _s = spans::span_on(rank, parent, "core.try_solve_dist");
            try_solve_dist_warm(ctx, Backend::Nccl, dh, params, warm)
        };
        ctx.set_schedule_policy(None);
        ctx.set_trace_hook(None);
        (result, rec.map(|r| r.finish()))
    });
    drop(grid_span);
    let ledger: &Ledger = &out.ledgers[0];
    let (ledger_events, ledger_flops, ledger_transfer_bytes) = (
        ledger.len() as u64,
        ledger.events().iter().map(|e| e.kind.flops()).sum(),
        ledger.bytes_in(Category::Transfer),
    );
    let mut results = Vec::with_capacity(out.results.len());
    let mut ranks = Vec::new();
    for (res, trace) in out.results {
        results.push(res.map_err(|e| e.to_string())?);
        ranks.extend(trace);
    }
    let recorded = seams.recorder.then(|| Recorded {
        events: ranks[0].events.len() as u64,
        collectives: coll_recs(&ranks[0]),
        collective_bytes: ranks[0].comm_bytes(),
        trace: Trace { ranks },
    });
    let warm = WarmStart::from_results(&results);
    let r: &ChaseResult<T> = &results[0];
    let mut locked = 0;
    let iters = r
        .stats
        .iter()
        .map(|s| {
            let it = IterShape {
                locked_before: locked,
                matvecs: s.matvecs,
                max_degree: s.max_degree,
                est_cond: s.est_cond,
            };
            locked = s.locked;
            it
        })
        .collect();
    Ok(Solved {
        eigenvalues: r.eigenvalues.iter().map(|v| v.to_f64()).collect(),
        residuals: r.residuals.iter().map(|v| v.to_f64()).collect(),
        converged: r.converged,
        norm_h: r.norm_h,
        matvecs: r.matvecs,
        iterations: r.iterations as u64,
        iters,
        bounds: (
            r.bounds.mu_1.to_f64(),
            r.bounds.mu_ne.to_f64(),
            r.bounds.b_sup.to_f64(),
        ),
        ledger_events,
        ledger_flops,
        ledger_transfer_bytes,
        recorded,
        warm,
    })
}

/// Spawn a grid whose ranks only meet at one barrier: the fixed cost every
/// solve pays before any numerical work.
pub fn spawn_grid(grid: (usize, usize)) {
    run_grid(GridShape::new(grid.0, grid.1), |ctx| ctx.world.barrier());
}

// ---- chase-serve --------------------------------------------------------------

/// One job of a session chain, its matrix already in memory.
pub struct ChainJob {
    pub session: String,
    pub step: usize,
    pub matrix: Arc<Matrix<C64>>,
    pub params: Params,
}

/// Per-job outcome of a drain, in submission order.
pub struct JobOut {
    pub eigenvalues: Vec<f64>,
    pub residuals: Vec<f64>,
    pub converged: bool,
    pub norm_h: f64,
    pub matvecs: u64,
    pub iterations: u64,
}

pub struct Drained {
    /// Wall time of `Scheduler::drain` alone.
    pub wall_s: f64,
    /// `Err` carries the job's failure text.
    pub jobs: Vec<Result<JobOut, String>>,
    pub warm_hit_rate: f64,
    pub matvecs_total: u64,
    pub matvecs_saved: u64,
}

/// Submit the chain to a fresh `Scheduler` (empty session cache) with
/// `workers` 1x1 workers and drain it.
pub fn drain_chain(jobs: &[ChainJob], workers: usize, cache_bytes: usize) -> Drained {
    let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig {
        workers,
        cache_bytes,
        ..SchedulerConfig::default()
    });
    for j in jobs {
        let spec = JobSpec::new(
            format!("{}{}", j.session, j.step),
            MatrixSource::InMemory(j.matrix.clone()),
            j.params.clone(),
        )
        .in_session(j.session.clone(), j.step);
        sched.submit(spec).expect("chain fits the queue");
    }
    let t = Instant::now();
    let reports = {
        let _s = spans::span("serve.Scheduler::drain");
        sched.drain()
    };
    let wall_s = t.elapsed().as_secs_f64();
    let jobs = reports
        .iter()
        .map(|r| match r.solve() {
            Some(s) => Ok(JobOut {
                eigenvalues: s.eigenvalues.iter().map(|v| v.to_f64()).collect(),
                residuals: s.residuals.iter().map(|v| v.to_f64()).collect(),
                converged: s.converged,
                norm_h: s
                    .bounds
                    .mu_1
                    .to_f64()
                    .abs()
                    .max(s.bounds.b_sup.to_f64().abs()),
                matvecs: s.matvecs,
                iterations: s.iterations as u64,
            }),
            None => Err(match r.failed() {
                Some(e) => e.to_string(),
                None => "job did not run".into(),
            }),
        })
        .collect();
    Drained {
        wall_s,
        jobs,
        warm_hit_rate: sched.metrics.warm_hit_rate(),
        matvecs_total: sched.metrics.total_matvecs,
        matvecs_saved: sched.metrics.matvecs_saved,
    }
}

// ---- per-rank handle for the traced pass ----------------------------------------

/// How one filter call executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    Flat,
    Pipelined,
    Mixed,
}

/// Collective path of a block allreduce (chase-topo's hop schedules vs the
/// flat rendezvous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hops {
    Flat,
    Ring,
    Tree,
}

/// One rank inside a live grid, holding the workload's distributed matrix
/// and solver-shaped buffers. Each method is one public-API call (or the
/// smallest group that makes sense to time together); the caller times it.
pub struct Rank<'a, T: BenchScalar> {
    ctx: &'a RankCtx,
    dev: Device<'a>,
    /// The same rank with chase-topo's ring / tree hop schedules forced.
    dev_ring: Device<'a>,
    dev_tree: Device<'a>,
    h: DistHerm<T>,
    h_lo: Option<DistHerm<T::Lo>>,
    params: Params,
    c_dist: RowDist,
    /// Pristine random block: all `n` rows, and this rank's rows
    /// (`n_r x ne`).
    x_full: &'a Matrix<T>,
    x0: Matrix<T>,
    /// Working C-layout block (`n_r x ne`).
    c: Matrix<T>,
    /// Working B-layout block (`n_c x ne`).
    b: Matrix<T>,
    /// Collective payload of the filter's block allreduce.
    payload: Vec<T>,
    scratch: Vec<f64>,
}

/// Run `f` on every rank of a fresh grid over `h`; per-rank results in
/// world-rank order.
pub fn with_grid<T: BenchScalar, R: Send>(
    h: &Matrix<T>,
    params: &Params,
    grid: (usize, usize),
    f: impl Fn(&mut Rank<'_, T>) -> R + Send + Sync,
) -> Vec<R> {
    let shape = GridShape::new(grid.0, grid.1);
    let ne = params.ne();
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0xb10c);
    let x_global = Matrix::<T>::random(h.rows(), ne, &mut rng);
    let x_global = &x_global;
    run_grid(shape, |ctx| {
        let dh = DistHerm::from_global_dist(h, ctx, Distribution::Block);
        let x0 = x_global.select_rows(dh.row_set.iter());
        let b = Matrix::zeros(dh.n_c(), ne);
        // The larger of the two filter payloads that crosses a communicator
        // with more than one member (the whole block on a 1x1 grid).
        let block = match (shape.p > 1, shape.q > 1) {
            (true, false) => dh.n_c() * ne,
            (false, true) => dh.n_r() * ne,
            _ => dh.n_r().max(dh.n_c()) * ne,
        };
        let mut rank = Rank {
            ctx,
            dev: Device::new(ctx, Backend::Nccl),
            dev_ring: hop_device(ctx, CollectiveAlgo::Ring),
            dev_tree: hop_device(ctx, CollectiveAlgo::Tree),
            c_dist: RowDist::c_layout(h.rows(), shape, Distribution::Block),
            c: x0.clone(),
            x_full: x_global,
            x0,
            b,
            h: dh,
            h_lo: None,
            params: params.clone(),
            payload: vec![T::one(); block],
            scratch: Vec::new(),
        };
        f(&mut rank)
    })
    .results
}

fn hop_device(ctx: &RankCtx, algo: CollectiveAlgo) -> Device<'_> {
    Device::with_collectives(ctx, Backend::Nccl, algo, Topology::juwels_booster())
}

/// The communicator the filter's block allreduce crosses: the one with more
/// than one member (the row communicator on a square grid).
fn block_comm(ctx: &RankCtx) -> &Communicator {
    if ctx.shape.q > 1 {
        &ctx.row_comm
    } else {
        &ctx.col_comm
    }
}

impl<T: BenchScalar> Rank<'_, T> {
    pub fn rank(&self) -> usize {
        self.ctx.world_rank()
    }

    pub fn barrier(&self) {
        self.ctx.world.barrier();
    }

    /// Restore the working block to the pristine random block.
    pub fn reset_block(&mut self) {
        self.c.as_mut_slice().copy_from_slice(self.x0.as_slice());
    }

    /// Local block shape `(n_r, n_c, ne)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.h.n_r(), self.h.n_c(), self.params.ne())
    }

    pub fn block_bytes(&self) -> u64 {
        std::mem::size_of_val(self.payload.as_slice()) as u64
    }

    // -- chase-core ------------------------------------------------------------

    pub fn lanczos(&self) {
        let _s = spans::span_on(self.rank(), 0, "core.estimate_bounds_dist");
        std::hint::black_box(estimate_bounds_dist(
            &self.dev,
            &self.h,
            self.params.ne(),
            &self.params,
        ));
    }

    /// Filter columns `offset..offset + degrees.len()` of the working block.
    pub fn filter(
        &mut self,
        offset: usize,
        degrees: &[usize],
        bounds: (f64, f64, f64),
        mode: FilterMode,
    ) -> u64 {
        let _s = spans::span_on(self.rank(), 0, "core.chebyshev_filter");
        let r = <T::Real as RealScalar>::from_f64_r;
        let fb = FilterBounds::from_spectrum(r(bounds.0), r(bounds.1), r(bounds.2));
        let (dev, ctx) = (&self.dev, self.ctx);
        match mode {
            FilterMode::Flat | FilterMode::Pipelined => {
                let exec = if mode == FilterMode::Flat {
                    FilterExec::Flat
                } else {
                    FilterExec::Pipelined { panel: None }
                };
                chebyshev_filter_with(
                    dev,
                    ctx,
                    &mut self.h,
                    &mut self.c,
                    &mut self.b,
                    offset,
                    degrees,
                    fb,
                    exec,
                )
            }
            FilterMode::Mixed => {
                let h = &self.h;
                chebyshev_filter_mixed(
                    dev,
                    ctx,
                    self.h_lo.get_or_insert_with(|| h.demote()),
                    &mut self.c,
                    &mut self.b,
                    offset,
                    degrees,
                    fb,
                    FilterExec::Flat,
                )
            }
        }
        .expect("replayed filter call is valid")
    }

    /// Build the demoted `H` replica ahead of a mixed filter call, so its
    /// one-off cost stays out of the timed call.
    pub fn prepare_mixed(&mut self) {
        if self.h_lo.is_none() {
            self.h_lo = Some(self.h.demote());
        }
    }

    /// The solver's QR step (Algorithm 4 switchboard) on the working block.
    pub fn qr(&mut self, est_cond: f64) {
        let _s = spans::span_on(self.rank(), 0, "core.flexible_qr");
        flexible_qr(
            &self.dev,
            &self.ctx.col_comm,
            &mut self.c,
            &self.c_dist,
            est_cond,
            self.params.qr,
        );
    }

    pub fn cholqr2(&mut self) {
        cholesky_qr(&self.dev, &self.ctx.col_comm, &mut self.c, 2).expect("random block is PD");
    }

    pub fn scholqr2(&mut self) {
        shifted_cholesky_qr2(&self.dev, &self.ctx.col_comm, &mut self.c, self.h.n)
            .expect("random block is PD");
    }

    pub fn hhqr(&mut self) {
        householder_qr_dist(&self.dev, &self.ctx.col_comm, &mut self.c, &self.c_dist);
    }

    pub fn hemm_c_to_b(&mut self) {
        let ne = self.params.ne();
        hemm_c_to_b(
            &self.dev,
            self.ctx,
            &self.h,
            &self.c,
            &mut self.b,
            0,
            ne,
            T::one(),
            T::zero(),
        );
    }

    pub fn hemm_b_to_c(&mut self) {
        let ne = self.params.ne();
        hemm_b_to_c(
            &self.dev,
            self.ctx,
            &self.h,
            &self.b,
            &mut self.c,
            0,
            ne,
            T::one(),
            T::zero(),
        );
    }

    /// Bytes this rank's solver state occupies (the paper's Eq. 2, live):
    /// `Chase::memory_report` of a solver built on this rank's block.
    pub fn solver_bytes(&self, h_global: &Matrix<T>) -> usize {
        let dh = DistHerm::from_global_dist(h_global, self.ctx, Distribution::Block);
        Chase::new(&self.dev, dh, self.params.clone(), None)
            .memory_report()
            .total()
    }

    // -- chase-linalg kernels on the rank's own block shapes ----------------------

    /// `C = H_loc * B` (`n_r x n_c` times `n_c x ne`).
    pub fn gemm_nn(&mut self) {
        gemm(
            Op::None,
            Op::None,
            T::one(),
            self.h.local.as_ref(),
            self.b.as_ref(),
            T::zero(),
            self.c.as_mut(),
        );
    }

    /// `A = X^H Y` (`ne x ne` from two `n_r x ne` blocks): the Rayleigh-Ritz
    /// quotient's shape.
    pub fn gemm_cn(&self) -> Matrix<T> {
        let ne = self.params.ne();
        let mut a = Matrix::zeros(ne, ne);
        gemm(
            Op::ConjTrans,
            Op::None,
            T::one(),
            self.x0.as_ref(),
            self.c.as_ref(),
            T::zero(),
            a.as_mut(),
        );
        a
    }

    /// Seconds to prepack `H_loc^H`, then seconds for the GEMM against the
    /// prepacked operand (`n_c x n_r` times `n_r x ne`).
    pub fn prepack_then_gemm(&mut self) -> (f64, f64) {
        let t = Instant::now();
        let packed = prepack_a(Op::ConjTrans, self.h.local.as_ref());
        let pack_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        gemm_prepacked(
            &packed,
            Op::None,
            T::one(),
            self.c.as_ref(),
            T::zero(),
            self.b.as_mut(),
        );
        (pack_s, t.elapsed().as_secs_f64())
    }

    /// The solver's matrix-vector product as `matvec_replicated` issues it:
    /// a one-column `H_loc^H x` GEMM.
    pub fn matvec_local(&mut self) {
        let (n_r, n_c) = (self.h.n_r(), self.h.n_c());
        gemm(
            Op::ConjTrans,
            Op::None,
            T::one(),
            self.h.local.as_ref(),
            ColsRef::new(self.x0.col(0), n_r, 1),
            T::zero(),
            ColsMut::new(self.b.col_mut(0), n_c, 1),
        );
    }

    pub fn gram(&self) -> Matrix<T> {
        gram(self.x0.as_ref())
    }

    pub fn potrf(&self, g: &Matrix<T>) -> Matrix<T> {
        potrf_upper(g).expect("Gram matrix of a random block is PD")
    }

    pub fn trsm(&mut self, r: &Matrix<T>) {
        trsm_right_upper(self.c.as_mut(), r);
    }

    pub fn heevd(&self, a: &Matrix<T>) {
        std::hint::black_box(heevd(a).expect("heevd converges"));
    }

    /// Householder QR of the whole `n x ne` block (what
    /// `householder_qr_dist` factors after gathering the rows).
    pub fn hhqr_local(&self) {
        std::hint::black_box(householder_qr(self.x_full));
    }

    // -- chase-comm / chase-topo collectives ---------------------------------------

    pub fn allreduce_8b(&self) {
        std::hint::black_box(self.ctx.world.allreduce_scalar(1.0f64));
    }

    pub fn block_allreduce(&mut self, hops: Hops) {
        let dev = match hops {
            Hops::Flat => &self.dev,
            Hops::Ring => &self.dev_ring,
            Hops::Tree => &self.dev_tree,
        };
        dev.allreduce_sum(block_comm(self.ctx), &mut self.payload);
    }

    pub fn block_bcast(&mut self) {
        self.dev.bcast(block_comm(self.ctx), &mut self.payload, 0);
    }

    /// Each member contributes `block / members` elements.
    pub fn block_allgather(&self) {
        let comm = block_comm(self.ctx);
        let share = self.payload.len() / comm.size();
        std::hint::black_box(self.dev.allgather(comm, &self.payload[..share]));
    }

    /// Nonblocking post immediately followed by its wait.
    pub fn block_iallreduce(&mut self) {
        let req = self.dev.iallreduce_sum(block_comm(self.ctx), &self.payload);
        req.wait(&mut self.payload)
            .expect("nonblocking allreduce completes");
    }

    /// Re-issue a recorded collective sequence (same op, bytes and
    /// communicator) with no compute in between.
    pub fn replay_collectives(&mut self, recs: &[CollRec]) {
        let _s = spans::span_on(self.rank(), 0, "comm.replay");
        for rec in recs {
            let comm = match rec.scope {
                Scope::World => &self.ctx.world,
                Scope::Row => &self.ctx.row_comm,
                Scope::Col => &self.ctx.col_comm,
            };
            let len = (rec.bytes as usize).div_ceil(8);
            if self.scratch.len() < len {
                self.scratch.resize(len, 1.0);
            }
            let buf = &mut self.scratch[..len];
            match rec.op {
                CollOp::AllReduce => comm.allreduce_sum(buf),
                CollOp::Bcast => comm.bcast(buf, 0),
                CollOp::AllGather => {
                    std::hint::black_box(comm.allgather(buf));
                }
                CollOp::Barrier => comm.barrier(),
            }
        }
    }

    // -- chase-tune ----------------------------------------------------------------

    /// A cold wall-clock tuning pass for this solve configuration; returns
    /// the plan database holding the one measured entry (rank-identical).
    pub fn tune(&mut self) -> TunedDb {
        let _s = spans::span_on(self.rank(), 0, "tune.tune_entry");
        let out = tune_entry(
            self.ctx,
            &mut self.h,
            self.params.nev,
            self.params.nex,
            &TuneOptions::wall_clock(),
        );
        let mut db = PlanDb::new();
        db.insert(out.entry);
        TunedDb(db)
    }
}

/// A chase-tune plan database, opaque to the rest of the benchmark.
pub struct TunedDb(PlanDb);

impl TunedDb {
    /// Emit, parse back, and compare: chase-tune's persistence round trip.
    pub fn roundtrip(&self) -> Result<usize, String> {
        let text = self.0.emit();
        let back = PlanDb::parse(&text).map_err(|e| e.to_string())?;
        if back.emit() != text {
            return Err("plan db emit/parse is not an identity".into());
        }
        Ok(text.len())
    }
}

// ---- chase-core checkpoints -----------------------------------------------------

/// Save a solver-shaped checkpoint (`n x ne` iterate) into `dir`, load the
/// latest back; `(save_s, load_s, file_bytes)`.
pub fn checkpoint_roundtrip<T: BenchScalar>(
    n: usize,
    params: &Params,
    bounds: (f64, f64, f64),
    dir: &std::path::Path,
) -> Result<(f64, f64, u64), String> {
    let ne = params.ne();
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0xc4e7);
    let c_global = Matrix::<T>::random(n, ne, &mut rng);
    let r = <T::Real as RealScalar>::from_f64_r;
    let sb = chase_linalg::SpectralBounds {
        mu_1: r(bounds.0),
        mu_ne: r(bounds.1),
        b_sup: r(bounds.2),
    };
    let t = Instant::now();
    let snap = Snapshot::capture::<T>(
        1,
        0,
        params.nev,
        params.seed,
        &sb,
        &vec![r(0.0); ne],
        &vec![r(1.0); ne],
        &vec![params.deg; ne],
        0,
        0,
        &c_global,
    );
    let path = snap.save(dir).map_err(|e| e.to_string())?;
    let save_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let t = Instant::now();
    let back = load_latest(dir)
        .map_err(|errs| format!("{} unreadable checkpoint file(s)", errs.len()))?
        .ok_or("no checkpoint found after save")?;
    let load_s = t.elapsed().as_secs_f64();
    if back.c_global::<T>().map_err(|e| e.to_string())? != c_global {
        return Err("checkpoint iterate did not round-trip".into());
    }
    Ok((save_s, load_s, bytes))
}
