//! # chase-device
//!
//! Simulated GPU execution layer. In the original library every major kernel
//! is a cuBLAS/cuSOLVER call and every collective either stages through host
//! memory (ChASE(STD): MPI on host buffers, explicit `cudaMemcpy` before and
//! after) or goes device-direct (ChASE(NCCL): GPUDirect collectives,
//! Section 3.3 of the paper).
//!
//! Here the math itself runs on the CPU through `chase-linalg`, but the
//! *cost structure* of each build is preserved by recording, per operation,
//! exactly the events the real build would incur:
//!
//! * every kernel records a `Compute` event with its flop count;
//! * `Std`/`Lms` collectives record a `D2H` copy, the collective, and an
//!   `H2D` copy (the blue data-movement bars of Fig. 2);
//! * `Nccl` collectives record only the collective itself.

use chase_comm::{
    now_us, CommError, Communicator, EventKind, LinkClass, RankCtx, Reduce, Region, Request,
};
use chase_faults::FaultPlan;
use chase_linalg::matrix::{ColsMut, ColsRef};
use chase_linalg::{Matrix, NotPositiveDefinite, Scalar};
use chase_topo::{exec, CollOp, Tuner, NOMINAL_GEMM_FLOPS};
use std::sync::Arc;

pub use chase_topo::{Algo, CollectiveAlgo, Topology};

/// Which of the paper's three builds is being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// ChASE v1.2 ("Limited Memory and Scaling"): legacy layout, MPI
    /// collectives with host staging, redundant QR/RR/Residuals.
    Lms,
    /// New parallelization scheme, MPI collectives with host staging.
    Std,
    /// New parallelization scheme, device-direct NCCL collectives.
    Nccl,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Lms => "ChASE(LMS)",
            Backend::Std => "ChASE(STD)",
            Backend::Nccl => "ChASE(NCCL)",
        }
    }

    /// Whether collectives must stage through host memory.
    pub fn stages_through_host(self) -> bool {
        !matches!(self, Backend::Nccl)
    }
}

/// A rank's device handle: wraps the rank context with a backend and routes
/// every kernel/collective through the ledger.
pub struct Device<'a> {
    ctx: &'a RankCtx,
    backend: Backend,
    collective: CollectiveAlgo,
    topo: Topology,
    /// Chaos harness: when present, collective payloads pass through the
    /// plan's corruption hooks before posting. `None` in production runs.
    faults: Option<Arc<FaultPlan>>,
}

impl<'a> Device<'a> {
    /// A device on the original flat collective path — the one every solve
    /// takes.
    pub fn new(ctx: &'a RankCtx, backend: Backend) -> Self {
        Self::with_collectives(
            ctx,
            backend,
            CollectiveAlgo::Flat,
            Topology::juwels_booster(),
        )
    }

    /// A device routing its collectives through the `chase-topo` hop
    /// schedules (unless `collective` is [`CollectiveAlgo::Flat`]). The
    /// topo path emits chunk-granular `P2p` events over the physical links
    /// of `topo` instead of one flat collective event; staging copies are
    /// recorded the same way on both paths. The forced schedules serve the
    /// benchmark's topology probe and the tests.
    pub fn with_collectives(
        ctx: &'a RankCtx,
        backend: Backend,
        collective: CollectiveAlgo,
        topo: Topology,
    ) -> Self {
        Self {
            ctx,
            backend,
            collective,
            topo,
            faults: None,
        }
    }

    /// Attach a fault plan: collective payloads are routed through its
    /// corruption hooks and `set_region` keeps its trigger clock in sync.
    pub fn with_faults(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.faults = plan;
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    pub fn backend(&self) -> Backend {
        self.backend
    }

    pub fn ctx(&self) -> &RankCtx {
        self.ctx
    }

    /// Attribute subsequent events to a ChASE kernel region.
    pub fn set_region(&self, region: Region) {
        self.ctx.set_region(region);
        if let Some(plan) = &self.faults {
            plan.set_region(region);
        }
    }

    // ---- compute kernels -------------------------------------------------

    /// `C = alpha op(A) op(B) + beta C` on the device.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm<T: Scalar>(
        &self,
        opa: chase_linalg::Op,
        opb: chase_linalg::Op,
        alpha: T,
        a: ColsRef<'_, T>,
        b: ColsRef<'_, T>,
        beta: T,
        c: ColsMut<'_, T>,
    ) {
        let m = c.rows() as u64;
        let n = c.cols() as u64;
        let k = match opa {
            chase_linalg::Op::None => a.cols(),
            _ => a.rows(),
        } as u64;
        // Spanned: the ledger keeps the GEMM's wall time.
        let t0 = now_us();
        chase_linalg::gemm(opa, opb, alpha, a, b, beta, c);
        self.ctx.record_spanned(EventKind::Gemm { m, n, k }, t0);
    }

    /// [`Device::gemm`] against a prepacked `op(A)` — the pipelined filter
    /// packs the operand once per step and reuses it for every column panel.
    pub fn gemm_prepacked<T: Scalar>(
        &self,
        a: &chase_linalg::Prepacked<'_, T>,
        opb: chase_linalg::Op,
        alpha: T,
        b: ColsRef<'_, T>,
        beta: T,
        c: ColsMut<'_, T>,
    ) {
        let (m, n) = (c.rows() as u64, c.cols() as u64);
        let k = a.k() as u64;
        let t0 = now_us();
        chase_linalg::gemm_prepacked(a, opb, alpha, b, beta, c);
        self.ctx.record_spanned(EventKind::Gemm { m, n, k }, t0);
    }

    /// Gram matrix `X^H X` (cuBLAS `zherk` role).
    pub fn gram<T: Scalar>(&self, x: ColsRef<'_, T>) -> Matrix<T> {
        self.ctx.record(EventKind::Herk {
            m: x.rows() as u64,
            n: x.cols() as u64,
        });
        chase_linalg::gram(x)
    }

    /// Cholesky factorization (cuSOLVER `zpotrf` role).
    pub fn potrf<T: Scalar>(&self, a: &Matrix<T>) -> Result<Matrix<T>, NotPositiveDefinite> {
        self.ctx.record(EventKind::Potrf { n: a.rows() as u64 });
        chase_linalg::potrf_upper(a)
    }

    /// Triangular solve `X := X R^{-1}` (cuBLAS `ztrsm` role).
    pub fn trsm<T: Scalar>(&self, x: ColsMut<'_, T>, r: &Matrix<T>) {
        self.ctx.record(EventKind::Trsm {
            m: x.rows() as u64,
            n: x.cols() as u64,
        });
        chase_linalg::trsm_right_upper(x, r);
    }

    /// Dense Hermitian eigensolve (cuSOLVER `zheevd` role).
    pub fn heevd<T: Scalar>(
        &self,
        a: &Matrix<T>,
    ) -> Result<(Vec<T::Real>, Matrix<T>), chase_linalg::NoConvergence> {
        self.ctx.record(EventKind::Heevd { n: a.rows() as u64 });
        chase_linalg::heevd(a)
    }

    /// Householder QR returning the thin Q (cuSOLVER `zgeqrf`+`zungqr`).
    pub fn hhqr_q<T: Scalar>(&self, x: &Matrix<T>) -> Matrix<T> {
        self.ctx.record(EventKind::HhQr {
            m: x.rows() as u64,
            n: x.cols() as u64,
        });
        chase_linalg::householder_qr(x).0
    }

    /// Batched BLAS-1 work over `n` elements (the residual-norm kernel that
    /// the paper fuses into a single batched launch, Section 3.3).
    pub fn blas1<T: Scalar>(&self, n: usize) {
        let _ = std::marker::PhantomData::<T>;
        self.ctx.record(EventKind::Blas1 { n: n as u64 });
    }

    // ---- collectives -----------------------------------------------------

    /// The host copies a `Std`/`Lms` collective of `bytes` pays on this rank
    /// (the blue data-movement bars of Fig. 2): device to host before the
    /// transfer, host to device after it. `Nccl` records nothing.
    fn stage(&self, bytes: u64, d2h: bool, h2d: bool) {
        if self.backend.stages_through_host() {
            if d2h {
                self.ctx.record(EventKind::D2H { bytes });
            }
            if h2d {
                self.ctx.record(EventKind::H2D { bytes });
            }
        }
    }

    /// Whether this backend's collectives move data device-direct (the
    /// transport the tuner and the `P2p` pricing distinguish).
    fn device_direct(&self) -> bool {
        !self.backend.stages_through_host()
    }

    /// Resolve the hop schedule for one collective call, or `None` for the
    /// flat path. `bytes` must be SPMD-uniform across the communicator
    /// (every member must resolve the same schedule).
    fn schedule(&self, op: CollOp, bytes: u64, comm: &Communicator) -> Option<(Algo, u64)> {
        let algo = self.collective.forced()?;
        if comm.size() <= 1 || bytes == 0 {
            return None;
        }
        let tuner = Tuner::new(self.topo.clone(), self.device_direct());
        Some((algo, tuner.chunk_for(op, algo, bytes, comm.labels())))
    }

    /// The sink a hop schedule reports to: each chunk transfer is a `P2p`
    /// event over its physical link, in place of the flat path's one
    /// collective event.
    fn p2p_sink(&self) -> impl FnMut(u64, LinkClass) + '_ {
        |bytes, link| self.ctx.record(EventKind::P2p { bytes, link })
    }

    /// Sum-allreduce of a device buffer over `comm`.
    pub fn allreduce_sum<T: Scalar + Reduce>(&self, comm: &Communicator, buf: &mut [T]) {
        if let Some(plan) = &self.faults {
            plan.corrupt_payload("allreduce", buf);
        }
        let bytes = size_of_val(buf) as u64;
        self.stage(bytes, true, true);
        if let Some((algo, chunk)) = self.schedule(CollOp::AllReduce, bytes, comm) {
            exec::allreduce(comm, &self.topo, buf, algo, chunk, &mut self.p2p_sink());
        } else {
            self.ctx.record(EventKind::AllReduce {
                bytes,
                members: comm.size() as u64,
            });
            comm.allreduce_sum(buf);
        }
    }

    // ---- nonblocking collectives ------------------------------------------

    /// Post a sum-allreduce of a device buffer without waiting for it.
    ///
    /// The handle's [`DevAllreduce::wait`] copies the reduced result into a
    /// caller buffer and records the collective as a *spanned* event
    /// covering post→wait. Staging backends record D2H at post and H2D at
    /// wait, bracketing the in-flight region exactly as a host-staged
    /// `MPI_Iallreduce` would.
    ///
    /// The nonblocking path always moves data over the flat transport: the
    /// `chase-topo` hop schedules are blocking rendezvous programs and
    /// cannot run concurrently with compute on the posting thread. Results
    /// are bitwise identical either way (both fold contributions in
    /// member-index order), so the knob only affects the *pricing* of the
    /// movement, which the spanned event captures.
    pub fn iallreduce_sum<'c, T: Scalar + Reduce>(
        &self,
        comm: &'c Communicator,
        buf: &[T],
    ) -> DevAllreduce<'a, 'c, T> {
        // What travels is a copy: a planned fault models a transport-level
        // flip, not memory corruption on the source.
        let mut staged = self.nb_staging::<T>(comm, buf.len());
        staged.as_mut_slice().copy_from_slice(buf);
        self.iallreduce_sum_staged(comm, staged)
    }

    /// Check out a pooled staging buffer to compute a contribution directly
    /// into, for zero-copy posting via
    /// [`Device::iallreduce_sum_staged`]. Steady state this allocates and
    /// zeroes nothing.
    pub fn nb_staging<'c, T: Scalar>(
        &self,
        comm: &'c Communicator,
        len: usize,
    ) -> chase_comm::SendBuf<'c, T> {
        comm.nb_staging::<T>(len)
    }

    /// [`Device::iallreduce_sum`] without the posting copy: the staged
    /// buffer *moves* into the collective as this rank's payload.
    pub fn iallreduce_sum_staged<'c, T: Scalar + Reduce>(
        &self,
        comm: &'c Communicator,
        mut staged: chase_comm::SendBuf<'c, T>,
    ) -> DevAllreduce<'a, 'c, T> {
        if let Some(plan) = &self.faults {
            plan.corrupt_payload("iallreduce", staged.as_mut_slice());
        }
        let bytes = (staged.len() * size_of::<T>()) as u64;
        self.stage(bytes, true, false);
        let t0_us = now_us();
        DevAllreduce {
            req: comm.iallreduce_sum_staged(staged),
            ctx: self.ctx,
            staged: self.backend.stages_through_host(),
            bytes,
            members: comm.size() as u64,
            t0_us,
        }
    }

    /// Panel width (columns) for the overlapped HEMM/allreduce pipeline,
    /// chosen by the `chase-topo` tuner from the pipeline model: a panel of
    /// `w` columns costs one `out_rows x w x inner_k` GEMM (at the nominal
    /// device rate) against an allreduce of `w * out_rows` scalars over
    /// `comm`.
    pub fn overlap_panel_cols<T: Scalar>(
        &self,
        comm: &Communicator,
        total_cols: usize,
        out_rows: usize,
        inner_k: usize,
    ) -> usize {
        if total_cols <= 1 || comm.size() <= 1 {
            return total_cols.max(1);
        }
        let bytes_per_col = (out_rows * size_of::<T>()) as u64;
        let cmul = if T::IS_COMPLEX { 4.0 } else { 1.0 };
        let flops_per_col = 2.0 * cmul * out_rows as f64 * inner_k as f64;
        let tuner = Tuner::new(self.topo.clone(), self.device_direct());
        tuner.overlap_panel_cols(
            CollOp::AllReduce,
            total_cols,
            bytes_per_col,
            comm.labels(),
            flops_per_col / NOMINAL_GEMM_FLOPS,
        )
    }

    /// Broadcast a device buffer from `root`.
    pub fn bcast<T: Scalar>(&self, comm: &Communicator, buf: &mut [T], root: usize) {
        let on_root = comm.rank() == root;
        // Only the root's buffer is payload; corruption elsewhere would be
        // silently overwritten by the broadcast itself.
        if on_root {
            if let Some(plan) = &self.faults {
                plan.corrupt_payload("bcast", buf);
            }
        }
        // The root only pays D2H; receivers only pay H2D. Record one copy on
        // each side (the ledger is per-rank).
        let bytes = size_of_val(buf) as u64;
        self.stage(bytes, on_root, !on_root);
        if let Some((algo, chunk)) = self.schedule(CollOp::Bcast, bytes, comm) {
            let sink = &mut self.p2p_sink();
            exec::bcast(comm, &self.topo, buf, root, algo, chunk, sink);
        } else {
            self.ctx.record(EventKind::Bcast {
                bytes,
                members: comm.size() as u64,
            });
            comm.bcast(buf, root);
        }
    }

    /// Allgather device blocks (used by the legacy LMS layout to replicate
    /// the distributed vector block on every rank, Section 2.3).
    pub fn allgather<T: Scalar>(&self, comm: &Communicator, mine: &[T]) -> Vec<T> {
        self.stage(size_of_val(mine) as u64, true, false);
        // Blocks may be ragged (sizes differ by one under the block
        // distribution), so the tuner input is the *global* gathered size —
        // known a priori in the real library, agreed here through a
        // metadata exchange that records no events.
        let total_bytes = if comm.size() > 1 && self.collective != CollectiveAlgo::Flat {
            comm.allreduce_scalar(mine.len() as u64) * size_of::<T>() as u64
        } else {
            0
        };
        let hop = self.schedule(CollOp::AllGather, total_bytes, comm);
        let out = match hop {
            Some((algo, chunk)) => {
                exec::allgather(comm, &self.topo, mine, algo, chunk, &mut self.p2p_sink())
            }
            None => comm.allgather(mine),
        };
        // Every rank receives the whole gathered block.
        self.stage(size_of_val(out.as_slice()) as u64, false, true);
        if hop.is_none() {
            self.ctx.record(EventKind::AllGather {
                bytes_per_rank: size_of_val(mine) as u64,
                members: comm.size() as u64,
            });
        }
        out
    }
}

/// In-flight device allreduce: a [`Request`] plus the ledger bookkeeping
/// that turns its completion into a spanned `AllReduce` event (and the H2D
/// upload on staging backends).
#[must_use = "a posted collective must be waited on"]
pub struct DevAllreduce<'a, 'c, T: Reduce> {
    req: Request<'c, T>,
    ctx: &'a RankCtx,
    staged: bool,
    bytes: u64,
    members: u64,
    t0_us: u64,
}

impl<T: Scalar + Reduce> DevAllreduce<'_, '_, T> {
    /// Block until the collective completes, copy the sum into `out`
    /// (length must match the posted buffer) and record the spanned event.
    /// A [`CommError`] (peer never posted, or a rank died mid-collective) is
    /// propagated without touching `out` or recording completion events.
    pub fn wait(self, out: &mut [T]) -> Result<(), CommError> {
        self.req.wait(out)?;
        self.ctx.record_spanned(
            EventKind::AllReduce {
                bytes: self.bytes,
                members: self.members,
            },
            self.t0_us,
        );
        if self.staged {
            self.ctx.record(EventKind::H2D { bytes: self.bytes });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::{run_grid, solo_ctx, Category, GridShape};
    use chase_linalg::{Op, C64};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn backend_properties() {
        assert!(Backend::Std.stages_through_host());
        assert!(Backend::Lms.stages_through_host());
        assert!(!Backend::Nccl.stages_through_host());
        assert_eq!(Backend::Nccl.name(), "ChASE(NCCL)");
    }

    #[test]
    fn gemm_records_and_computes() {
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Matrix::<C64>::random(6, 4, &mut rng);
        let b = Matrix::<C64>::random(4, 3, &mut rng);
        let mut c = Matrix::<C64>::zeros(6, 3);
        dev.gemm(
            Op::None,
            Op::None,
            C64::one(),
            a.as_ref(),
            b.as_ref(),
            C64::zero(),
            c.as_mut(),
        );
        let expect = chase_linalg::gemm_new(Op::None, Op::None, &a, &b);
        assert!(c.max_abs_diff(&expect) < 1e-13);
        let l = ctx.ledger_snapshot();
        assert_eq!(l.events().len(), 1);
        assert_eq!(l.events()[0].kind, EventKind::Gemm { m: 6, n: 3, k: 4 });
    }

    #[test]
    fn nccl_allreduce_has_no_transfer() {
        let out = run_grid(GridShape::new(1, 2), |ctx| {
            let dev = Device::new(ctx, Backend::Nccl);
            let mut v = vec![C64::from_f64(ctx.world_rank() as f64 + 1.0)];
            dev.allreduce_sum(&ctx.world, &mut v);
            v[0]
        });
        for r in &out.results {
            assert_eq!(*r, C64::from_f64(3.0));
        }
        for l in &out.ledgers {
            assert_eq!(l.bytes_in(Category::Transfer), 0, "NCCL must not stage");
            assert_eq!(l.collective_count(), 1);
        }
    }

    #[test]
    fn std_allreduce_stages_both_ways() {
        let out = run_grid(GridShape::new(1, 2), |ctx| {
            let dev = Device::new(ctx, Backend::Std);
            let mut v = vec![1.0f64; 10];
            dev.allreduce_sum(&ctx.world, &mut v);
            v[0]
        });
        for l in &out.ledgers {
            // 10 f64 = 80 bytes staged down and up
            assert_eq!(l.bytes_in(Category::Transfer), 160);
        }
    }

    #[test]
    fn bcast_stages_one_way_per_rank() {
        let out = run_grid(GridShape::new(1, 3), |ctx| {
            let dev = Device::new(ctx, Backend::Std);
            let mut v = vec![if ctx.world_rank() == 0 { 5.0f64 } else { 0.0 }; 4];
            dev.bcast(&ctx.world, &mut v, 0);
            v[0]
        });
        for r in &out.results {
            assert_eq!(*r, 5.0);
        }
        for l in &out.ledgers {
            assert_eq!(l.bytes_in(Category::Transfer), 32, "one direction only");
        }
    }

    #[test]
    fn potrf_trsm_heevd_wrappers() {
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x = Matrix::<C64>::random(20, 5, &mut rng);
        let g = dev.gram(x.as_ref());
        let u = dev.potrf(&g).unwrap();
        let mut q = x.clone();
        dev.trsm(q.as_mut(), &u);
        let qhq = chase_linalg::gram(q.as_ref());
        assert!(qhq.orthogonality_error() < 1e-8);
        let (vals, _) = dev.heevd(&g).unwrap();
        assert!(
            vals.iter().all(|v| *v > 0.0),
            "gram matrix eigenvalues positive"
        );
        let l = ctx.ledger_snapshot();
        // gram, potrf, trsm, gram(check is outside device), heevd -> 4 device events
        assert_eq!(l.events().len(), 4);
    }

    #[test]
    fn topo_allreduce_matches_flat_bitwise_and_emits_hops() {
        for algo in [
            CollectiveAlgo::Ring,
            CollectiveAlgo::Tree,
            CollectiveAlgo::Doubling,
        ] {
            let flat = run_grid(GridShape::new(2, 2), |ctx| {
                let dev = Device::new(ctx, Backend::Nccl);
                let mut v: Vec<f64> = (0..12)
                    .map(|i| ((ctx.world_rank() * 11 + i) as f64).cos())
                    .collect();
                dev.allreduce_sum(&ctx.world, &mut v);
                v
            });
            let topo = run_grid(GridShape::new(2, 2), move |ctx| {
                let dev =
                    Device::with_collectives(ctx, Backend::Nccl, algo, Topology::juwels_booster());
                let mut v: Vec<f64> = (0..12)
                    .map(|i| ((ctx.world_rank() * 11 + i) as f64).cos())
                    .collect();
                dev.allreduce_sum(&ctx.world, &mut v);
                v
            });
            for (a, b) in flat.results.iter().zip(&topo.results) {
                assert_eq!(a, b, "{algo:?}: bitwise mismatch vs flat");
            }
            for l in &topo.ledgers {
                assert_eq!(
                    l.collective_count(),
                    0,
                    "topo path records hops, not collectives"
                );
                let p2p = l
                    .events()
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::P2p { .. }))
                    .count();
                assert!(p2p > 0, "{algo:?}: no hops emitted");
            }
        }
    }

    #[test]
    fn topo_path_keeps_std_staging() {
        let out = run_grid(GridShape::new(1, 2), |ctx| {
            let dev = Device::with_collectives(
                ctx,
                Backend::Std,
                CollectiveAlgo::Ring,
                Topology::juwels_booster(),
            );
            let mut v = vec![1.0f64; 10];
            dev.allreduce_sum(&ctx.world, &mut v);
            v[0]
        });
        for (r, l) in out.results.iter().zip(&out.ledgers) {
            assert_eq!(*r, 2.0);
            // Staging is a backend property, not an algorithm property:
            // 80 bytes D2H + 80 bytes H2D exactly as on the flat path.
            assert_eq!(l.bytes_in(Category::Transfer), 160);
        }
    }

    #[test]
    fn topo_allgather_handles_ragged_blocks() {
        let out = run_grid(GridShape::new(1, 3), |ctx| {
            let dev = Device::with_collectives(
                ctx,
                Backend::Nccl,
                CollectiveAlgo::Ring,
                Topology::juwels_booster(),
            );
            let mine = vec![ctx.world_rank() as f64; ctx.world_rank() + 1];
            dev.allgather(&ctx.world, &mine)
        });
        let want = vec![0.0, 1.0, 1.0, 2.0, 2.0, 2.0];
        for r in &out.results {
            assert_eq!(*r, want);
        }
    }

    #[test]
    fn iallreduce_matches_blocking_and_spans_the_window() {
        let out = run_grid(GridShape::new(2, 2), |ctx| {
            let dev = Device::new(ctx, Backend::Nccl);
            let v: Vec<f64> = (0..16)
                .map(|i| ((ctx.world_rank() * 17 + i) as f64).sin())
                .collect();
            let mut blocking = v.clone();
            dev.allreduce_sum(&ctx.world, &mut blocking);

            let req = dev.iallreduce_sum(&ctx.world, &v);
            // Compute "overlapping" the in-flight collective.
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let a = Matrix::<C64>::random(24, 24, &mut rng);
            let b = Matrix::<C64>::random(24, 24, &mut rng);
            let mut c = Matrix::<C64>::zeros(24, 24);
            dev.gemm(
                Op::None,
                Op::None,
                C64::one(),
                a.as_ref(),
                b.as_ref(),
                C64::zero(),
                c.as_mut(),
            );
            let mut nb = vec![0.0f64; 16];
            req.wait(&mut nb).unwrap();
            assert_eq!(nb, blocking, "nonblocking must match blocking bitwise");
        });
        for l in &out.ledgers {
            // The blocking allreduce, then the nonblocking one, whose span
            // is the window the GEMM ran in.
            let ar: Vec<_> = l
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::AllReduce { .. }))
                .collect();
            assert_eq!(ar.len(), 2);
            let gemm = l
                .events()
                .iter()
                .find(|e| matches!(e.kind, EventKind::Gemm { .. }))
                .unwrap();
            assert!(ar[1].t0_us <= gemm.t0_us && gemm.t1_us <= ar[1].t1_us);
            assert_eq!(l.bytes_in(Category::Transfer), 0, "NCCL must not stage");
        }
    }

    #[test]
    fn std_iallreduce_stages_at_post_and_wait() {
        let out = run_grid(GridShape::new(1, 2), |ctx| {
            let dev = Device::new(ctx, Backend::Std);
            let v = vec![1.0f64; 10];
            let req = dev.iallreduce_sum(&ctx.world, &v);
            let mut sum = vec![0.0f64; 10];
            req.wait(&mut sum).unwrap();
            sum[0]
        });
        for (r, l) in out.results.iter().zip(&out.ledgers) {
            assert_eq!(*r, 2.0);
            assert_eq!(
                l.bytes_in(Category::Transfer),
                160,
                "D2H at post, H2D at wait"
            );
        }
    }

    #[test]
    fn overlap_panel_cols_solo_is_full_block() {
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        assert_eq!(dev.overlap_panel_cols::<C64>(&ctx.world, 40, 100, 100), 40);
        assert_eq!(dev.overlap_panel_cols::<C64>(&ctx.world, 0, 100, 100), 1);
    }

    #[test]
    fn overlap_panel_cols_is_uniform_across_ranks() {
        let out = run_grid(GridShape::new(2, 2), |ctx| {
            let dev = Device::new(ctx, Backend::Nccl);
            dev.overlap_panel_cols::<C64>(&ctx.col_comm, 64, 160, 160)
        });
        let first = out.results[0];
        assert!((1..=64).contains(&first));
        for r in &out.results {
            assert_eq!(*r, first, "panel choice must be SPMD-uniform");
        }
    }

    #[test]
    fn fault_plan_poisons_allreduce_on_every_rank() {
        use chase_faults::FaultSpec;
        let out = run_grid(GridShape::new(1, 2), |ctx| {
            let spec = FaultSpec::parse("seed=3;nan@iter=1,region=filter,rank=0").unwrap();
            let plan = Arc::new(FaultPlan::new(spec, ctx.world_rank(), ctx.row));
            plan.set_iter(1);
            let dev = Device::new(ctx, Backend::Nccl).with_faults(Some(plan.clone()));
            dev.set_region(Region::Filter);
            let mut v = vec![1.0f64; 4];
            dev.allreduce_sum(&ctx.world, &mut v);
            (v, plan.take_records().len())
        });
        for (r, nrec) in &out.results {
            assert!(
                r.iter().any(|x| x.is_nan()),
                "rank 0's poisoned contribution must reach every rank through the sum"
            );
            assert_eq!(r.iter().filter(|x| x.is_nan()).count(), 1);
            // Only rank 0 injected (and logged) anything.
            assert!(*nrec <= 1);
        }
        assert_eq!(out.results.iter().map(|(_, n)| n).sum::<usize>(), 1);
    }

    #[test]
    fn lms_allgather_costs_grow_with_members() {
        let out = run_grid(GridShape::new(1, 4), |ctx| {
            let dev = Device::new(ctx, Backend::Lms);
            dev.allgather(&ctx.world, &[0.0f64; 8]).len()
        });
        for (r, l) in out.results.iter().zip(&out.ledgers) {
            assert_eq!(*r, 32);
            // D2H of own 64 bytes, H2D of gathered 256 bytes
            assert_eq!(l.bytes_in(Category::Transfer), 320);
        }
    }
}
