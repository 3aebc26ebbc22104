//! 2D process grid, rank contexts and the SPMD runner.
//!
//! ChASE organizes its MPI processes as a `p x q` grid that is "as square as
//! possible" (Section 2.2). Each rank owns an `n_r x n_c` block of `H`, talks
//! to its *column communicator* (ranks sharing its grid column, used for the
//! 1D-CAQR and the `C`-buffer broadcast) and its *row communicator* (ranks
//! sharing its grid row, used for the Rayleigh–Ritz and residual
//! allreduces). Here each rank is an OS thread; the communicators exchange
//! data through shared-memory rendezvous slots.

use crate::collective::{Communicator, DeathHandle, GridSlots, RankDeadPanic, Slot};
use crate::ledger::{EventKind, Ledger, Region};
use crate::schedule::SchedulePolicy;
use crate::seams::{RankSeams, Seams};
use crate::trace_hook::{CommScope, TraceHook};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// Shape of the 2D rank grid: `p` rows by `q` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridShape {
    pub p: usize,
    pub q: usize,
}

impl GridShape {
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p >= 1 && q >= 1);
        Self { p, q }
    }

    /// The squarest grid for `n` ranks (the paper's preferred configuration).
    ///
    /// Composite `n` uses the divisor pair closest to `sqrt(n)`. A prime
    /// `n > 3` has no such pair except the degenerate `1 x n`, which turns
    /// every column communicator into the whole world and destroys the 2D
    /// scheme's communication volume — so the fallback leaves ranks idle and
    /// returns the most balanced grid covering *at most* `n` ranks (e.g.
    /// `squarest(7) == 2 x 3`, using 6 of 7). Callers that must use every
    /// rank can check [`GridShape::ranks`] against `n`.
    pub fn squarest(n: usize) -> Self {
        assert!(n >= 1);
        fn exact(m: usize) -> GridShape {
            let mut p = (m as f64).sqrt() as usize;
            while p > 1 && !m.is_multiple_of(p) {
                p -= 1;
            }
            GridShape { p, q: m / p }
        }
        let s = exact(n);
        if s.p > 1 || n <= 3 {
            return s;
        }
        // Prime rank count: take the largest m < n whose divisor pair is
        // acceptably balanced (aspect ratio about 2). m = 4 (2 x 2) always
        // qualifies, so the scan terminates.
        let mut m = n - 1;
        loop {
            let s = exact(m);
            if s.p > 1 && s.q <= 2 * s.p + 1 {
                return s;
            }
            m -= 1;
        }
    }

    pub fn ranks(&self) -> usize {
        self.p * self.q
    }

    pub fn is_square(&self) -> bool {
        self.p == self.q
    }
}

/// `"PxQ"` with `P, Q >= 1` (`2x2`, `1x4`): the one spelling of a grid shape
/// the CLI flags, workload lines and check witnesses share. Whatever a user
/// can type is an `Err` here, never the assert in [`GridShape::new`].
impl std::str::FromStr for GridShape {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let dims = s
            .split_once('x')
            .and_then(|(p, q)| Some((p.parse::<usize>().ok()?, q.parse::<usize>().ok()?)));
        match dims {
            Some((p, q)) if p >= 1 && q >= 1 => Ok(Self { p, q }),
            Some(_) => Err(format!("grid '{s}' has no ranks: need PxQ with P, Q >= 1")),
            None => Err(format!("grid '{s}' must look like PxQ, e.g. 2x2")),
        }
    }
}

/// Contiguous block partition of `n` items over `parts` owners: the block
/// data distribution of `H` (Section 2.2). Remainder items go to the lowest
/// indices, so sizes differ by at most one.
pub fn block_range(n: usize, parts: usize, idx: usize) -> Range<usize> {
    assert!(idx < parts);
    let base = n / parts;
    let rem = n % parts;
    let start = idx * base + idx.min(rem);
    let len = base + usize::from(idx < rem);
    start..start + len
}

/// Everything a rank needs during an SPMD region.
pub struct RankCtx {
    pub shape: GridShape,
    /// Grid-row index `i` (0..p).
    pub row: usize,
    /// Grid-column index `j` (0..q).
    pub col: usize,
    /// Communicator over all `p*q` ranks (row-major rank order).
    pub world: Communicator,
    /// Ranks sharing grid row `i`; this rank's index is `col`.
    pub row_comm: Communicator,
    /// Ranks sharing grid column `j`; this rank's index is `row`.
    pub col_comm: Communicator,
    /// Event log (shared so it can be harvested after the run).
    pub ledger: Arc<Mutex<Ledger>>,
    /// This rank's seam record (trace hook, schedule policy,
    /// fold canary, wait watchdog), shared with the three communicators.
    /// Per-rank and purely local — no seam ever issues a collective.
    pub seams: RankSeams,
}

impl RankCtx {
    /// The context of world rank `wr` of a `shape` grid over `slots`. The
    /// row/column communicators carry world-rank labels so topology-aware
    /// collectives can map their members onto physical nodes and links.
    fn assemble(
        shape: GridShape,
        wr: usize,
        slots: &GridSlots,
        ledger: Arc<Mutex<Ledger>>,
        seams: Seams,
    ) -> RankCtx {
        let seams = RankSeams::new(seams);
        let (row, col) = (wr / shape.q, wr % shape.q);
        let comm = |slot: &Arc<Slot>, idx, labels: Vec<usize>, scope| {
            let board = slots.board.clone();
            Communicator::in_grid(
                slot.clone(),
                idx,
                Arc::new(labels),
                board,
                scope,
                seams.clone(),
            )
        };
        let row_labels = (0..shape.q).map(|j| row * shape.q + j).collect();
        let col_labels = (0..shape.p).map(|i| i * shape.q + col).collect();
        RankCtx {
            shape,
            row,
            col,
            world: comm(
                &slots.world,
                wr,
                (0..shape.ranks()).collect(),
                CommScope::World,
            ),
            row_comm: comm(&slots.rows[row], col, row_labels, CommScope::Row),
            col_comm: comm(&slots.cols[col], row, col_labels, CommScope::Col),
            ledger,
            seams,
        }
    }

    /// Row-major world rank.
    pub fn world_rank(&self) -> usize {
        self.row * self.shape.q + self.col
    }

    pub fn record(&self, kind: EventKind) {
        let region = {
            let mut l = self.ledger.lock();
            l.record(kind);
            l.current_region().unwrap_or(Region::Other)
        };
        if let Some(h) = &self.seams.get().trace {
            h.event(region, kind);
        }
    }

    pub fn record_in(&self, region: Region, kind: EventKind) {
        self.ledger.lock().record_in(region, kind);
        if let Some(h) = &self.seams.get().trace {
            h.event(region, kind);
        }
    }

    pub fn set_region(&self, region: Region) {
        self.ledger.lock().set_region(region);
        if let Some(h) = &self.seams.get().trace {
            h.region(region);
        }
    }

    /// Install (or clear) the structured-tracing hook on this rank: the
    /// context forwards ledger records, region changes and span/counter
    /// marks, and the three grid communicators report their collective
    /// issues tagged with their scope.
    pub fn set_trace_hook(&self, hook: Option<Arc<dyn TraceHook>>) {
        self.seams.update(|s| s.trace = hook);
    }

    /// Install (or clear) the schedule-exploration policy on this rank; its
    /// three communicators tag their schedule points with their grid scope.
    /// Every rank of a grid must install the same policy (SPMD discipline).
    pub fn set_schedule_policy(&self, policy: Option<Arc<dyn SchedulePolicy>>) {
        self.seams.update(|s| s.schedule = policy);
    }

    /// Open a named trace span (no-op without a hook).
    pub fn trace_span_begin(&self, name: &'static str, arg: u64) {
        if let Some(h) = &self.seams.get().trace {
            h.span_begin(name, arg);
        }
    }

    /// Close the innermost trace span named `name` (no-op without a hook).
    pub fn trace_span_end(&self, name: &'static str) {
        if let Some(h) = &self.seams.get().trace {
            h.span_end(name);
        }
    }

    /// Increment a named trace counter (no-op without a hook).
    pub fn trace_counter(&self, name: &'static str, delta: u64) {
        if let Some(h) = &self.seams.get().trace {
            h.counter(name, delta);
        }
    }

    /// Record an event that began at `t0_us` and ends now (the span of a
    /// nonblocking collective).
    pub fn record_spanned(&self, kind: EventKind, t0_us: u64) {
        let region = {
            let mut l = self.ledger.lock();
            l.record_spanned(kind, t0_us);
            l.current_region().unwrap_or(Region::Other)
        };
        // The trace mirror carries no wall span — only the deterministic
        // (region, kind) payload — so replayed traces stay byte-identical.
        if let Some(h) = &self.seams.get().trace {
            h.event(region, kind);
        }
    }

    /// Snapshot of the ledger contents.
    pub fn ledger_snapshot(&self) -> Ledger {
        self.ledger.lock().clone()
    }

    /// A handle that marks this rank dead on the grid's dead board and
    /// wakes the wait loops of every slot it participates in — the
    /// cooperative "crash switch" the fault plan pulls for `RankCrash`.
    pub fn death_handle(&self) -> DeathHandle {
        DeathHandle::new(
            self.world.dead_board(),
            self.world_rank(),
            vec![
                self.world.slot(),
                self.row_comm.slot(),
                self.col_comm.slot(),
            ],
        )
    }

    /// World ranks currently marked dead on the grid's board, sorted.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.world.dead_board().dead_ranks()
    }
}

/// Build the shrunk-grid context for a survivor of `dead` (old world-rank
/// numbering, any order). Deterministic: survivors keep their relative
/// order, the new shape is [`GridShape::squarest`] over the survivor count,
/// and survivors beyond the new shape's rank count idle out (`None` — only
/// possible for awkward survivor counts, never for the 4→3 shrink the test
/// matrix exercises). Returns `None` also for a caller that is itself dead.
///
/// The replacement rendezvous slots are shared through a registry on the
/// *old* world slot keyed by the agreed dead set, so every survivor resolves
/// the same slots without any collective on the wedged communicators. The
/// new context carries the old rank's ledger (recovery costs accrue to the
/// same profile) and a copy of its whole seam record — a traced, gated or
/// canary run stays traced, gated or canary after the crash; the dead board
/// starts clean.
pub fn shrink_ctx(old: &RankCtx, dead: &[usize]) -> Option<RankCtx> {
    let old_n = old.shape.ranks();
    let mut dead_mask = 0u64;
    for &d in dead {
        assert!(d < old_n, "dead rank out of range");
        dead_mask |= 1u64 << d;
    }
    let me = old.world_rank();
    if dead_mask & (1u64 << me) != 0 {
        return None;
    }
    let survivors: Vec<usize> = (0..old_n)
        .filter(|r| dead_mask & (1u64 << r) == 0)
        .collect();
    let shape = GridShape::squarest(survivors.len());
    let active = shape.ranks();
    let my_new = survivors.iter().position(|&r| r == me).unwrap();
    if my_new >= active {
        return None;
    }
    let slots = old
        .world
        .slot()
        .shrunk_slots(dead_mask, || GridSlots::new(shape.p, shape.q));
    let seams = old.seams.get().clone();
    let ledger = old.ledger.clone();
    Some(RankCtx::assemble(shape, my_new, &slots, ledger, seams))
}

/// Output of an SPMD run: per-rank results and ledgers, in world-rank order.
pub struct SpmdOutput<R> {
    pub results: Vec<R>,
    pub ledgers: Vec<Ledger>,
}

/// Run `f` SPMD on a `p x q` grid of threads and gather results and ledgers.
///
/// Panics in any rank propagate (with the rank id) after all threads finish
/// or unwind.
pub fn run_grid<R, F>(shape: GridShape, f: F) -> SpmdOutput<R>
where
    R: Send,
    F: Fn(&RankCtx) -> R + Send + Sync,
{
    let n = shape.ranks();
    // One dead-rank board per grid, shared by every rank's three
    // communicators: a death marked anywhere aborts waits everywhere.
    let slots = GridSlots::new(shape.p, shape.q);
    let ledgers: Vec<Arc<Mutex<Ledger>>> = (0..n)
        .map(|_| Arc::new(Mutex::new(Ledger::new())))
        .collect();

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (wr, result_slot) in results.iter_mut().enumerate() {
            let ledger = ledgers[wr].clone();
            let ctx = RankCtx::assemble(shape, wr, &slots, ledger, Seams::default());
            let f = &f;
            handles.push((
                wr,
                scope.spawn(move || {
                    *result_slot = Some(f(&ctx));
                }),
            ));
        }
        for (wr, h) in handles {
            if let Err(e) = h.join() {
                let msg = e
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| e.downcast_ref::<&str>().copied())
                    .map(str::to_owned)
                    .or_else(|| {
                        e.downcast_ref::<RankDeadPanic>()
                            .map(|p| format!("aborted waiting on dead rank(s) {:?}", p.dead))
                    })
                    .unwrap_or_else(|| "unknown panic".to_owned());
                panic!("rank {wr} panicked: {msg}");
            }
        }
    });

    SpmdOutput {
        results: results
            .into_iter()
            .map(|r| r.expect("rank produced no result"))
            .collect(),
        ledgers: ledgers.iter().map(|l| l.lock().clone()).collect(),
    }
}

/// Single-rank context for serial execution paths (no threads involved).
pub fn solo_ctx() -> RankCtx {
    RankCtx::assemble(
        GridShape::new(1, 1),
        0,
        &GridSlots::new(1, 1),
        Arc::new(Mutex::new(Ledger::new())),
        Seams::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_parses_pxq_and_refuses_everything_else() {
        assert_eq!("2x3".parse(), Ok(GridShape::new(2, 3)));
        assert_eq!("1x1".parse(), Ok(GridShape::new(1, 1)));
        for zero in ["0x1", "1x0", "0x0"] {
            let err = zero.parse::<GridShape>().unwrap_err();
            assert!(err.contains(zero) && err.contains(">= 1"), "{err}");
        }
        for malformed in [
            "4", "2*2", "", "x", "2x", "x2", "axb", "-1x2", "2x2x2", " 2x2",
        ] {
            let err = malformed.parse::<GridShape>().unwrap_err();
            assert!(err.contains("must look like PxQ"), "{malformed:?}: {err}");
        }
    }

    #[test]
    fn block_range_covers_everything() {
        for n in [1usize, 7, 16, 100] {
            for parts in [1usize, 2, 3, 5] {
                let mut covered = 0;
                for idx in 0..parts {
                    let r = block_range(n, parts, idx);
                    assert_eq!(r.start, covered, "blocks must be contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn block_range_sizes_balanced() {
        // 10 items over 4 parts: 3,3,2,2
        assert_eq!(block_range(10, 4, 0), 0..3);
        assert_eq!(block_range(10, 4, 1), 3..6);
        assert_eq!(block_range(10, 4, 2), 6..8);
        assert_eq!(block_range(10, 4, 3), 8..10);
    }

    #[test]
    fn squarest_grids() {
        assert_eq!(GridShape::squarest(1), GridShape { p: 1, q: 1 });
        assert_eq!(GridShape::squarest(4), GridShape { p: 2, q: 2 });
        assert_eq!(GridShape::squarest(6), GridShape { p: 2, q: 3 });
        assert_eq!(GridShape::squarest(9), GridShape { p: 3, q: 3 });
        assert!(GridShape::squarest(16).is_square());
    }

    #[test]
    fn squarest_primes_stay_balanced() {
        // Tiny prime counts keep the exact 1 x n cover.
        assert_eq!(GridShape::squarest(2), GridShape { p: 1, q: 2 });
        assert_eq!(GridShape::squarest(3), GridShape { p: 1, q: 3 });
        // Larger primes trade idle ranks for a balanced grid.
        assert_eq!(GridShape::squarest(5), GridShape { p: 2, q: 2 });
        assert_eq!(GridShape::squarest(7), GridShape { p: 2, q: 3 });
        assert_eq!(GridShape::squarest(11), GridShape { p: 2, q: 5 });
        assert_eq!(GridShape::squarest(13), GridShape { p: 3, q: 4 });
        for n in [5usize, 7, 11, 13, 17, 19, 23, 97] {
            let s = GridShape::squarest(n);
            assert!(s.p > 1, "prime {n} must not degenerate to 1 x n");
            assert!(s.ranks() <= n, "cannot use more ranks than given");
            assert!(s.q <= 2 * s.p + 1, "shape {s:?} for {n} is unbalanced");
        }
    }

    #[test]
    fn sub_communicators_carry_world_labels() {
        let shape = GridShape::new(2, 3);
        let out = run_grid(shape, |ctx| {
            (
                ctx.row_comm.labels().to_vec(),
                ctx.col_comm.labels().to_vec(),
            )
        });
        for (wr, (row_labels, col_labels)) in out.results.iter().enumerate() {
            let (i, j) = (wr / 3, wr % 3);
            assert_eq!(*row_labels, (0..3).map(|jj| i * 3 + jj).collect::<Vec<_>>());
            assert_eq!(*col_labels, (0..2).map(|ii| ii * 3 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn grid_communicators_wire_up() {
        // Each rank sums its row index over the column communicator (all
        // ranks in a grid column have distinct rows 0..p) and its column
        // index over the row communicator.
        let shape = GridShape::new(2, 3);
        let out = run_grid(shape, |ctx| {
            let col_sum = ctx.col_comm.allreduce_scalar(ctx.row as u64);
            let row_sum = ctx.row_comm.allreduce_scalar(ctx.col as u64);
            (ctx.world_rank(), col_sum, row_sum)
        });
        for (wr, (rank, col_sum, row_sum)) in out.results.iter().enumerate() {
            assert_eq!(*rank, wr);
            assert_eq!(*col_sum, 1, "sum of rows 0..2");
            assert_eq!(*row_sum, 3, "sum of cols 0..3");
        }
    }

    #[test]
    fn world_collective_spans_grid() {
        let out = run_grid(GridShape::new(2, 2), |ctx| {
            ctx.world.allreduce_scalar(ctx.world_rank() as u64)
        });
        for r in out.results {
            assert_eq!(r, 6);
        }
    }

    #[test]
    fn ledgers_are_per_rank() {
        let out = run_grid(GridShape::new(2, 2), |ctx| {
            for _ in 0..=ctx.world_rank() {
                ctx.record(EventKind::Blas1 { n: 1 });
            }
        });
        for (wr, l) in out.ledgers.iter().enumerate() {
            assert_eq!(l.events().len(), wr + 1);
        }
    }

    #[test]
    fn shrink_rebuilds_a_working_grid() {
        // 2x2 grid loses rank 1: survivors {0, 2, 3} agree, shrink to 1x3
        // (squarest(3)), and run a world + row collective on the new grid.
        let out = run_grid(GridShape::new(2, 2), |ctx| {
            if ctx.world_rank() == 1 {
                ctx.death_handle().mark_dead();
                return None;
            }
            // Survivors wait until the death is visible, then agree.
            while ctx.dead_ranks().is_empty() {
                std::thread::yield_now();
            }
            let dead = ctx.world.agree_dead(&ctx.dead_ranks()).unwrap();
            assert_eq!(dead, vec![1]);
            let new_ctx = shrink_ctx(ctx, &dead).expect("4 -> 3 never idles a survivor");
            assert_eq!(new_ctx.shape, GridShape::new(1, 3));
            let sum = new_ctx
                .world
                .allreduce_scalar(new_ctx.world_rank() as u64 + 1);
            let row = new_ctx.row_comm.allgather(&[new_ctx.world_rank() as u64]);
            Some((new_ctx.world_rank(), sum, row))
        });
        let got: Vec<_> = out.results.into_iter().flatten().collect();
        // Old ranks 0, 2, 3 become new ranks 0, 1, 2 in order.
        assert_eq!(got[0].0, 0);
        assert_eq!(got[1].0, 1);
        assert_eq!(got[2].0, 2);
        for (_, sum, row) in got {
            assert_eq!(sum, 6, "1+2+3 over the shrunk world");
            assert_eq!(row, vec![0, 1, 2]);
        }
    }

    #[test]
    fn shrink_carries_the_whole_seam_record() {
        // A gated, canary, traced rank with a non-default watchdog
        // must still be all four after a crash shrinks its grid to 1x3.
        struct Scopes(Mutex<Vec<CommScope>>);
        impl TraceHook for Scopes {
            fn event(&self, _: Region, _: EventKind) {}
            fn region(&self, _: Region) {}
            fn span_begin(&self, _: &'static str, _: u64) {}
            fn span_end(&self, _: &'static str) {}
            fn counter(&self, _: &'static str, _: u64) {}
            fn collective(&self, scope: CommScope, _: &'static str, _: u64, _: u64, _: u64) {
                self.0.lock().push(scope);
            }
        }
        struct MemberOrder;
        impl SchedulePolicy for MemberOrder {
            fn arrival_order(&self, p: &crate::SchedulePoint) -> Option<Vec<usize>> {
                Some((0..p.members).collect())
            }
        }
        let out = run_grid(GridShape::new(2, 2), |ctx| {
            let scopes = Arc::new(Scopes(Mutex::new(Vec::new())));
            ctx.set_schedule_policy(Some(Arc::new(MemberOrder)));
            ctx.seams.update(|s| s.order_canary = true);
            ctx.set_trace_hook(Some(scopes.clone()));
            ctx.seams.update(|s| s.wait_timeout_ms = Some(1234));
            if ctx.world_rank() == 1 {
                ctx.death_handle().mark_dead();
                return None;
            }
            while ctx.dead_ranks().is_empty() {
                std::thread::yield_now();
            }
            let dead = ctx.world.agree_dead(&ctx.dead_ranks()).unwrap();
            let new_ctx = shrink_ctx(ctx, &dead).expect("4 -> 3 never idles a survivor");
            for c in [&new_ctx.world, &new_ctx.row_comm, &new_ctx.col_comm] {
                assert!(c.seams().get().schedule.is_some(), "policy dropped");
                assert!(c.seams().get().order_canary, "canary dropped");
                assert_eq!(c.wait_timeout_ms(), 1234);
                c.barrier();
            }
            let seen = scopes.0.lock().clone();
            Some(seen)
        });
        for seen in out.results.into_iter().flatten() {
            assert_eq!(seen, [CommScope::World, CommScope::Row, CommScope::Col]);
        }
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn rank_panics_are_reported() {
        // Shape 1x4 so no collective is pending when rank 2 dies.
        run_grid(GridShape::new(1, 4), |ctx| {
            if ctx.world_rank() == 2 {
                panic!("boom");
            }
        });
    }
}
