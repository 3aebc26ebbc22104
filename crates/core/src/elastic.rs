//! Elastic rank-failure recovery: the detection → agreement → shrink →
//! redistribute → resume driver (DESIGN.md §15).
//!
//! [`try_solve_elastic`] wraps a distributed solve so a mid-solve rank
//! crash (the `rank-crash` fault, or any cooperative death marked on the
//! grid's dead board) is survived instead of wedging the job:
//!
//! 1. **Detection** — the victim's [`chase_faults::RankCrashPanic`] unwinds
//!    its own thread; survivors surface the death as a typed
//!    [`ChaseErrorKind::RankDead`] (nonblocking waits) or a
//!    [`chase_comm::RankDeadPanic`] (blocking waits), both caught here.
//! 2. **Agreement** — survivors run [`chase_comm::Communicator::agree_dead`], a
//!    deterministic round on machinery independent of the wedged collective
//!    engines, so every survivor resolves the *same* dead set.
//! 3. **Shrink** — [`chase_comm::shrink_ctx`] rebuilds a working grid over
//!    the survivors ([`GridShape::squarest`] over the survivor count;
//!    survivors keep relative order).
//! 4. **Redistribute** — the block-cyclic `H` panels and the iterate are
//!    rebuilt for the new grid from the deterministic matgen seed (the
//!    in-process analogue of an MPI repartition; its cost is priced on the
//!    ledger as [`EventKind::GridShrink`] + [`EventKind::Redistribute`]).
//! 5. **Resume** — every survivor independently scans the (shared)
//!    checkpoint directory; because [`crate::ckpt::load_latest`] is a pure
//!    function of the directory contents and snapshots are written
//!    atomically, the scan is itself the world-agreed restart decision. The
//!    solve resumes at `snapshot.iter + 1`, or cold-starts at iteration 0
//!    on the shrunk grid when no valid snapshot exists.
//!
//! The whole crash→shrink→restore trail is prepended to the resumed
//! attempt's [`RecoveryLog`] with spec-derived iteration stamps, so
//! survivor logs stay bitwise identical and recovery runs replay exactly.

use crate::ckpt::{load_latest, Snapshot};
use crate::layout::DistHerm;
use crate::params::Params;
use crate::result::{ChaseError, ChaseErrorKind, ChaseResult, RecoveryEventKind, RecoveryLog};
use crate::solver::{solve_from, Start};
use chase_comm::{shrink_ctx, Category, EventKind, GridShape, RankCtx, Reduce};
use chase_device::Backend;
use chase_faults::{InjectionRecord, RankCrashPanic};
use chase_linalg::Scalar;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// What one rank's elastic solve came to.
#[derive(Debug)]
pub struct ElasticOutcome<T: Scalar> {
    /// The final attempt's result (recovery trail included in its
    /// [`RecoveryLog`], whether it converged or failed).
    pub result: Result<ChaseResult<T>, ChaseError>,
    /// Solve attempts this rank ran (1 = no crash observed).
    pub attempts: usize,
    /// Shape of the grid the final attempt ran on.
    pub shape: GridShape,
    /// Communication events on this rank's ledger over the whole elastic
    /// run (pre-crash work included: the ledger survives the shrink). The
    /// checkpoint-vs-scratch comparison in the test matrix is in terms of
    /// this count.
    pub comm_events: usize,
}

/// Run a distributed solve that survives rank crashes by shrinking the grid
/// and resuming from the latest checkpoint. SPMD: call from every rank of a
/// [`chase_comm::run_grid`] region.
///
/// `make_h` rebuilds this rank's local panel for whatever grid context it
/// is handed — it is called once per attempt, so after a shrink it
/// re-slices the (deterministically generated) global matrix into the new
/// block-cyclic layout.
///
/// Returns `None` for ranks that leave the computation: the crash victim,
/// and survivors idled out by an awkward survivor count. Live ranks get the
/// final attempt's result plus the recovery accounting.
pub fn try_solve_elastic<T, F>(
    ctx: &RankCtx,
    backend: Backend,
    make_h: F,
    params: &Params,
) -> Option<ElasticOutcome<T>>
where
    T: Scalar + Reduce,
    T::Real: Reduce,
    F: Fn(&RankCtx) -> DistHerm<T>,
{
    let mut owned: Option<RankCtx> = None;
    let mut p = params.clone();
    let mut prelude = RecoveryLog::default();
    let mut resume_from: Option<Snapshot> = None;
    let mut attempts = 0usize;
    let mut record_redist = false;
    loop {
        let cur: &RankCtx = owned.as_ref().unwrap_or(ctx);
        attempts += 1;
        let h = make_h(cur);
        if std::mem::take(&mut record_redist) {
            // Price the repartition: this rank's rebuilt H panel plus its
            // slice of the restored iterate.
            let bytes = h.local.bytes() + h.n_r() * p.ne() * std::mem::size_of::<T>();
            cur.record(EventKind::Redistribute {
                bytes: bytes as u64,
            });
        }
        let snap = resume_from.take();
        // On the first attempt both are empty: a cold start.
        let start = Start::Resume {
            snapshot: snap.as_ref(),
            prelude: std::mem::take(&mut prelude),
        };
        let attempt = catch_unwind(AssertUnwindSafe(|| solve_from(cur, backend, h, &p, start)));

        // Classify the attempt: done, or a death to recover from.
        let suspected: Vec<usize> = match attempt {
            Ok(out) => {
                let dead = match &out {
                    Err(ChaseError {
                        kind: ChaseErrorKind::RankDead { dead },
                        ..
                    }) => Some(dead.clone()),
                    _ => None,
                };
                match dead {
                    Some(d) => d,
                    None => {
                        let comm_events = cur
                            .ledger_snapshot()
                            .events()
                            .iter()
                            .filter(|e| e.kind.category() == Category::Comm)
                            .count();
                        return Some(ElasticOutcome {
                            result: out,
                            attempts,
                            shape: cur.shape,
                            comm_events,
                        });
                    }
                }
            }
            Err(payload) => {
                if payload.downcast_ref::<RankCrashPanic>().is_some() {
                    // This rank is the victim: it is already marked dead on
                    // the board; leave the computation.
                    return None;
                }
                match payload.downcast_ref::<chase_comm::RankDeadPanic>() {
                    Some(d) => d.dead.clone(),
                    None => resume_unwind(payload),
                }
            }
        };

        // --- Agreement: one deterministic round over the current world ---
        let agreed = match cur.world.agree_dead(&suspected) {
            Ok(d) => d,
            Err(t) => {
                return Some(ElasticOutcome {
                    result: Err(ChaseError::outside_loop(ChaseErrorKind::CollectiveTimeout(
                        t,
                    ))),
                    attempts,
                    shape: cur.shape,
                    comm_events: 0,
                });
            }
        };

        // --- Deterministic crash→shrink→restore trail ---
        // Every stamp below is a pure function of the fault spec, the
        // agreed dead set, and the checkpoint directory contents, so
        // survivor logs stay bitwise identical (and replay exactly).
        let sites = p
            .inject
            .as_ref()
            .map(|s| s.crash_sites())
            .unwrap_or_default();
        let ev_iter = sites.iter().map(|i| i.iter as usize).max().unwrap_or(0);
        for inj in &sites {
            if agreed.contains(&inj.rank) {
                prelude.push(
                    inj.iter as usize,
                    RecoveryEventKind::Injected(InjectionRecord {
                        iter: inj.iter,
                        region: inj.region_name(),
                        rank: inj.rank,
                        what: "rank crashed (stops depositing into collectives)".into(),
                    }),
                );
            }
        }
        prelude.push(
            ev_iter,
            RecoveryEventKind::RankDead {
                dead: agreed.clone(),
            },
        );

        // --- Shrink ---
        let from_shape = cur.shape;
        // Idled out by an awkward survivor count: this rank leaves too.
        let new_ctx = shrink_ctx(cur, &agreed)?;
        prelude.push(
            ev_iter,
            RecoveryEventKind::GridShrunk {
                from: from_shape,
                to: new_ctx.shape,
            },
        );
        new_ctx.record(EventKind::GridShrink {
            from_ranks: from_shape.ranks() as u64,
            to_ranks: new_ctx.shape.ranks() as u64,
        });
        record_redist = true;

        // --- Restart decision: latest valid snapshot, or cold start ---
        // All survivors scan the same directory; corrupt files degrade to
        // the previous valid snapshot (typed rejections, never a panic).
        resume_from = p
            .checkpoint_dir
            .as_ref()
            .and_then(|dir| load_latest(dir).ok().flatten());
        let (ri, rl) = resume_from
            .as_ref()
            .map(|s| (s.iter, s.locked))
            .unwrap_or((0, 0));
        prelude.push(
            ev_iter,
            RecoveryEventKind::CheckpointRestored {
                iter: ri,
                locked: rl,
            },
        );

        // The survivors' world renumbers after the shrink, so re-arming the
        // crash would be ill-defined; every other planned fault stays live.
        p.inject = p.inject.as_ref().and_then(|s| s.without_rank_crash());
        owned = Some(new_ctx);
    }
}
