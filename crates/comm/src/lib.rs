//! # chase-comm
//!
//! In-process SPMD runtime standing in for the MPI + NCCL layer of the
//! distributed ChASE library (see DESIGN.md, substitution table).
//!
//! * [`collective`] — rendezvous-based AllReduce / Bcast / AllGather /
//!   Barrier over thread "ranks", semantically matching the collectives used
//!   in Algorithm 2 of the paper.
//! * [`grid`] — the 2D rank grid with row and column communicators, plus the
//!   [`grid::run_grid`] SPMD runner.
//! * [`ledger`] — per-rank event log of compute kernels, collectives and
//!   host↔device transfers, from which `chase-perfmodel` prices the paper's
//!   Fig. 2 profile.
//! * [`json`] — the workspace's one JSON reader (ledger events here; trace,
//!   plan-DB and checkpoint files through `chase_trace::json`).

pub mod collective;
pub mod grid;
pub mod json;
pub mod ledger;
pub mod partition;
pub mod schedule;
pub mod seams;
pub mod trace_hook;

pub use collective::{
    scaled_timeout_ms, CommError, Communicator, DeadBoard, DeathHandle, GridSlots, NbPoolStats,
    RankDeadPanic, Reduce, Request, SendBuf, Slot, WaitTimeout, DEFAULT_WAIT_TIMEOUT_MS,
};
pub use grid::{block_range, run_grid, shrink_ctx, solo_ctx, GridShape, RankCtx, SpmdOutput};
pub use ledger::{
    kind_from_json, kind_to_json, now_us, Category, Event, EventKind, Ledger, LinkClass, Region,
    RegionGuard,
};
pub use partition::{Distribution, IndexSet};
pub use schedule::{SchedulePoint, SchedulePolicy, ScheduleStream};
pub use seams::{RankSeams, SeamGuard, Seams};
pub use trace_hook::{CommScope, TraceHook};
