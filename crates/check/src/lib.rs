//! `chase-check`: schedule-exploration + differential-oracle harness.
//!
//! The whole correctness story of the in-process SPMD runtime rests on one
//! claim: *the schedule does not matter*. Whichever rank reaches a
//! rendezvous first, whichever nonblocking post completes first, whichever
//! hop of a topology-aware collective delivers first — every reduction
//! folds in member-index order, so the solver's results are bitwise
//! identical across all of them. Production code relies on that invariant;
//! until this crate, nothing *explored* the schedule space to test it.
//!
//! Three layers:
//!
//! * **Exploration** ([`policy`]) — [`chase_comm::SchedulePolicy`]
//!   implementations that pin the deposit order of every collective:
//!   [`policy::MemberOrder`] (program order, the gate-transparency
//!   baseline), [`policy::SeededSchedule`] (seeded-permutation fuzzer),
//!   [`policy::SystematicSchedule`] (bounded Lehmer-code enumeration for
//!   small worlds) and [`policy::ExplicitSchedule`] (replay of a recorded
//!   witness). [`policy::RecordingSchedule`] wraps any of them and logs
//!   the consulted points, which is what the shrinker minimizes over.
//!
//! * **Invariants + oracle** ([`harness`]) — run one solve configuration
//!   ([`config::CheckCase`]) under many schedules and assert every run
//!   produces an identical [`harness::Fingerprint`]: eigenvalue/residual/
//!   eigenvector bit patterns, the wall-clock-free ledger projection, the
//!   deterministic chrome-trace bytes, and the iteration/matvec counters.
//!   The differential oracle cross-checks eigenvalues against the dense
//!   `chase-direct` solver and across process grids.
//!
//! * **Minimizing replay** ([`shrink`], [`replay`]) — on a violation, the
//!   shrinker greedily drops recorded permutations back to identity and
//!   reduces survivors toward single adjacent transpositions, re-running
//!   after each step, until a minimal [`replay::Witness`] remains. The
//!   witness serializes to a line-oriented text file that
//!   `chase check --replay` (and [`replay::replay`]) consumes to
//!   deterministically reproduce the divergence.
//!
//! Because correct code never violates the invariant, the harness proves
//! it can catch bugs via a *mutation canary*: the rank seam record's
//! order-sensitive-fold flag ([`chase_comm::Seams::order_canary`]) makes
//! reductions fold in arrival order, a deliberately planted bug of exactly
//! the class the harness hunts.

pub mod config;
pub mod harness;
pub mod policy;
pub mod replay;
pub mod shrink;

pub use config::{default_matrix, CheckCase, ScalarKind};
pub use harness::{
    check_case, cross_config_check, differential_check, run_case, CheckReport, Fingerprint,
    Violation,
};
pub use policy::{
    ExplicitSchedule, MemberOrder, PointId, RecordingSchedule, SeededSchedule, SystematicSchedule,
};
pub use replay::{replay, Witness};
pub use shrink::{shrink, ShrinkBudget};
