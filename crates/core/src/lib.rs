//! # chase-core
//!
//! The ChASE eigensolver — Chebyshev Accelerated Subspace iteration for
//! dense Hermitian problems — with the SC'23 paper's novel parallelization
//! scheme, flexible communication-avoiding QR, condition-number-driven QR
//! switching, and backend-dependent (MPI-staged vs NCCL device-direct)
//! collective accounting.
//!
//! Entry points:
//! * [`solve_dist`] — the one way into the solver: an SPMD solve inside a
//!   [`chase_comm::run_grid`] region, cold or warm-started from the previous
//!   problem of a sequence (`Option<&WarmStart<T>>`). Every failure —
//!   malformed parameters, a warm block of the wrong shape, an unrecoverable
//!   injected fault — is a typed [`ChaseError`], before any collective where
//!   the input decides it.
//! * [`solve_serial`] — `solve_dist` on a replicated matrix and a 1x1 grid,
//!   without spawning a thread.
//! * [`try_solve_elastic`] — `solve_dist` re-attempted on a shrunk grid when
//!   a rank dies; `chase_tune::solve_grid`, the SPMD driver the CLI, the
//!   serve scheduler and `chase check` share, picks it when the fault spec
//!   plans a crash.
//! * [`lms::solve_lms`] — the legacy v1.2 layout (redundant QR/RR/residuals),
//!   kept as the ChASE(LMS) baseline of the paper's evaluation.

pub mod ckpt;
pub mod condest;
pub mod degrees;
pub mod elastic;
pub mod filter;
pub mod hemm;
pub mod layout;
pub mod lms;
pub mod params;
pub mod plan;
pub mod qr;
pub mod result;
pub mod solver;
mod subspace;
pub mod warm;

pub use ckpt::{load_latest, CkptError, Snapshot, CKPT_FORMAT, CKPT_VERSION};
pub use condest::{cond_est, growth_factor};
pub use degrees::{degree_sort_permutation, optimal_degree, optimize_degrees};
pub use elastic::{try_solve_elastic, ElasticOutcome};
pub use filter::{
    chebyshev_filter, chebyshev_filter_mixed, chebyshev_filter_with, FilterBounds, FilterError,
    FilterExec,
};
pub use hemm::{hemm_b_to_c, hemm_c_to_b};
pub use layout::{DistHerm, MemoryReport, RowDist};
pub use params::{Params, QrStrategy};
pub use plan::{PlanSource, SolvePlan};
pub use qr::{
    cholesky_qr, flexible_qr, householder_qr_dist, ladder_start, next_rung, qr_ladder,
    shifted_cholesky_qr2, LadderAttempt, QrError, QrVariant, COND_SHIFTED, COND_SINGLE,
};
pub use result::{
    ChaseError, ChaseErrorKind, ChaseResult, IterStats, RecoveryEvent, RecoveryEventKind,
    RecoveryLog,
};
/// The name `bench_e2e/src/adapter.rs` calls [`solve_dist`] by; goes with
/// the next PR that may edit the benchmark.
pub use solver::solve_dist as try_solve_dist_warm;
pub use solver::{estimate_bounds_dist, solve_dist, solve_serial, Chase};
pub use warm::WarmStart;
