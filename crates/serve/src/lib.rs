//! `chase-serve` — the sequence driver: a solve scheduler with a
//! warm-start session cache.
//!
//! Production eigensolver deployments rarely solve one problem: they solve
//! *sequences* of correlated problems (DFT self-consistency loops, BSE
//! parameter sweeps). This crate runs such workloads over a bounded pool of
//! rank-grid workers:
//!
//! - **Sessions**: jobs tagged `(session, step)` form a correlated
//!   sequence; step `k + 1` starts from step `k`'s final search space and
//!   spectral bounds (skipping the Lanczos estimate entirely), the
//!   approximation-reuse strategy the ChASE paper applies to sequences of
//!   correlated eigenproblems.
//! - **Session cache**: warm-start payloads are kept under a byte budget
//!   with deterministic LRU eviction ([`cache::SessionCache`]).
//! - **Deterministic scheduling**: every decision — dispatch order, warm
//!   vs. cold, eviction — is planned against a canonical order *before*
//!   execution ([`plan`]), so results are bitwise independent of submission
//!   order and worker count.
//! - **Isolation**: a failed job ([`chase_core::ChaseError`], recovery log
//!   attached) degrades only its own session to a cold restart; siblings
//!   and the pool are untouched.
//!
//! ```no_run
//! use chase_serve::{JobSpec, MatrixSource, Scheduler, SchedulerConfig, GenSpec, SpectrumKind};
//! use chase_core::Params;
//! use chase_linalg::C64;
//!
//! let mut sched: Scheduler<C64> = Scheduler::new(SchedulerConfig::default());
//! for step in 0..3 {
//!     let gen = GenSpec { n: 96, spectrum: SpectrumKind::Dft, seed: 7,
//!                         perturb_steps: step, eps: 1e-3 };
//!     let spec = JobSpec::new(format!("scf{step}"),
//!                             MatrixSource::Generated(gen),
//!                             Params::new(8, 4))
//!         .in_session("scf", step);
//!     sched.submit(spec).unwrap();
//! }
//! let reports = sched.drain();
//! assert!(reports.iter().all(|r| r.solve().is_some()));
//! ```

pub mod cache;
pub mod job;
pub mod metrics;
pub mod plan;
pub mod scheduler;
pub mod workload;

pub use cache::{CacheStats, SessionCache};
pub use job::{
    GenSpec, JobId, JobOutcome, JobReport, JobSpec, MatrixSource, SessionTag, SolveOutput,
    SpectrumKind, WarmKind,
};
pub use metrics::ServeMetrics;
pub use scheduler::{ConfigError, Scheduler, SchedulerConfig, SubmitError};
pub use workload::{parse_workload, validate_line};
