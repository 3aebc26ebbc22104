//! `chase-tune`: collective micro-benchmark trials with a persistent plan
//! database.
//!
//! A solve's collectives take the flat path; `chase-topo`'s analytic
//! alpha-beta tuner models which hop schedule would win. This crate
//! *measures* that choice: it runs short trials of the solver's
//! collectives ([`trial::tune_entry`]), on the deterministic perf-model
//! clock or the wall clock, and records the winners in a versioned
//! [`db::PlanDb`] keyed by machine fingerprint × grid × problem × scalar.
//! The benchmark probes both as a layer: one wall-clock tuning pass and the
//! database's `emit`/`parse` round trip. No solve reads a plan.
//!
//! Being the lowest crate that sees the solver and the trace recorder
//! together, this crate also holds the one SPMD driver around a solve,
//! [`grid::solve_grid`].

pub mod db;
pub mod fingerprint;
pub mod grid;
pub mod trial;

pub use db::{CollRule, DbError, PlanDb, PlanEntry, PlanKey, DB_FORMAT, DB_VERSION};
pub use fingerprint::machine_fingerprint;
pub use grid::{solve_grid, GridOutcome, GridRun};
pub use trial::{plan_key, scalar_kind, scalar_name, tune_entry, TuneOptions, TuneOutcome};
