//! # chase-perfmodel
//!
//! Performance reproduction layer: prices the event ledgers recorded by the
//! functional runtime on a calibrated JUWELS-Booster machine description,
//! and generates analytic event streams for scales the functional simulator
//! cannot reach (Figs. 2–3 of the paper go to 900 nodes / 3600 GPUs /
//! `N = 900k`).
//!
//! * [`machine`] — calibrated A100/InfiniBand constants and per-event cost
//!   functions (MPI-tree vs NCCL-ring collectives, PCIe staging, kernels).
//! * [`profile`] — ledger -> {compute, comm, transfer} per kernel (Fig. 2).
//! * [`analytic`] — symbolic per-iteration event streams mirroring
//!   `chase-core`, validated against live ledgers at small scale.
//! * [`elpa`] — closed-form ELPA1/ELPA2 baselines (Fig. 3b).

pub mod analytic;
pub mod elpa;
pub mod live;
pub mod machine;
pub mod profile;

pub use analytic::{iteration_events, solve_events, IterationSpec, Layout};
pub use elpa::{elpa_time, ElpaKind, ElpaTime};
pub use live::{diff_table, price_trace, region_diff};
pub use machine::{CommFlavor, Machine, ScalarKind};
pub use profile::{price_ledger, profiled_time, PriceCtx, RegionCost};
