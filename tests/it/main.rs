//! Integration suites compiled into one test binary, one module each: each
//! suite links the whole workspace and instantiates the generic solver, so
//! one crate pays that once instead of once per suite. The suites not listed
//! here are still their own crates (`tests/*.rs`).
//!
//! Select a suite with a filter on the one binary, e.g.
//! `cargo test --test it -- tune::` or `cargo test --test it -- check:: matrix::`.
//! A module keeps its file stem, which is also the name of its persisted
//! proptest seeds (`proptest-regressions/<stem>.txt`).

mod common;

mod analytic_vs_live;
mod block_cyclic;
mod check;
mod edge_cases;
mod faults;
mod filter_invariants;
mod matrix;
mod memory_eq2;
mod overlap;
mod properties;
mod qr_ladder;
mod serve;
mod trace_replay;
mod tune;
