//! # chase-trace
//!
//! Structured tracing and metrics for the ChASE reproduction: the
//! observability layer behind the paper's per-region, per-rank evaluation
//! (Fig. 2 profiles, Table 2 QR breakdowns). The shape mirrors what NCCL
//! ships as NVTX ranges plus proxy-thread profiling — hierarchical spans
//!
//! ```text
//! solve > iteration > {lanczos, filter, qr, rr, resid} > collective
//! ```
//!
//! recorded per rank and stitched into one globally ordered timeline using
//! the per-communicator collective sequence numbers emitted by the comm
//! layer.
//!
//! ## Determinism contract
//!
//! A trace is a pure function of the program: span names, iteration
//! numbers, kernel shapes, collective sequence numbers and counter values —
//! **never wall-clock time**. Two runs with the same seed (and the same
//! `FaultSpec`) produce byte-identical [`Trace::to_json`] output; the
//! Chrome exporter synthesizes timestamps from per-rank event ordinals so
//! even the Perfetto-loadable file replays bit for bit. Recording is
//! SPMD-safe by construction: every [`TraceRecorder`] callback is purely
//! local, so tracing can never perturb the collective order it observes.
//!
//! ## Pieces
//!
//! * [`TraceRecorder`] — the per-rank [`chase_comm::TraceHook`] sink;
//!   zero-cost when not installed, one atomic load when installed disabled.
//! * [`stitch`] — merges per-rank streams into a global [`Timeline`],
//!   returning a typed [`StitchError`] on out-of-order sequence numbers or
//!   rank-truncated streams (never a panic, never a silent reorder).
//! * [`export`] — Chrome trace-event JSON (`chrome://tracing` / Perfetto),
//!   a flat per-region summary table matching Fig. 2's categories, and
//!   machine-readable metrics JSON for the bench bins.
//! * [`to_ledger`] — converts a recorded trace back into a
//!   [`chase_comm::Ledger`] so `chase-perfmodel` can price a *recorded*
//!   run instead of a synthetic event stream.

pub mod export;
pub mod model;
pub mod recorder;
pub mod stitch;

/// The workspace's JSON reader; it lives in chase-comm, next to the ledger
/// event codec that shares it.
pub use chase_comm::json;
pub use export::{chrome_trace, metrics_json, summary_table, validate_chrome_trace};
pub use model::{to_ledger, RankTrace, Trace, TraceEvent};
pub use recorder::TraceRecorder;
pub use stitch::{stitch, GlobalEvent, StitchError, Timeline};

/// FNV-1a over a byte stream: the workspace's one stable content hash
/// (checkpoint checksums, plan-DB content hashes and machine fingerprints,
/// seeded schedule permutations, `chase check` fingerprints). Stable across
/// runs and toolchains, unlike `DefaultHasher`'s seeded SipHash.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}
