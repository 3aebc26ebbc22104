//! Tracing hook interface consulted by the comm layer and the rank context.
//!
//! `chase-trace` implements [`TraceHook`]; this crate only defines the seam,
//! which keeps the recorder out of the comm crate. A hook is installed per rank (never shared across ranks) and
//! every callback is purely local — no collective, no rendezvous — so
//! recording can never perturb the SPMD collective order.
//!
//! Determinism contract: callbacks carry only data that is a pure function
//! of the program (regions, kernel shapes, per-communicator collective
//! sequence numbers, counter deltas). No wall-clock time crosses this
//! interface, which is what lets two identical runs produce byte-identical
//! traces.

use crate::ledger::{EventKind, Region};

/// Which of a rank's communicators a collective ran on. World collectives
/// are the global synchronization points the trace stitcher aligns ranks on;
/// row/column collectives only order events within their sub-communicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommScope {
    World,
    Row,
    Col,
    /// A communicator outside the standard grid triple (tests, ad-hoc).
    Other,
}

impl CommScope {
    pub fn name(self) -> &'static str {
        match self {
            CommScope::World => "world",
            CommScope::Row => "row",
            CommScope::Col => "col",
            CommScope::Other => "other",
        }
    }

    pub fn parse_name(s: &str) -> Option<CommScope> {
        Some(match s {
            "world" => CommScope::World,
            "row" => CommScope::Row,
            "col" => CommScope::Col,
            "other" => CommScope::Other,
            _ => return None,
        })
    }
}

/// Structured-tracing sink. All methods take `&self`; implementations use
/// interior mutability. Runs without a hook installed pay one `RefCell`
/// borrow per call site — the zero-cost-when-disabled discipline.
pub trait TraceHook: Send + Sync {
    /// A ledger-style operation record (kernel, collective or transfer)
    /// attributed to a solver region.
    fn event(&self, region: Region, kind: EventKind);

    /// The solver entered `region` (opens/closes the region sub-span).
    fn region(&self, region: Region);

    /// Open a named hierarchical span (`"solve"`, `"iteration"`); `arg`
    /// carries the iteration number or 0.
    fn span_begin(&self, name: &'static str, arg: u64);

    /// Close the innermost open span named `name` (closing any nested spans
    /// opened after it).
    fn span_end(&self, name: &'static str);

    /// Increment a named monotonic counter (`"qr_rung_climbs"`,
    /// `"recovery_events"`, ...).
    fn counter(&self, name: &'static str, delta: u64);

    /// A collective operation was issued on communicator `scope` with
    /// per-communicator sequence number `seq` (blocking calls and
    /// nonblocking posts share one counter; SPMD discipline keeps it
    /// identical across the communicator's members).
    fn collective(&self, scope: CommScope, op: &'static str, seq: u64, bytes: u64, members: u64);
}
