//! `chase-topo`: topology-aware collective algorithms with per-hop pricing.
//!
//! The flat rendezvous collective in `chase-comm` moves data in one shot and
//! records one event per call — fine for counting volumes, blind to *how*
//! the wire protocol actually moves bytes. This crate adds the layer NCCL
//! occupies in the real library (paper, Section 3.2):
//!
//! * [`topology`] — a hierarchical machine model (JUWELS-Booster-like:
//!   4-GPU NVLink nodes joined by 4x HDR-200 InfiniBand) assigning every
//!   rank pair a link class with alpha-beta parameters for both the
//!   device-direct (NCCL) and host-staged (MPI) data paths.
//! * [`exec`] — ring, binomial-tree and recursive-doubling schedules for
//!   allreduce / bcast / allgather, built on the point-to-point primitives
//!   of [`chase_comm::Communicator`]. Reductions fold origin-tagged
//!   contributions in member-index order, so every schedule is bitwise
//!   identical to the flat reference; each hop emits chunk-granular `P2p`
//!   ledger events over its physical link.
//! * [`cost`] — analytic alpha-beta costs of those schedules (lockstep
//!   steps priced at their slowest link, fill-drain chunk pipelining).
//! * [`tuner`] — an NCCL-style selector minimizing the analytic cost over
//!   (algorithm, chunk size) per call, given message size, communicator
//!   span and transport.
//!
//! `chase-device` routes its collectives through this crate when a device
//! is built with a forced hop schedule ([`CollectiveAlgo`]); a solve always
//! takes the flat path, and the forced schedules serve the benchmark's
//! topology probe and the tests.

pub mod cost;
pub mod exec;
pub mod topology;
pub mod tuner;

pub use cost::{collective_cost, CollOp};
pub use exec::{allgather, allreduce, bcast, Algo, HopSink};
pub use topology::{LinkParams, Topology};
pub use tuner::{Choice, Tuner, CHUNK_MENU, NOMINAL_GEMM_FLOPS, PANEL_MENU};

/// Which collective execution path a device takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveAlgo {
    /// The original flat rendezvous path (one event per collective).
    #[default]
    Flat,
    /// Force the ring schedule.
    Ring,
    /// Force the binomial-tree schedule.
    Tree,
    /// Force the recursive-doubling schedule.
    Doubling,
}

impl CollectiveAlgo {
    pub const ALL: [CollectiveAlgo; 4] = [
        CollectiveAlgo::Flat,
        CollectiveAlgo::Ring,
        CollectiveAlgo::Tree,
        CollectiveAlgo::Doubling,
    ];

    /// The forced schedule, if this knob pins one (`Flat` doesn't).
    pub fn forced(self) -> Option<Algo> {
        match self {
            CollectiveAlgo::Ring => Some(Algo::Ring),
            CollectiveAlgo::Tree => Some(Algo::Tree),
            CollectiveAlgo::Doubling => Some(Algo::Doubling),
            CollectiveAlgo::Flat => None,
        }
    }
}
