//! Schedule-exploration seam: deterministic control over the *order* in
//! which ranks deposit their contributions to a collective.
//!
//! The in-process runtime is free-running: which rank arrives at a
//! rendezvous first depends on OS scheduling. The solver's correctness
//! story says that must not matter — every reduction folds in member-index
//! order, so results are bitwise identical no matter who arrives when.
//! A [`SchedulePolicy`] makes that claim *testable*: it pins the arrival
//! order of every collective to an explicit permutation, turning the
//! nondeterministic schedule space into an enumerable one. `chase-check`
//! installs policies (seeded shuffles, systematic enumerations, replayed
//! witnesses) and asserts that every explored schedule yields the same
//! bits.
//!
//! Enforcement is *deposit gating*: before a rank deposits its payload it
//! waits (on the collective engine's condition variable) until the
//! number of earlier deposits equals its assigned slot in the permutation.
//! Because the permutation is a pure function of the schedule point and is
//! computed identically on every rank (SPMD), no extra shared state is
//! needed and the gate cannot livelock — each deposit unblocks exactly the
//! next slot. A watchdog bounds the gate wait: if the slot never comes up
//! (e.g. the predecessor never posts), the gate panics
//! with a diagnostic instead of hanging the test run.

use crate::trace_hook::CommScope;

/// Which stream of a communicator's collectives a schedule point belongs
/// to. Blocking calls and nonblocking posts share one engine and one gate
/// but count separately, so a point is only unique within its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScheduleStream {
    /// Blocking collectives (`allreduce_sum`, `bcast`, `allgather`,
    /// `barrier`); `seq` is the per-rank blocking op id.
    Blocking,
    /// Nonblocking posts (`iallreduce_sum`, `iallreduce_sum_staged`);
    /// `seq` is the per-rank nonblocking op id.
    Nonblocking,
    /// Hop-granular delivery inside a topology-aware collective
    /// (`chase-topo`); `seq` is the op's p2p tag namespace.
    Hop,
}

impl ScheduleStream {
    /// Short stable token used by witness files.
    pub fn token(self) -> &'static str {
        match self {
            ScheduleStream::Blocking => "blk",
            ScheduleStream::Nonblocking => "nb",
            ScheduleStream::Hop => "hop",
        }
    }

    /// Inverse of [`ScheduleStream::token`].
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "blk" => Some(ScheduleStream::Blocking),
            "nb" => Some(ScheduleStream::Nonblocking),
            "hop" => Some(ScheduleStream::Hop),
            _ => None,
        }
    }
}

/// One schedulable decision: "in what order do the members of communicator
/// `scope` deposit their contributions to op `seq` of `stream`?" SPMD
/// discipline makes every field identical across the ranks consulting it,
/// which is what lets each rank compute its own slot locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePoint {
    /// Grid scope of the communicator (world / row / column).
    pub scope: CommScope,
    /// Which stream the op belongs to.
    pub stream: ScheduleStream,
    /// Collective name ("allreduce", "iallreduce", "bcast", ...).
    pub op: &'static str,
    /// Stream-local sequence number of the op.
    pub seq: u64,
    /// Number of members in the communicator.
    pub members: usize,
}

/// Policy controlling the deposit order of collective contributions.
///
/// `arrival_order` must be a *pure* function of the point: every member of
/// the communicator calls it with identical arguments and must receive the
/// identical answer (the usual SPMD contract). Returning `None` leaves the
/// op free-running (no gating, the production default); returning
/// `Some(perm)` forces member `perm[k]` to deposit `k`-th. The permutation
/// must contain every member index exactly once — the gate validates this
/// and panics on a malformed policy rather than deadlocking silently.
pub trait SchedulePolicy: Send + Sync {
    /// Forced deposit order for `point`, or `None` for free-running.
    fn arrival_order(&self, point: &SchedulePoint) -> Option<Vec<usize>>;
}

/// Validate `perm` as a permutation of `0..members` and return the slot of
/// `member` within it. Used by the deposit gates.
pub(crate) fn slot_in_perm(
    perm: &[usize],
    members: usize,
    member: usize,
    point: &SchedulePoint,
) -> usize {
    assert_eq!(
        perm.len(),
        members,
        "SchedulePolicy returned a {}-element order for a {}-member communicator at {:?}",
        perm.len(),
        members,
        point
    );
    let mut seen = vec![false; members];
    for &m in perm {
        assert!(
            m < members && !seen[m],
            "SchedulePolicy returned a malformed permutation {:?} at {:?}",
            perm,
            point
        );
        seen[m] = true;
    }
    perm.iter()
        .position(|&m| m == member)
        .expect("validated permutation covers every member")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> SchedulePoint {
        SchedulePoint {
            scope: CommScope::World,
            stream: ScheduleStream::Nonblocking,
            op: "iallreduce",
            seq: 3,
            members: 3,
        }
    }

    #[test]
    fn stream_tokens_round_trip() {
        for s in [
            ScheduleStream::Blocking,
            ScheduleStream::Nonblocking,
            ScheduleStream::Hop,
        ] {
            assert_eq!(ScheduleStream::from_token(s.token()), Some(s));
        }
        assert_eq!(ScheduleStream::from_token("bogus"), None);
    }

    #[test]
    fn slot_lookup_finds_position() {
        let p = point();
        assert_eq!(slot_in_perm(&[2, 0, 1], 3, 0, &p), 1);
        assert_eq!(slot_in_perm(&[2, 0, 1], 3, 2, &p), 0);
    }

    #[test]
    #[should_panic(expected = "malformed permutation")]
    fn duplicate_member_is_rejected() {
        slot_in_perm(&[0, 0, 1], 3, 0, &point());
    }

    #[test]
    #[should_panic(expected = "3-element order")]
    fn wrong_length_is_rejected() {
        slot_in_perm(&[0, 1, 2], 4, 0, &point());
    }
}
