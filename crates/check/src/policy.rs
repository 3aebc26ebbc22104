//! Schedule policies: the exploration strategies installed through the
//! [`chase_comm::SchedulePolicy`] seam.
//!
//! All policies here are pure functions of the [`SchedulePoint`] (plus
//! their own immutable configuration), which is what the deposit gates
//! require: every member of a communicator consults the policy with
//! identical arguments and must compute the identical permutation, with no
//! shared scheduler state.

use chase_comm::{CommScope, SchedulePoint, SchedulePolicy, ScheduleStream};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// SplitMix64 finalizer: the one mixing primitive the whole crate uses, so
/// every derived decision is reproducible from a single `u64` seed.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a schedule point's identity: scope, stream, op name,
/// sequence number and member count. Two different collectives never share
/// a hash input, so a seeded policy decorrelates their permutations.
fn point_hash(p: &SchedulePoint) -> u64 {
    chase_trace::fnv1a(
        [p.scope.name(), p.stream.token(), p.op]
            .into_iter()
            .flat_map(str::bytes)
            .chain(p.seq.to_le_bytes())
            .chain((p.members as u64).to_le_bytes()),
    )
}

/// Identity policy: gate every collective, but in member (program) order.
///
/// Semantically this forces exactly the fold order the free-running engine
/// already produces, so `MemberOrder` runs must be bitwise identical to
/// ungated runs — the *gate transparency* invariant the harness asserts
/// before trusting any other schedule. It is also the reference schedule
/// in canary mode, where free-running runs are themselves racy.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemberOrder;

impl SchedulePolicy for MemberOrder {
    fn arrival_order(&self, point: &SchedulePoint) -> Option<Vec<usize>> {
        (point.members >= 2).then(|| (0..point.members).collect())
    }
}

/// Seeded-permutation fuzzer: every schedule point gets an independent
/// Fisher–Yates shuffle drawn from `seed ^ point_hash`, so one `u64` names
/// an entire global schedule and distinct points are decorrelated.
#[derive(Debug, Clone, Copy)]
pub struct SeededSchedule {
    pub seed: u64,
}

impl SeededSchedule {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl SchedulePolicy for SeededSchedule {
    fn arrival_order(&self, point: &SchedulePoint) -> Option<Vec<usize>> {
        if point.members < 2 {
            return None;
        }
        let mut state = self.seed ^ point_hash(point);
        let mut perm: Vec<usize> = (0..point.members).collect();
        for i in (1..point.members).rev() {
            state = mix(state);
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        Some(perm)
    }
}

/// Decode Lehmer code `index` into the `index`-th permutation of
/// `0..members` (lexicographic order). `index` is taken modulo `members!`.
pub fn perm_from_index(members: usize, mut index: u64) -> Vec<usize> {
    let mut fact = 1u64;
    for k in 2..=members as u64 {
        fact = fact.saturating_mul(k);
    }
    index %= fact.max(1);
    let mut pool: Vec<usize> = (0..members).collect();
    let mut out = Vec::with_capacity(members);
    for k in (1..=members).rev() {
        let f: u64 = (1..k as u64).product::<u64>().max(1);
        let i = (index / f) as usize;
        index %= f;
        out.push(pool.remove(i));
    }
    out
}

/// Bounded systematic explorer for small worlds: schedule `k` applies the
/// `k`-th Lehmer permutation (of each communicator's size) at *every*
/// point. Sweeping `k` over `0..members!` of the largest communicator
/// covers every constant-permutation schedule exactly once — a complete
/// (if coarse) enumeration that is feasible for the 4-rank worlds the test
/// matrix uses, complementing the seeded fuzzer's mixed schedules.
#[derive(Debug, Clone, Copy)]
pub struct SystematicSchedule {
    pub index: u64,
}

impl SystematicSchedule {
    pub fn new(index: u64) -> Self {
        Self { index }
    }

    /// Number of distinct constant-permutation schedules for a world of
    /// `members` ranks (`members!`, saturating).
    pub fn space(members: usize) -> u64 {
        (2..=members as u64).product::<u64>().max(1)
    }
}

impl SchedulePolicy for SystematicSchedule {
    fn arrival_order(&self, point: &SchedulePoint) -> Option<Vec<usize>> {
        (point.members >= 2).then(|| perm_from_index(point.members, self.index))
    }
}

/// The schedule-space coordinate a witness pins: one collective op of one
/// stream of one communicator. `members` lives in the recorded value (the
/// permutation's length), not the key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointId {
    /// Grid scope token (`world` / `row` / `col` / `other`).
    pub scope: String,
    pub stream: ScheduleStream,
    pub op: String,
    pub seq: u64,
}

impl PointId {
    pub fn of(point: &SchedulePoint) -> Self {
        Self {
            scope: point.scope.name().to_string(),
            stream: point.stream,
            op: point.op.to_string(),
            seq: point.seq,
        }
    }
}

/// Parse a scope token back to a [`CommScope`] (inverse of
/// [`CommScope::name`]).
pub fn scope_from_name(s: &str) -> Option<CommScope> {
    match s {
        "world" => Some(CommScope::World),
        "row" => Some(CommScope::Row),
        "col" => Some(CommScope::Col),
        "other" => Some(CommScope::Other),
        _ => None,
    }
}

/// Replay policy: the points named in `perms` get their recorded
/// permutation, everything else is gated in identity order — so a replayed
/// run is *fully* pinned and its divergence (or lack of one) is
/// deterministic, not merely biased.
#[derive(Debug, Clone, Default)]
pub struct ExplicitSchedule {
    pub perms: BTreeMap<PointId, Vec<usize>>,
}

impl ExplicitSchedule {
    pub fn new(perms: BTreeMap<PointId, Vec<usize>>) -> Self {
        Self { perms }
    }
}

impl SchedulePolicy for ExplicitSchedule {
    fn arrival_order(&self, point: &SchedulePoint) -> Option<Vec<usize>> {
        if point.members < 2 {
            return None;
        }
        match self.perms.get(&PointId::of(point)) {
            // A stale witness entry whose length no longer matches the
            // communicator would panic in the gate validator; degrade to
            // identity instead so replays of old witnesses fail soft.
            Some(p) if p.len() == point.members => Some(p.clone()),
            _ => Some((0..point.members).collect()),
        }
    }
}

/// Wrapper that records every consulted point and the permutation the
/// inner policy chose. All ranks consult with identical arguments, so the
/// concurrent inserts are idempotent; the harvested map is the shrinker's
/// starting search space.
pub struct RecordingSchedule<P> {
    inner: P,
    log: Mutex<BTreeMap<PointId, Vec<usize>>>,
}

impl<P: SchedulePolicy> RecordingSchedule<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            log: Mutex::new(BTreeMap::new()),
        }
    }

    /// The recorded (point, permutation) map so far.
    pub fn recorded(&self) -> BTreeMap<PointId, Vec<usize>> {
        self.log.lock().unwrap().clone()
    }
}

impl<P: SchedulePolicy> SchedulePolicy for RecordingSchedule<P> {
    fn arrival_order(&self, point: &SchedulePoint) -> Option<Vec<usize>> {
        let perm = self.inner.arrival_order(point)?;
        self.log
            .lock()
            .unwrap()
            .entry(PointId::of(point))
            .or_insert_with(|| perm.clone());
        Some(perm)
    }
}

/// True when `perm` is the identity permutation (a no-op gate the shrinker
/// can drop without a rerun).
pub fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &m)| i == m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(op: &'static str, seq: u64, members: usize) -> SchedulePoint {
        SchedulePoint {
            scope: CommScope::World,
            stream: ScheduleStream::Blocking,
            op,
            seq,
            members,
        }
    }

    #[test]
    fn seeded_is_pure_and_seed_sensitive() {
        let p = pt("allreduce", 7, 4);
        let a = SeededSchedule::new(3).arrival_order(&p).unwrap();
        let b = SeededSchedule::new(3).arrival_order(&p).unwrap();
        assert_eq!(a, b, "same seed, same point, same permutation");
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            seen.insert(SeededSchedule::new(seed).arrival_order(&p).unwrap());
        }
        assert!(seen.len() > 8, "32 seeds explore many of the 24 orders");
    }

    #[test]
    fn seeded_decorrelates_points() {
        let s = SeededSchedule::new(5);
        let orders: std::collections::BTreeSet<_> = (0..16)
            .map(|seq| s.arrival_order(&pt("allreduce", seq, 4)).unwrap())
            .collect();
        assert!(orders.len() > 4, "per-point shuffles differ across seqs");
    }

    #[test]
    fn lehmer_enumeration_is_complete() {
        let all: std::collections::BTreeSet<_> = (0..SystematicSchedule::space(4))
            .map(|k| perm_from_index(4, k))
            .collect();
        assert_eq!(all.len(), 24);
        assert_eq!(perm_from_index(4, 0), vec![0, 1, 2, 3]);
        assert_eq!(perm_from_index(3, 5), vec![2, 1, 0]);
    }

    #[test]
    fn explicit_defaults_to_identity_and_replays_pins() {
        let p = pt("allreduce", 2, 3);
        let mut perms = BTreeMap::new();
        perms.insert(PointId::of(&p), vec![2, 0, 1]);
        let pol = ExplicitSchedule::new(perms);
        assert_eq!(pol.arrival_order(&p), Some(vec![2, 0, 1]));
        assert_eq!(
            pol.arrival_order(&pt("allreduce", 3, 3)),
            Some(vec![0, 1, 2])
        );
    }

    #[test]
    fn recorder_logs_consulted_points() {
        let rec = RecordingSchedule::new(SeededSchedule::new(9));
        let p = pt("bcast", 4, 4);
        let perm = rec.arrival_order(&p).unwrap();
        let log = rec.recorded();
        assert_eq!(log.len(), 1);
        assert_eq!(log[&PointId::of(&p)], perm);
    }

    #[test]
    fn scope_tokens_round_trip() {
        for s in [
            CommScope::World,
            CommScope::Row,
            CommScope::Col,
            CommScope::Other,
        ] {
            assert_eq!(scope_from_name(s.name()), Some(s));
        }
        assert_eq!(scope_from_name("grid"), None);
    }
}
