//! Topology-aware collective algorithms executed on the p2p primitives.
//!
//! Each algorithm separates the *data plane* from the *cost plane*:
//!
//! * **Data plane** — messages carry origin-tagged contributions
//!   `(member, values)`. Wherever a reduction (or concatenation) completes,
//!   the contributions are folded **in member-index order**, which makes
//!   every algorithm produce results bitwise identical to the sequential
//!   reference (and to the flat rendezvous collective), despite floating
//!   point being non-associative. Correctness is therefore independent of
//!   the hop schedule.
//! * **Cost plane** — every send additionally emits `P2p` hop events sized
//!   like the *real* algorithm's wire traffic (a reduced partial vector,
//!   not the tagged contribution list), split at `chunk_bytes` granularity,
//!   over the physical link the topology assigns to the pair. The ledger
//!   then prices the actual hop sequence over the actual links.
//!
//! Senders record hops; receivers do not (the per-rank ledger mirrors what
//! each rank injects into the fabric).

use crate::topology::Topology;
use chase_comm::{block_range, Communicator, LinkClass, Reduce, SchedulePoint, ScheduleStream};
use std::ops::Range;

/// Concrete executable hop schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Ring: bandwidth-optimal, `O(k)` latency steps of `n/k`-sized hops.
    Ring,
    /// Binomial tree: latency-optimal, `O(log k)` full-size hops.
    Tree,
    /// Recursive doubling (allreduce/allgather) or scatter+ring-allgather
    /// (bcast): the halved-latency large-communicator alternative.
    Doubling,
}

impl Algo {
    pub const ALL: [Algo; 3] = [Algo::Ring, Algo::Tree, Algo::Doubling];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Ring => "ring",
            Algo::Tree => "tree",
            Algo::Doubling => "doubling",
        }
    }
}

/// Sink receiving one `(bytes, link)` record per emitted hop chunk.
pub type HopSink<'a> = &'a mut dyn FnMut(u64, LinkClass);

/// Origin-tagged contributions: `(member index, values)`.
type Parts<T> = Vec<(u32, Vec<T>)>;

/// Reorder `parts` per the installed schedule policy's hop-granular
/// decision for op `tag`: a stand-in for contributions arriving over the
/// wire in a different interleaving. With the member-order sort below this
/// is semantically invisible — which is exactly the invariant `chase-check`
/// explores — while the order-sensitive-fold canary makes it observable.
fn hop_permute<T>(comm: &Communicator, tag: u64, parts: &mut Parts<T>) {
    let Some(policy) = comm.seams().get().schedule.clone() else {
        return;
    };
    let point = SchedulePoint {
        scope: comm.scope(),
        stream: ScheduleStream::Hop,
        op: "fold",
        seq: tag,
        members: parts.len(),
    };
    let Some(perm) = policy.arrival_order(&point) else {
        return;
    };
    assert_eq!(
        perm.len(),
        parts.len(),
        "hop permutation must cover every contribution"
    );
    let mut old: Vec<Option<(u32, Vec<T>)>> = std::mem::take(parts).into_iter().map(Some).collect();
    *parts = perm
        .iter()
        .map(|&i| old[i].take().expect("malformed hop permutation"))
        .collect();
}

/// Fold contributions in member-index order — the canonical reduction order
/// shared with the flat collective, giving bitwise-identical results. The
/// order-sensitive-fold canary skips the sort, folding in (schedulable)
/// arrival order instead — the reproducibility bug class this repo's
/// invariant rules out.
fn fold_in_order<T: Reduce>(comm: &Communicator, tag: u64, mut parts: Parts<T>) -> Vec<T> {
    hop_permute(comm, tag, &mut parts);
    if !comm.seams().get().order_canary {
        parts.sort_by_key(|p| p.0);
    }
    let mut it = parts.into_iter();
    let (_, mut acc) = it
        .next()
        .expect("reduction needs at least one contribution");
    for (_, v) in it {
        assert_eq!(v.len(), acc.len(), "contribution length mismatch");
        for (a, b) in acc.iter_mut().zip(&v) {
            a.reduce(b);
        }
    }
    acc
}

/// Concatenate contributions in member-index order (allgather semantics).
fn concat_in_order<T>(mut parts: Parts<T>) -> Vec<T> {
    parts.sort_by_key(|p| p.0);
    parts.into_iter().flat_map(|(_, v)| v).collect()
}

fn parts_bytes<T>(parts: &Parts<T>) -> u64 {
    parts
        .iter()
        .map(|(_, v)| (v.len() * size_of::<T>()) as u64)
        .sum()
}

/// Physical link between two members of `comm`.
fn link(comm: &Communicator, topo: &Topology, a: usize, b: usize) -> LinkClass {
    topo.link_between(comm.label_of(a), comm.label_of(b))
}

/// Emit `bytes` over `link` as `ceil(bytes / chunk_bytes)` chunk-sized hop
/// events (the pipelining granularity of the wire protocol).
fn emit(sink: HopSink<'_>, bytes: u64, link: LinkClass, chunk_bytes: u64) {
    if bytes == 0 {
        return;
    }
    let n = bytes.div_ceil(chunk_bytes.max(1));
    let base = bytes / n;
    let rem = bytes % n;
    for i in 0..n {
        sink(base + u64::from(i < rem), link);
    }
}

// ---------------------------------------------------------------------------
// allreduce
// ---------------------------------------------------------------------------

/// Sum-allreduce of `buf` over `comm` with the given hop schedule.
pub fn allreduce<T: Reduce>(
    comm: &Communicator,
    topo: &Topology,
    buf: &mut [T],
    algo: Algo,
    chunk_bytes: u64,
    sink: HopSink<'_>,
) {
    if comm.size() <= 1 || buf.is_empty() {
        return;
    }
    match algo {
        Algo::Ring => ring_allreduce(comm, topo, buf, chunk_bytes, sink),
        Algo::Tree => tree_allreduce(comm, topo, buf, chunk_bytes, sink),
        Algo::Doubling => doubling_allreduce(comm, topo, buf, chunk_bytes, sink),
    }
}

/// Ring allreduce: `k-1` reduce-scatter steps followed by `k-1` allgather
/// steps, each moving one `n/k` segment to the next neighbor.
fn ring_allreduce<T: Reduce>(
    comm: &Communicator,
    topo: &Topology,
    buf: &mut [T],
    chunk_bytes: u64,
    sink: HopSink<'_>,
) {
    let k = comm.size();
    let r = comm.rank();
    let tag = comm.next_op_seq();
    let es = size_of::<T>() as u64;
    let next = (r + 1) % k;
    let prev = (r + k - 1) % k;
    let l_next = link(comm, topo, r, next);
    let segs: Vec<Range<usize>> = (0..k).map(|s| block_range(buf.len(), k, s)).collect();
    let seg_bytes = |s: usize| segs[s].len() as u64 * es;

    // Reduce-scatter: after step t, segment (r-t-1) holds t+2 contributions.
    let mut parts: Vec<Parts<T>> = segs
        .iter()
        .map(|rg| vec![(r as u32, buf[rg.clone()].to_vec())])
        .collect();
    for step in 0..k - 1 {
        let s_send = (r + k - step) % k;
        let s_recv = (r + 2 * k - 1 - step) % k;
        let payload = std::mem::take(&mut parts[s_send]);
        emit(sink, seg_bytes(s_send), l_next, chunk_bytes);
        comm.send(next, tag, payload);
        let incoming: Parts<T> = comm.recv(prev, tag);
        parts[s_recv].extend(incoming);
    }

    // This rank now owns the fully-reduced segment (r+1) mod k.
    let own = (r + 1) % k;
    let mut seg_data: Vec<Option<Vec<T>>> = vec![None; k];
    seg_data[own] = Some(fold_in_order(comm, tag, std::mem::take(&mut parts[own])));

    // Allgather: circulate the finished segments around the same ring.
    for step in 0..k - 1 {
        let s_send = (own + k - step) % k;
        let s_recv = (own + 2 * k - 1 - step) % k;
        let payload = seg_data[s_send]
            .clone()
            .expect("segment not yet circulated");
        emit(sink, seg_bytes(s_send), l_next, chunk_bytes);
        comm.send(next, tag, payload);
        seg_data[s_recv] = Some(comm.recv(prev, tag));
    }
    for (s, rg) in segs.iter().enumerate() {
        buf[rg.clone()].clone_from_slice(seg_data[s].as_ref().unwrap());
    }
}

/// Binomial-tree allreduce: reduce to member 0 up the tree, fold there in
/// member order, broadcast back down. `2 ceil(log2 k)` full-size hop levels.
fn tree_allreduce<T: Reduce>(
    comm: &Communicator,
    topo: &Topology,
    buf: &mut [T],
    chunk_bytes: u64,
    sink: HopSink<'_>,
) {
    let k = comm.size();
    let r = comm.rank();
    let tag = comm.next_op_seq();
    let bytes = std::mem::size_of_val(buf) as u64;

    // Reduce phase: a rank sends at the level of its lowest set bit, then
    // waits for the downward broadcast.
    let mut parts: Option<Parts<T>> = Some(vec![(r as u32, buf.to_vec())]);
    let mut m = 1;
    while m < k {
        if r & m != 0 {
            let dst = r - m;
            emit(sink, bytes, link(comm, topo, r, dst), chunk_bytes);
            comm.send(dst, tag, parts.take().unwrap());
            break;
        }
        if r + m < k {
            let incoming: Parts<T> = comm.recv(r + m, tag);
            parts.as_mut().unwrap().extend(incoming);
        }
        m <<= 1;
    }
    if r == 0 {
        buf.clone_from_slice(&fold_in_order(comm, tag, parts.take().unwrap()));
    }

    // Broadcast phase: mirror of the reduce tree, mask descending.
    let mut have = r == 0;
    let mut m = k.next_power_of_two() / 2;
    while m >= 1 {
        if have && r.is_multiple_of(2 * m) && r + m < k {
            emit(sink, bytes, link(comm, topo, r, r + m), chunk_bytes);
            comm.send(r + m, tag, buf.to_vec());
        } else if !have && r % (2 * m) == m {
            let data: Vec<T> = comm.recv(r - m, tag);
            buf.clone_from_slice(&data);
            have = true;
        }
        m >>= 1;
    }
}

/// Recursive-doubling allreduce: `log2` rounds of full-size pairwise
/// exchanges on the largest power-of-two core, with a fold-in pre-phase and
/// a result push post-phase for the remainder ranks.
fn doubling_allreduce<T: Reduce>(
    comm: &Communicator,
    topo: &Topology,
    buf: &mut [T],
    chunk_bytes: u64,
    sink: HopSink<'_>,
) {
    let k = comm.size();
    let r = comm.rank();
    let tag = comm.next_op_seq();
    let bytes = std::mem::size_of_val(buf) as u64;
    let p2 = if k.is_power_of_two() {
        k
    } else {
        k.next_power_of_two() / 2
    };
    let rem = k - p2;

    let mut parts: Parts<T> = vec![(r as u32, buf.to_vec())];
    if r >= p2 {
        let peer = r - p2;
        emit(sink, bytes, link(comm, topo, r, peer), chunk_bytes);
        comm.send(peer, tag, parts);
        let done: Vec<T> = comm.recv(peer, tag);
        buf.clone_from_slice(&done);
        return;
    }
    if r < rem {
        let incoming: Parts<T> = comm.recv(r + p2, tag);
        parts.extend(incoming);
    }
    let mut m = 1;
    while m < p2 {
        let partner = r ^ m;
        emit(sink, bytes, link(comm, topo, r, partner), chunk_bytes);
        comm.send(partner, tag, parts.clone());
        let incoming: Parts<T> = comm.recv(partner, tag);
        parts.extend(incoming);
        m <<= 1;
    }
    buf.clone_from_slice(&fold_in_order(comm, tag, parts));
    if r < rem {
        emit(sink, bytes, link(comm, topo, r, r + p2), chunk_bytes);
        comm.send(r + p2, tag, buf.to_vec());
    }
}

// ---------------------------------------------------------------------------
// bcast
// ---------------------------------------------------------------------------

/// Broadcast `buf` from `root` with the given hop schedule.
pub fn bcast<T: Clone + Send + Sync + 'static>(
    comm: &Communicator,
    topo: &Topology,
    buf: &mut [T],
    root: usize,
    algo: Algo,
    chunk_bytes: u64,
    sink: HopSink<'_>,
) {
    assert!(root < comm.size(), "bcast root out of range");
    if comm.size() <= 1 || buf.is_empty() {
        return;
    }
    match algo {
        Algo::Ring => ring_bcast(comm, topo, buf, root, chunk_bytes, sink),
        Algo::Tree => tree_bcast(comm, topo, buf, root, chunk_bytes, sink),
        Algo::Doubling => scatter_allgather_bcast(comm, topo, buf, root, chunk_bytes, sink),
    }
}

/// Pipelined chain: root -> root+1 -> ... -> root-1, chunk by chunk.
fn ring_bcast<T: Clone + Send + Sync + 'static>(
    comm: &Communicator,
    topo: &Topology,
    buf: &mut [T],
    root: usize,
    chunk_bytes: u64,
    sink: HopSink<'_>,
) {
    let k = comm.size();
    let r = comm.rank();
    let tag = comm.next_op_seq();
    let bytes = std::mem::size_of_val(buf) as u64;
    let pos = (r + k - root) % k;
    if pos > 0 {
        let prev = (r + k - 1) % k;
        let data: Vec<T> = comm.recv(prev, tag);
        buf.clone_from_slice(&data);
    }
    if pos < k - 1 {
        let next = (r + 1) % k;
        emit(sink, bytes, link(comm, topo, r, next), chunk_bytes);
        comm.send(next, tag, buf.to_vec());
    }
}

/// Binomial-tree broadcast from `root` (computed in root-relative space).
fn tree_bcast<T: Clone + Send + Sync + 'static>(
    comm: &Communicator,
    topo: &Topology,
    buf: &mut [T],
    root: usize,
    chunk_bytes: u64,
    sink: HopSink<'_>,
) {
    let k = comm.size();
    let r = comm.rank();
    let tag = comm.next_op_seq();
    let bytes = std::mem::size_of_val(buf) as u64;
    let pos = (r + k - root) % k;
    let member = |p: usize| (p + root) % k;
    let mut have = pos == 0;
    let mut m = k.next_power_of_two() / 2;
    while m >= 1 {
        if have && pos.is_multiple_of(2 * m) && pos + m < k {
            let dst = member(pos + m);
            emit(sink, bytes, link(comm, topo, r, dst), chunk_bytes);
            comm.send(dst, tag, buf.to_vec());
        } else if !have && pos % (2 * m) == m {
            let data: Vec<T> = comm.recv(member(pos - m), tag);
            buf.clone_from_slice(&data);
            have = true;
        }
        m >>= 1;
    }
}

/// Large-message broadcast: recursive-halving scatter of `k` segments, then
/// a ring allgather (the van de Geijn scheme NCCL uses for long payloads).
fn scatter_allgather_bcast<T: Clone + Send + Sync + 'static>(
    comm: &Communicator,
    topo: &Topology,
    buf: &mut [T],
    root: usize,
    chunk_bytes: u64,
    sink: HopSink<'_>,
) {
    let k = comm.size();
    let r = comm.rank();
    let tag = comm.next_op_seq();
    let es = size_of::<T>() as u64;
    let pos = (r + k - root) % k;
    let member = |p: usize| (p + root) % k;
    let segs: Vec<Range<usize>> = (0..k).map(|s| block_range(buf.len(), k, s)).collect();

    // Scatter: the member range [lo, hi) halves each round; the holder of
    // the range hands the upper half's segments to its midpoint.
    let mut held: Option<Vec<T>> = (pos == 0).then(|| buf.to_vec());
    let (mut lo, mut hi) = (0usize, k);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pos < mid {
            if pos == lo {
                let data = held.as_mut().unwrap();
                let keep: usize = segs[lo..mid].iter().map(|rg| rg.len()).sum();
                let upper = data.split_off(keep);
                let dst = member(mid);
                emit(
                    sink,
                    upper.len() as u64 * es,
                    link(comm, topo, r, dst),
                    chunk_bytes,
                );
                comm.send(dst, tag, upper);
            }
            hi = mid;
        } else {
            if pos == mid {
                held = Some(comm.recv(member(lo), tag));
            }
            lo = mid;
        }
    }

    // Ring allgather of the segments in root-relative space.
    let mut seg_data: Vec<Option<Vec<T>>> = vec![None; k];
    seg_data[pos] = held;
    let next = (r + 1) % k;
    let prev = (r + k - 1) % k;
    let l_next = link(comm, topo, r, next);
    for step in 0..k - 1 {
        let s_send = (pos + k - step) % k;
        let s_recv = (pos + 2 * k - 1 - step) % k;
        let payload = seg_data[s_send]
            .clone()
            .expect("segment not yet circulated");
        emit(sink, payload.len() as u64 * es, l_next, chunk_bytes);
        comm.send(next, tag, payload);
        seg_data[s_recv] = Some(comm.recv(prev, tag));
    }
    for (s, rg) in segs.iter().enumerate() {
        buf[rg.clone()].clone_from_slice(seg_data[s].as_ref().unwrap());
    }
}

// ---------------------------------------------------------------------------
// allgather
// ---------------------------------------------------------------------------

/// Allgather `mine` over `comm`: every rank gets the concatenation of all
/// contributions in member-index order. Contributions may differ in length.
pub fn allgather<T: Clone + Send + Sync + 'static>(
    comm: &Communicator,
    topo: &Topology,
    mine: &[T],
    algo: Algo,
    chunk_bytes: u64,
    sink: HopSink<'_>,
) -> Vec<T> {
    if comm.size() <= 1 {
        return mine.to_vec();
    }
    match algo {
        Algo::Ring => ring_allgather(comm, topo, mine, chunk_bytes, sink),
        Algo::Tree => tree_allgather(comm, topo, mine, chunk_bytes, sink),
        Algo::Doubling => doubling_allgather(comm, topo, mine, chunk_bytes, sink),
    }
}

/// Ring allgather: every block travels `k-1` hops around the ring.
fn ring_allgather<T: Clone + Send + Sync + 'static>(
    comm: &Communicator,
    topo: &Topology,
    mine: &[T],
    chunk_bytes: u64,
    sink: HopSink<'_>,
) -> Vec<T> {
    let k = comm.size();
    let r = comm.rank();
    let tag = comm.next_op_seq();
    let es = size_of::<T>() as u64;
    let next = (r + 1) % k;
    let prev = (r + k - 1) % k;
    let l_next = link(comm, topo, r, next);
    let mut blocks: Vec<Option<Vec<T>>> = vec![None; k];
    blocks[r] = Some(mine.to_vec());
    for step in 0..k - 1 {
        let b_send = (r + k - step) % k;
        let b_recv = (r + 2 * k - 1 - step) % k;
        let payload = blocks[b_send].clone().expect("block not yet circulated");
        emit(sink, payload.len() as u64 * es, l_next, chunk_bytes);
        comm.send(next, tag, payload);
        blocks[b_recv] = Some(comm.recv(prev, tag));
    }
    blocks.into_iter().flat_map(|b| b.unwrap()).collect()
}

/// Binomial gather to member 0 followed by a binomial broadcast of the
/// concatenation.
fn tree_allgather<T: Clone + Send + Sync + 'static>(
    comm: &Communicator,
    topo: &Topology,
    mine: &[T],
    chunk_bytes: u64,
    sink: HopSink<'_>,
) -> Vec<T> {
    let k = comm.size();
    let r = comm.rank();
    let tag = comm.next_op_seq();

    let mut parts: Option<Parts<T>> = Some(vec![(r as u32, mine.to_vec())]);
    let mut m = 1;
    while m < k {
        if r & m != 0 {
            let dst = r - m;
            let payload = parts.take().unwrap();
            emit(
                sink,
                parts_bytes(&payload),
                link(comm, topo, r, dst),
                chunk_bytes,
            );
            comm.send(dst, tag, payload);
            break;
        }
        if r + m < k {
            let incoming: Parts<T> = comm.recv(r + m, tag);
            parts.as_mut().unwrap().extend(incoming);
        }
        m <<= 1;
    }
    let mut full: Vec<T> = if r == 0 {
        concat_in_order(parts.take().unwrap())
    } else {
        Vec::new()
    };

    let bytes_of = |v: &Vec<T>| (v.len() * size_of::<T>()) as u64;
    let mut have = r == 0;
    let mut m = k.next_power_of_two() / 2;
    while m >= 1 {
        if have && r.is_multiple_of(2 * m) && r + m < k {
            emit(
                sink,
                bytes_of(&full),
                link(comm, topo, r, r + m),
                chunk_bytes,
            );
            comm.send(r + m, tag, full.clone());
        } else if !have && r % (2 * m) == m {
            full = comm.recv(r - m, tag);
            have = true;
        }
        m >>= 1;
    }
    full
}

/// Recursive-doubling allgather: accumulated blocks double each round on the
/// power-of-two core; remainder ranks fold in before and receive after.
fn doubling_allgather<T: Clone + Send + Sync + 'static>(
    comm: &Communicator,
    topo: &Topology,
    mine: &[T],
    chunk_bytes: u64,
    sink: HopSink<'_>,
) -> Vec<T> {
    let k = comm.size();
    let r = comm.rank();
    let tag = comm.next_op_seq();
    let p2 = if k.is_power_of_two() {
        k
    } else {
        k.next_power_of_two() / 2
    };
    let rem = k - p2;

    let mut parts: Parts<T> = vec![(r as u32, mine.to_vec())];
    if r >= p2 {
        let peer = r - p2;
        emit(
            sink,
            parts_bytes(&parts),
            link(comm, topo, r, peer),
            chunk_bytes,
        );
        comm.send(peer, tag, parts);
        return comm.recv(peer, tag);
    }
    if r < rem {
        let incoming: Parts<T> = comm.recv(r + p2, tag);
        parts.extend(incoming);
    }
    let mut m = 1;
    while m < p2 {
        let partner = r ^ m;
        emit(
            sink,
            parts_bytes(&parts),
            link(comm, topo, r, partner),
            chunk_bytes,
        );
        comm.send(partner, tag, parts.clone());
        let incoming: Parts<T> = comm.recv(partner, tag);
        parts.extend(incoming);
        m <<= 1;
    }
    let full = concat_in_order(parts);
    if r < rem {
        let peer = r + p2;
        emit(
            sink,
            (full.len() * size_of::<T>()) as u64,
            link(comm, topo, r, peer),
            chunk_bytes,
        );
        comm.send(peer, tag, full.clone());
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::Slot;
    use std::sync::Arc;

    /// Run `f` SPMD over `k` threads sharing one communicator whose members
    /// carry the given world-rank labels.
    fn run_spmd<R, F>(labels: Vec<usize>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Communicator) -> R + Send + Sync,
    {
        let k = labels.len();
        let slot = Slot::new(k);
        let labels = Arc::new(labels);
        let mut results: Vec<Option<R>> = (0..k).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (r, out) in results.iter_mut().enumerate() {
                let comm = Communicator::with_labels(slot.clone(), r, labels.clone());
                let f = &f;
                scope.spawn(move || *out = Some(f(&comm)));
            }
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    /// Reference allreduce: fold every rank's input in member order.
    fn reference_sum(inputs: &[Vec<f64>]) -> Vec<f64> {
        let mut acc = inputs[0].clone();
        for v in &inputs[1..] {
            for (a, b) in acc.iter_mut().zip(v) {
                a.reduce(b);
            }
        }
        acc
    }

    fn input_for(r: usize, len: usize) -> Vec<f64> {
        (0..len).map(|i| ((r * 31 + i * 7) as f64).sin()).collect()
    }

    #[test]
    fn allreduce_matches_reference_for_all_algorithms() {
        let topo = Topology::juwels_booster();
        for k in [2usize, 3, 4, 5, 7, 8] {
            let inputs: Vec<Vec<f64>> = (0..k).map(|r| input_for(r, 33)).collect();
            let want = reference_sum(&inputs);
            for algo in Algo::ALL {
                let got = run_spmd((0..k).collect(), |comm| {
                    let mut buf = input_for(comm.rank(), 33);
                    let mut sink = |_b: u64, _l: LinkClass| {};
                    allreduce(comm, &topo, &mut buf, algo, 64, &mut sink);
                    buf
                });
                for (r, g) in got.iter().enumerate() {
                    assert_eq!(g, &want, "{} k={k} rank {r}", algo.name());
                }
            }
        }
    }

    #[test]
    fn bcast_delivers_root_buffer_from_every_root() {
        let topo = Topology::juwels_booster();
        for k in [2usize, 4, 6] {
            for root in [0, k - 1, k / 2] {
                for algo in Algo::ALL {
                    let want = input_for(root, 29);
                    let got = run_spmd((0..k).collect(), |comm| {
                        let mut buf = if comm.rank() == root {
                            input_for(root, 29)
                        } else {
                            vec![0.0; 29]
                        };
                        let mut sink = |_b: u64, _l: LinkClass| {};
                        bcast(comm, &topo, &mut buf, root, algo, 64, &mut sink);
                        buf
                    });
                    for g in &got {
                        assert_eq!(g, &want, "{} k={k} root={root}", algo.name());
                    }
                }
            }
        }
    }

    #[test]
    fn allgather_concatenates_ragged_blocks_in_member_order() {
        let topo = Topology::juwels_booster();
        for k in [2usize, 3, 5, 8] {
            // Ragged: rank r contributes r+1 values (rank pattern differs).
            let want: Vec<f64> = (0..k).flat_map(|r| input_for(r, r + 1)).collect();
            for algo in Algo::ALL {
                let got = run_spmd((0..k).collect(), |comm| {
                    let mine = input_for(comm.rank(), comm.rank() + 1);
                    let mut sink = |_b: u64, _l: LinkClass| {};
                    allgather(comm, &topo, &mine, algo, 64, &mut sink)
                });
                for g in &got {
                    assert_eq!(g, &want, "{} k={k}", algo.name());
                }
            }
        }
    }

    /// Policy permuting every hop-granular fold to reversed order.
    struct ReverseHops;
    impl chase_comm::SchedulePolicy for ReverseHops {
        fn arrival_order(&self, p: &SchedulePoint) -> Option<Vec<usize>> {
            (p.stream == ScheduleStream::Hop).then(|| (0..p.members).rev().collect())
        }
    }

    #[test]
    fn hop_permutation_is_invisible_to_correct_folds() {
        // Reordering hop delivery must not change a bit of any algorithm's
        // result — the member-order sort restores canonical fold order.
        let topo = Topology::juwels_booster();
        for k in [3usize, 4, 5] {
            let inputs: Vec<Vec<f64>> = (0..k).map(|r| input_for(r, 17)).collect();
            let want = reference_sum(&inputs);
            for algo in Algo::ALL {
                let got = run_spmd((0..k).collect(), |comm| {
                    comm.seams()
                        .update(|s| s.schedule = Some(Arc::new(ReverseHops)));
                    let mut buf = input_for(comm.rank(), 17);
                    let mut sink = |_b: u64, _l: LinkClass| {};
                    allreduce(comm, &topo, &mut buf, algo, 64, &mut sink);
                    buf
                });
                for g in &got {
                    assert_eq!(g, &want, "{} k={k}", algo.name());
                }
            }
        }
    }

    #[test]
    fn canary_fold_exposes_hop_order_in_tree_allreduce() {
        // With the order-sensitive-fold canary armed, a reversed hop
        // delivery changes the fold grouping and therefore the bits —
        // the observable the harness's invariant checkers key on.
        let topo = Topology::juwels_booster();
        let k = 4usize;
        let run = |reversed: bool| {
            run_spmd((0..k).collect(), |comm| {
                if reversed {
                    comm.seams()
                        .update(|s| s.schedule = Some(Arc::new(ReverseHops)));
                }
                comm.seams().update(|s| s.order_canary = true);
                let mut buf = vec![0.1 * (comm.rank() as f64 + 1.0)];
                let mut sink = |_b: u64, _l: LinkClass| {};
                allreduce(comm, &topo, &mut buf, Algo::Tree, 64, &mut sink);
                buf[0]
            })
        };
        let plain = run(false);
        let reversed = run(true);
        assert_ne!(
            plain[0], reversed[0],
            "canary fold must expose hop delivery order"
        );
    }

    #[test]
    fn hops_cross_node_boundaries_as_labeled() {
        // A 2-member communicator straddling nodes 0 and 1 must emit only
        // IB hops; one inside node 0 only NVLink hops.
        let topo = Topology::juwels_booster();
        for (labels, want) in [
            (vec![1usize, 5], LinkClass::Ib),
            (vec![1usize, 2], LinkClass::NvLink),
        ] {
            let links = run_spmd(labels, |comm| {
                let mut buf = vec![1.0f64; 16];
                let mut seen = Vec::new();
                let mut sink = |b: u64, l: LinkClass| seen.push((b, l));
                allreduce(comm, &topo, &mut buf, Algo::Tree, 1 << 20, &mut sink);
                seen
            });
            for per_rank in links {
                for (_, l) in per_rank {
                    assert_eq!(l, want);
                }
            }
        }
    }

    #[test]
    fn emitted_bytes_are_chunk_split_and_sum_to_wire_volume() {
        // Ring allreduce over k ranks of L doubles: each rank sends
        // 2(k-1) segments; total emitted bytes = 2(k-1)/k * L * 8 per rank.
        let topo = Topology {
            gpus_per_node: 8,
            ..Topology::juwels_booster()
        };
        let (k, len, chunk) = (4usize, 40usize, 32u64);
        let per_rank = run_spmd((0..k).collect(), |comm| {
            let mut buf = input_for(comm.rank(), len);
            let mut total = 0u64;
            let mut max_chunk = 0u64;
            let mut sink = |b: u64, _l: LinkClass| {
                total += b;
                max_chunk = max_chunk.max(b);
            };
            allreduce(comm, &topo, &mut buf, Algo::Ring, chunk, &mut sink);
            (total, max_chunk)
        });
        let seg_bytes = (len / k * size_of::<f64>()) as u64;
        for (total, max_chunk) in per_rank {
            assert_eq!(total, 2 * (k as u64 - 1) * seg_bytes);
            assert!(max_chunk <= chunk, "chunks must respect granularity");
        }
    }

    #[test]
    fn empty_and_solo_cases_are_noops() {
        let topo = Topology::juwels_booster();
        // Empty buffer: every rank returns immediately, no hops.
        let hops = run_spmd(vec![0, 1, 2], |comm| {
            let mut buf: Vec<f64> = Vec::new();
            let mut n = 0usize;
            let mut sink = |_b: u64, _l: LinkClass| n += 1;
            allreduce(comm, &topo, &mut buf, Algo::Ring, 64, &mut sink);
            bcast(comm, &topo, &mut buf, 1, Algo::Doubling, 64, &mut sink);
            n
        });
        assert!(hops.iter().all(|&n| n == 0));
        // Solo communicator.
        let comm = Communicator::solo();
        let mut buf = vec![2.5f64; 3];
        let mut n = 0usize;
        let mut sink = |_b: u64, _l: LinkClass| n += 1;
        allreduce(&comm, &topo, &mut buf, Algo::Tree, 64, &mut sink);
        let g = allgather(&comm, &topo, &buf, Algo::Ring, 64, &mut sink);
        assert_eq!(buf, vec![2.5; 3]);
        assert_eq!(g, vec![2.5; 3]);
        assert_eq!(n, 0);
    }

    #[test]
    fn length_one_buffers_work() {
        let topo = Topology::juwels_booster();
        for algo in Algo::ALL {
            let got = run_spmd((0..5).collect(), |comm| {
                let mut buf = vec![(comm.rank() + 1) as f64];
                let mut sink = |_b: u64, _l: LinkClass| {};
                allreduce(comm, &topo, &mut buf, algo, 64, &mut sink);
                buf[0]
            });
            for g in got {
                assert_eq!(g, 15.0, "{}", algo.name());
            }
        }
    }
}
