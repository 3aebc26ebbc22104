//! Property and stress tests for the topology-aware collective algorithms.
//!
//! The contract under test: every hop schedule (ring, binomial tree,
//! recursive doubling) is *bitwise identical* to the sequential member-order
//! reference — and hence to the flat rendezvous collective — for any
//! communicator size, payload length (including 0 and 1), scalar type and
//! node placement; and the whole machinery is deterministic under a fixed
//! seed and robust to hundreds of interleaved collectives racing on row and
//! column communicators at once.

use chase_comm::{run_grid, Communicator, GridShape, LinkClass, Reduce, Slot};
use chase_device::{Backend, CollectiveAlgo, Device, Topology};
use chase_linalg::{Scalar, C64};
use chase_topo::{allgather, allreduce, bcast, Algo};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Run `f` SPMD over one communicator whose members carry `labels`.
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

/// Deterministic per-rank input block.
fn block<T: Scalar>(rank: usize, len: usize, seed: u64) -> Vec<T> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E37));
    (0..len).map(|_| T::sample_standard(&mut rng)).collect()
}

/// Sequential member-order reference reduction — the canonical fold every
/// schedule must reproduce bit for bit.
fn reference_sum<T: Reduce>(inputs: &[Vec<T>]) -> Vec<T> {
    let mut acc = inputs[0].clone();
    for v in &inputs[1..] {
        for (a, b) in acc.iter_mut().zip(v) {
            a.reduce(b);
        }
    }
    acc
}

/// Pseudo-random but deterministic node placement for `k` ranks.
fn labels_for(k: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let stride = 1 + rng.gen_range_usize(5);
    let offset = rng.gen_range_usize(7);
    (0..k).map(|r| offset + r * stride).collect()
}

fn algo_from(idx: usize) -> Algo {
    Algo::ALL[idx % Algo::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allreduce: any schedule, size, length (incl. 0 and 1), placement and
    /// chunking is bitwise identical to the member-order reference, for
    /// both a real and a complex scalar type.
    #[test]
    fn allreduce_bitwise_matches_reference(
        k in 2usize..10,
        len_sel in 0usize..5,
        algo_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let len = [0usize, 1, 2, 17, 64][len_sel];
        let algo = algo_from(algo_sel);
        let labels = labels_for(k, seed);
        let topo = Topology::juwels_booster();
        let chunk = [16u64, 64, 1 << 20][seed as usize % 3];

        let inputs_f: Vec<Vec<f64>> = (0..k).map(|r| block(r, len, seed)).collect();
        let want_f = reference_sum(&inputs_f);
        let got_f = run_spmd(labels.clone(), |comm| {
            let mut buf = block::<f64>(comm.rank(), len, seed);
            let mut sink = |_b: u64, _l: LinkClass| {};
            allreduce(comm, &topo, &mut buf, algo, chunk, &mut sink);
            buf
        });
        for g in &got_f {
            prop_assert_eq!(g, &want_f);
        }

        let inputs_z: Vec<Vec<C64>> = (0..k).map(|r| block(r, len, seed + 1)).collect();
        let want_z = reference_sum(&inputs_z);
        let got_z = run_spmd(labels, |comm| {
            let mut buf = block::<C64>(comm.rank(), len, seed + 1);
            let mut sink = |_b: u64, _l: LinkClass| {};
            allreduce(comm, &topo, &mut buf, algo, chunk, &mut sink);
            buf
        });
        for g in &got_z {
            prop_assert_eq!(g, &want_z);
        }
    }

    /// Bcast from an arbitrary root delivers the root's exact buffer.
    #[test]
    fn bcast_delivers_root_block(
        k in 2usize..10,
        len_sel in 0usize..4,
        algo_sel in 0usize..3,
        root_sel in 0usize..16,
        seed in 0u64..1000,
    ) {
        let len = [1usize, 2, 17, 64][len_sel];
        let algo = algo_from(algo_sel);
        let root = root_sel % k;
        let topo = Topology::juwels_booster();
        let want = block::<f32>(root, len, seed);
        let got = run_spmd(labels_for(k, seed), |comm| {
            let mut buf = if comm.rank() == root {
                block::<f32>(root, len, seed)
            } else {
                vec![0.0f32; len]
            };
            let mut sink = |_b: u64, _l: LinkClass| {};
            bcast(comm, &topo, &mut buf, root, algo, 64, &mut sink);
            buf
        });
        for g in &got {
            prop_assert_eq!(g, &want);
        }
    }

    /// Allgather of ragged blocks concatenates in member order.
    #[test]
    fn allgather_concatenates_in_member_order(
        k in 2usize..10,
        algo_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let algo = algo_from(algo_sel);
        let topo = Topology::juwels_booster();
        // Ragged: rank r contributes (seed + r) % 5 values — some empty.
        let len_of = |r: usize| (seed as usize + r) % 5;
        let want: Vec<f64> = (0..k).flat_map(|r| block(r, len_of(r), seed)).collect();
        let got = run_spmd(labels_for(k, seed), |comm| {
            let mine = block::<f64>(comm.rank(), len_of(comm.rank()), seed);
            let mut sink = |_b: u64, _l: LinkClass| {};
            allgather(comm, &topo, &mine, algo, 64, &mut sink)
        });
        for g in &got {
            prop_assert_eq!(g, &want);
        }
    }

    /// Fixed seed in, identical bits and identical hop streams out — across
    /// two full runs including the emitted (bytes, link) sequences.
    #[test]
    fn deterministic_under_fixed_seed(
        k in 2usize..8,
        algo_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let algo = algo_from(algo_sel);
        let topo = Topology::juwels_booster();
        let run = || {
            run_spmd(labels_for(k, seed), |comm| {
                let mut buf = block::<f64>(comm.rank(), 31, seed);
                let mut hops: Vec<(u64, LinkClass)> = Vec::new();
                let mut sink = |b: u64, l: LinkClass| hops.push((b, l));
                allreduce(comm, &topo, &mut buf, algo, 48, &mut sink);
                (buf, hops)
            })
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }
}

/// End-to-end check on a grid: every `CollectiveAlgo` a device can be built
/// with (flat and the forced hop schedules) gives bitwise identical
/// device-collective results on row *and* column communicators.
#[test]
fn grid_collectives_identical_across_algo_settings() {
    let shape = GridShape::new(2, 3);
    let reference = run_grid(shape, |ctx| {
        let dev = Device::new(ctx, Backend::Nccl);
        let mut row = block::<C64>(ctx.world_rank(), 13, 7);
        dev.allreduce_sum(&ctx.row_comm, &mut row);
        let mut col = block::<C64>(ctx.world_rank(), 9, 8);
        dev.allreduce_sum(&ctx.col_comm, &mut col);
        let gathered = dev.allgather(&ctx.col_comm, &block::<C64>(ctx.world_rank(), 4, 9));
        (row, col, gathered)
    });
    for algo in CollectiveAlgo::ALL {
        let out = run_grid(shape, move |ctx| {
            let dev =
                Device::with_collectives(ctx, Backend::Nccl, algo, Topology::juwels_booster());
            let mut row = block::<C64>(ctx.world_rank(), 13, 7);
            dev.allreduce_sum(&ctx.row_comm, &mut row);
            let mut col = block::<C64>(ctx.world_rank(), 9, 8);
            dev.allreduce_sum(&ctx.col_comm, &mut col);
            let gathered = dev.allgather(&ctx.col_comm, &block::<C64>(ctx.world_rank(), 4, 9));
            (row, col, gathered)
        });
        for (a, b) in reference.results.iter().zip(&out.results) {
            assert_eq!(a, b, "CollectiveAlgo::{algo:?} diverged from flat");
        }
    }
}

/// Stress: a 3x4 grid running a few hundred iterations of interleaved
/// collectives on the row and column communicators simultaneously, with the
/// schedule rotating through every algorithm and randomized thread yields
/// perturbing the interleaving. Any ordering bug in the p2p mailboxes or
/// any tag collision between concurrent collectives shows up as a wrong
/// value or a deadlock here.
#[test]
fn stress_interleaved_grid_collectives() {
    let shape = GridShape::new(3, 4);
    let iters = 300usize;
    let topo = Topology::juwels_booster();
    let out = run_grid(shape, |ctx| {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF ^ ctx.world_rank() as u64);
        let mut checks = 0usize;
        for i in 0..iters {
            if rng.gen::<bool>() {
                std::thread::yield_now();
            }
            let algo = Algo::ALL[i % Algo::ALL.len()];
            let chunk = [24u64, 64, 4096][i % 3];

            // Row allreduce: sum of column indices scaled per iteration.
            let mut row_buf = vec![(ctx.col * (i + 1)) as f64; 1 + i % 7];
            let mut sink = |_b: u64, _l: LinkClass| {};
            allreduce(&ctx.row_comm, &topo, &mut row_buf, algo, chunk, &mut sink);
            let want_row = ((0..shape.q).sum::<usize>() * (i + 1)) as f64;
            assert!(
                row_buf.iter().all(|&v| v == want_row),
                "iter {i}: row allreduce"
            );

            if rng.gen::<bool>() {
                std::thread::yield_now();
            }

            // Column bcast rotating the root.
            let root = i % shape.p;
            let mut col_buf = vec![
                if ctx.row == root {
                    (root * 131 + i) as f64
                } else {
                    -1.0
                };
                3
            ];
            let mut sink = |_b: u64, _l: LinkClass| {};
            bcast(
                &ctx.col_comm,
                &topo,
                &mut col_buf,
                root,
                algo,
                chunk,
                &mut sink,
            );
            assert!(
                col_buf.iter().all(|&v| v == (root * 131 + i) as f64),
                "iter {i}: col bcast"
            );

            // Column allgather of the rank's row index.
            let mine = vec![ctx.row as f64; 2];
            let mut sink = |_b: u64, _l: LinkClass| {};
            let gathered = allgather(&ctx.col_comm, &topo, &mine, algo, chunk, &mut sink);
            let want: Vec<f64> = (0..shape.p).flat_map(|r| [r as f64; 2]).collect();
            assert_eq!(gathered, want, "iter {i}: col allgather");

            checks += 3;
        }
        checks
    });
    for c in out.results {
        assert_eq!(c, iters * 3);
    }
}
