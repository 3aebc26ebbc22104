//! The pipelined filter (`FilterExec::Pipelined`) must be a pure *schedule*
//! change: for any grid shape, panel width, scalar type and per-vector
//! degree profile, the panel-chunked double-buffered filter (nonblocking
//! collectives, zero-copy staged posting) produces bit-for-bit the same
//! vectors as the serialized HEMM -> blocking-allreduce filter, and its
//! buffer pool stops allocating once warm.
//!
//! The solver no longer runs this path. The file survives because
//! `bench_e2e`'s `core.filter_pipelined_over_flat` row still times it; it
//! goes with that row (ROADMAP item 1a).

mod common;

use chase_comm::{run_grid, GridShape};
use chase_core::{chebyshev_filter_with, DistHerm, FilterExec};
use chase_device::{Backend, Device};
use chase_linalg::{Matrix, C64};
use common::{assert_pipelined_matches_flat, degree_profile, filter_inputs, FILTER_SHAPES};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Complex scalars: every (grid, panel, degree-profile) draw is a pure
    /// reschedule — bitwise identical output.
    #[test]
    fn pipelined_filter_bitwise_c64(
        shape_idx in 0usize..3,
        panel_idx in 0usize..4,
        n in 12usize..36,
        raw in collection::vec(0usize..4, 3..9),
        seed in 0u64..500,
    ) {
        let degrees = degree_profile(&raw);
        let ne = degrees.len();
        // panel sweep: 1 (finest), 7 (odd, straddles the block), full
        // block, and the topology tuner's choice.
        let panel = [Some(1), Some(7), Some(ne), None][panel_idx];
        let (p, q) = FILTER_SHAPES[shape_idx];
        assert_pipelined_matches_flat::<C64>(n, &degrees, GridShape::new(p, q), panel, seed);
    }

    /// Real scalars take the same path through the staged collectives
    /// (distinct `Vec<f64>` buffer pool) — same bitwise guarantee.
    #[test]
    fn pipelined_filter_bitwise_f64(
        shape_idx in 0usize..3,
        panel_idx in 0usize..4,
        n in 12usize..36,
        raw in collection::vec(0usize..4, 3..9),
        seed in 0u64..500,
    ) {
        let degrees = degree_profile(&raw);
        let ne = degrees.len();
        let panel = [Some(1), Some(7), Some(ne), None][panel_idx];
        let (p, q) = FILTER_SHAPES[shape_idx];
        assert_pipelined_matches_flat::<f64>(n, &degrees, GridShape::new(p, q), panel, seed);
    }
}

/// The nonblocking buffer pool must be reused across pipelined panels: once
/// one sweep over every panel width has populated the pool, re-running the
/// sweep — panel count growing from one full-block post to one post per
/// vector — performs zero fresh allocations. The pool high-water mark is
/// set by the deepest pipeline, not by how many panels flow through it.
#[test]
fn nb_pool_high_water_mark_is_constant_across_panels() {
    let n = 48;
    let ne = 12;
    // Mixed degrees so the active set narrows and panel boundaries shift
    // between sweeps — the reuse claim must survive ragged panel shapes.
    let degrees: Vec<usize> = (0..ne).map(|i| 2 * (1 + i % 4)).collect();
    let mut degrees = degrees;
    degrees.sort_unstable();
    let (h, x, bounds) = filter_inputs::<C64>(n, ne, 29);
    // Coarse-to-fine: panel count grows 1, 2, 4, 12 posts per degree step.
    let widths = [Some(ne), Some(7), Some(4), Some(1)];
    let (h, x, degrees) = (&h, &x, &degrees);
    let out = run_grid(GridShape::new(2, 2), move |ctx| {
        let dev = Device::new(ctx, Backend::Nccl);
        let mut dh = DistHerm::from_global(h, ctx);
        let x_local = x.select_rows(dh.row_set.iter());
        let mut run_sweep = || {
            for panel in widths {
                let mut c = x_local.clone();
                let mut b = Matrix::<C64>::zeros(dh.n_c(), ne);
                chebyshev_filter_with(
                    &dev,
                    ctx,
                    &mut dh,
                    &mut c,
                    &mut b,
                    0,
                    degrees,
                    bounds,
                    FilterExec::Pipelined { panel },
                )
                .unwrap();
            }
        };
        // Warm-up sweep: every panel width allocates its staging buffers
        // once; this sets the pool's high-water mark.
        run_sweep();
        ctx.world.barrier();
        let fresh = |ctx: &chase_comm::RankCtx| {
            ctx.col_comm.nb_pool_stats().fresh_allocs + ctx.row_comm.nb_pool_stats().fresh_allocs
        };
        let high_water = fresh(ctx);
        // Two more full sweeps: growing panel counts, zero new allocations.
        run_sweep();
        run_sweep();
        ctx.world.barrier();
        let after_col = ctx.col_comm.nb_pool_stats();
        let after = fresh(ctx);
        (high_water, after, after_col.pool_hits, after_col.in_flight)
    });
    for (rank, (high_water, after, pool_hits, in_flight)) in out.results.iter().enumerate() {
        assert_eq!(
            after, high_water,
            "rank {rank}: pool high-water mark grew with panel count \
             ({high_water} -> {after} fresh allocations)"
        );
        assert!(
            pool_hits > &0,
            "rank {rank}: steady-state sweeps never hit the pool"
        );
        assert_eq!(in_flight, &0, "rank {rank}: nonblocking ops leaked");
    }
}
