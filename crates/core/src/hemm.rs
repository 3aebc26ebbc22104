//! The distributed Hermitian matrix-multiply (Section 2.2's "customized MPI
//! scheme") that underlies the Filter, Rayleigh–Ritz and Residual stages.
//!
//! Because `H` is Hermitian, `H X` for a C-layout block can be computed as
//! `H^H X` using each rank's *stored* block transposed — the result lands in
//! B-layout after a column-communicator allreduce, and the reverse direction
//! (`H B`, row-communicator allreduce) returns to C-layout. No vector block
//! is ever re-distributed.

use crate::filter::FilterExec;
use crate::layout::{DistHerm, RowDist};
use chase_comm::{CommError, RankCtx, Reduce};
use chase_device::{DevAllreduce, Device};
use chase_linalg::matrix::ColsMut;
use chase_linalg::{Matrix, Op, Scalar};
use std::ops::Range;

/// Which layout a HEMM reads and which it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// `H^H` times a C-layout block into B-layout: the stored block
    /// conjugate-transposed, partial products summed over the column
    /// communicator.
    CToB,
    /// `H` times a B-layout block into C-layout: the stored block as it is,
    /// partial products summed over the row communicator.
    BToC,
}

/// `B[:, range] = alpha * H^H * C[:, range] + beta * B[:, range]`
/// (C-layout in, B-layout out; allreduce over the column communicator).
///
/// The `beta` term is applied on exactly one rank of the reducing
/// communicator so the allreduce adds it once — this is how the three-term
/// Chebyshev recurrence reuses the destination buffer as `X_{i-2}` storage.
#[allow(clippy::too_many_arguments)]
pub fn hemm_c_to_b<T: Scalar + Reduce>(
    dev: &Device<'_>,
    ctx: &RankCtx,
    h: &DistHerm<T>,
    c_buf: &Matrix<T>,
    b_buf: &mut Matrix<T>,
    col0: usize,
    ncols: usize,
    alpha: T,
    beta: T,
) {
    let (dir, exec) = (Direction::CToB, FilterExec::Flat);
    hemm(
        dev, ctx, h, dir, c_buf, b_buf, col0, ncols, alpha, beta, exec,
    )
    .expect("a flat HEMM waits on no nonblocking collective");
}

/// `C[:, range] = alpha * H * B[:, range] + beta * C[:, range]`
/// (B-layout in, C-layout out; allreduce over the row communicator).
#[allow(clippy::too_many_arguments)]
pub fn hemm_b_to_c<T: Scalar + Reduce>(
    dev: &Device<'_>,
    ctx: &RankCtx,
    h: &DistHerm<T>,
    b_buf: &Matrix<T>,
    c_buf: &mut Matrix<T>,
    col0: usize,
    ncols: usize,
    alpha: T,
    beta: T,
) {
    let (dir, exec) = (Direction::BToC, FilterExec::Flat);
    hemm(
        dev, ctx, h, dir, b_buf, c_buf, col0, ncols, alpha, beta, exec,
    )
    .expect("a flat HEMM waits on no nonblocking collective");
}

/// `dst[:, range] = alpha * op(H) * src[:, range] + beta * dst[:, range]`
/// in direction `dir`, executed as `exec` says.
///
/// [`FilterExec::Flat`]: one GEMM and one blocking allreduce; never fails.
///
/// [`FilterExec::Pipelined`]: the column range is split into `panel`-wide
/// panels (`None` asks the topology tuner for the width); while panel `k`'s
/// allreduce is in flight, panel `k+1`'s GEMM runs. Bitwise identical to
/// the flat path: the tiled GEMM's per-element accumulation order is
/// independent of column panelling, and the nonblocking allreduce folds
/// contributions in the same member order as the blocking one. Returns
/// `Err` if an in-flight allreduce never completes (a peer never posted,
/// or died). The solver never takes this path; `bench_e2e` times it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hemm<T: Scalar + Reduce>(
    dev: &Device<'_>,
    ctx: &RankCtx,
    h: &DistHerm<T>,
    dir: Direction,
    src: &Matrix<T>,
    dst: &mut Matrix<T>,
    col0: usize,
    ncols: usize,
    alpha: T,
    beta: T,
    exec: FilterExec,
) -> Result<(), CommError> {
    let (comm, opa, rows) = match dir {
        Direction::CToB => (&ctx.col_comm, Op::ConjTrans, (h.n_r(), h.n_c())),
        Direction::BToC => (&ctx.row_comm, Op::None, (h.n_c(), h.n_r())),
    };
    debug_assert_eq!((src.rows(), dst.rows()), rows);
    let on_root = comm.rank() == 0;
    let eff_beta = if on_root { beta } else { T::zero() };
    let panel = match exec {
        FilterExec::Flat => {
            let range = col0..col0 + ncols;
            dev.gemm(
                opa,
                Op::None,
                alpha,
                h.local.as_ref(),
                src.cols_ref(range.clone()),
                eff_beta,
                dst.cols_mut(range.clone()),
            );
            let mut view = dst.cols_mut(range);
            dev.allreduce_sum(comm, view.as_mut_slice());
            return Ok(());
        }
        FilterExec::Pipelined { panel } => panel
            .unwrap_or_else(|| dev.overlap_panel_cols::<T>(comm, ncols, rows.1, rows.0))
            .max(1),
    };
    let out_rows = dst.rows();
    // Pack op(H_local) once: packing it per panel would cost
    // O(n_r * n_c) per panel and erase the pipeline's win.
    let h_packed = chase_linalg::prepack_a(opa, h.local.as_ref());
    let mut pending: Option<(DevAllreduce<'_, '_, T>, Range<usize>)> = None;
    let mut j0 = col0;
    while j0 < col0 + ncols {
        let w = panel.min(col0 + ncols - j0);
        let range = j0..j0 + w;
        // Zero-copy posting: the GEMM writes its panel straight into a
        // pooled staging buffer, which then *moves* into the collective.
        // Only the beta-carrying root rank must preload the destination
        // panel (the GEMM reads `C` when beta != 0); everyone else posts
        // without ever touching `dst` on the way out.
        let mut stage = dev.nb_staging::<T>(comm, out_rows * w);
        if eff_beta != T::zero() {
            stage
                .as_mut_slice()
                .copy_from_slice(dst.cols_ref(range.clone()).as_slice());
        }
        dev.gemm_prepacked(
            &h_packed,
            Op::None,
            alpha,
            src.cols_ref(range.clone()),
            eff_beta,
            ColsMut::new(stage.as_mut_slice(), out_rows, w),
        );
        if let Some((req, done)) = pending.take() {
            req.wait(dst.cols_mut(done).as_mut_slice())?;
        }
        pending = Some((dev.iallreduce_sum_staged(comm, stage), range));
        j0 += w;
    }
    match pending {
        Some((req, done)) => req.wait(dst.cols_mut(done).as_mut_slice()),
        None => Ok(()),
    }
}

/// Distributed product on a *replicated* block of global vectors: returns
/// `H X`, one `ConjTrans` GEMM + one allreduce over the column
/// communicator + one allgather over the row communicator whatever the
/// number of columns.
///
/// Used by the Lanczos estimator, where vectors are cheap (`O(N)`) and
/// keeping them replicated avoids a second layout; `b_dist` is
/// [`RowDist::b_layout`] of `h`, built once by the caller. The result is
/// identical (bitwise) on every rank, and each of its columns depends on
/// the matching column of `X` alone.
pub fn matvec_replicated<T: Scalar + Reduce>(
    dev: &Device<'_>,
    ctx: &RankCtx,
    h: &DistHerm<T>,
    b_dist: &RowDist,
    x: &Matrix<T>,
) -> Matrix<T> {
    debug_assert_eq!(x.rows(), h.n);
    // Local contribution to rows J_j: H[I_i, J_j]^H X[I_i, :].
    let x_rows = x.select_rows(h.row_set.iter());
    let mut part = Matrix::<T>::zeros(h.n_c(), x.cols());
    hemm_c_to_b(
        dev,
        ctx,
        h,
        &x_rows,
        &mut part,
        0,
        x.cols(),
        T::one(),
        T::zero(),
    );
    // Ranks of a row communicator hold disjoint J_j sets covering 0..N;
    // scatter the gathered pieces by their global indices.
    let gathered = dev.allgather(&ctx.row_comm, part.as_slice());
    b_dist.assemble(&gathered, x.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::{block_range, run_grid, GridShape};
    use chase_device::Backend;
    use chase_linalg::{gemm_new, C64};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_hermitian(n: usize, seed: u64) -> Matrix<C64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Matrix::<C64>::random(n, n, &mut rng);
        let xh = x.adjoint();
        Matrix::from_fn(n, n, |i, j| (x[(i, j)] + xh[(i, j)]).scale(0.5))
    }

    #[test]
    fn c_to_b_matches_global_product() {
        let n = 12;
        let ne = 5;
        let h = random_hermitian(n, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cg = Matrix::<C64>::random(n, ne, &mut rng);
        let expect = gemm_new(Op::None, Op::None, &h, &cg);
        for shape in [
            GridShape::new(1, 1),
            GridShape::new(2, 2),
            GridShape::new(2, 3),
        ] {
            let (h, cg, expect) = (&h, &cg, &expect);
            let out = run_grid(shape, move |ctx| {
                let dev = Device::new(ctx, Backend::Nccl);
                let dh = DistHerm::from_global(h, ctx);
                let c_loc = cg.select_rows(dh.row_set.iter());
                let mut b_loc = Matrix::<C64>::zeros(dh.n_c(), ne);
                hemm_c_to_b(
                    &dev,
                    ctx,
                    &dh,
                    &c_loc,
                    &mut b_loc,
                    0,
                    ne,
                    C64::one(),
                    C64::zero(),
                );
                let want = expect.select_rows(dh.col_set.iter());
                b_loc.max_abs_diff(&want)
            });
            for d in out.results {
                assert!(d < 1e-12, "shape {shape:?}: diff {d}");
            }
        }
    }

    #[test]
    fn b_to_c_matches_global_product() {
        let n = 10;
        let ne = 4;
        let h = random_hermitian(n, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let bg = Matrix::<C64>::random(n, ne, &mut rng);
        let expect = gemm_new(Op::None, Op::None, &h, &bg);
        let (h, bg, expect) = (&h, &bg, &expect);
        let out = run_grid(GridShape::new(2, 2), move |ctx| {
            let dev = Device::new(ctx, Backend::Std);
            let dh = DistHerm::from_global(h, ctx);
            let b_loc = bg.select_rows(dh.col_set.iter());
            let mut c_loc = Matrix::<C64>::zeros(dh.n_r(), ne);
            hemm_b_to_c(
                &dev,
                ctx,
                &dh,
                &b_loc,
                &mut c_loc,
                0,
                ne,
                C64::one(),
                C64::zero(),
            );
            let want = expect.select_rows(dh.row_set.iter());
            c_loc.max_abs_diff(&want)
        });
        for d in out.results {
            assert!(d < 1e-12);
        }
    }

    #[test]
    fn beta_term_added_exactly_once() {
        // y = H x + beta * y0 must not multiply beta by the communicator size.
        let n = 8;
        let h = random_hermitian(n, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let cg = Matrix::<C64>::random(n, 2, &mut rng);
        let bg0 = Matrix::<C64>::random(n, 2, &mut rng);
        let mut expect = gemm_new(Op::None, Op::None, &h, &cg);
        for j in 0..2 {
            for i in 0..n {
                expect[(i, j)] += bg0[(i, j)].scale(3.0);
            }
        }
        let (h, cg, bg0, expect) = (&h, &cg, &bg0, &expect);
        let out = run_grid(GridShape::new(2, 2), move |ctx| {
            let dev = Device::new(ctx, Backend::Nccl);
            let dh = DistHerm::from_global(h, ctx);
            let c_loc = cg.select_rows(dh.row_set.iter());
            let mut b_loc = bg0.select_rows(dh.col_set.iter());
            hemm_c_to_b(
                &dev,
                ctx,
                &dh,
                &c_loc,
                &mut b_loc,
                0,
                2,
                C64::one(),
                C64::from_f64(3.0),
            );
            b_loc.max_abs_diff(&expect.select_rows(dh.col_set.iter()))
        });
        for d in out.results {
            assert!(d < 1e-12, "beta duplicated: diff {d}");
        }
    }

    #[test]
    fn pipelined_hemm_is_bitwise_identical_to_flat() {
        let n = 14;
        let ne = 6;
        let h = random_hermitian(n, 9);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let cg = Matrix::<C64>::random(n, ne, &mut rng);
        let bg0 = Matrix::<C64>::random(n, ne, &mut rng);
        for panel in [Some(1), Some(2), Some(5), Some(ne), None] {
            let (h, cg, bg0) = (&h, &cg, &bg0);
            let out = run_grid(GridShape::new(2, 2), move |ctx| {
                let dev = Device::new(ctx, Backend::Nccl);
                let dh = DistHerm::from_global(h, ctx);
                let c_loc = cg.select_rows(dh.row_set.iter());
                let alpha = C64::from_f64(1.25);
                let beta = C64::from_f64(-0.5);
                let mut flat = bg0.select_rows(dh.col_set.iter());
                hemm_c_to_b(&dev, ctx, &dh, &c_loc, &mut flat, 0, ne, alpha, beta);
                let exec = FilterExec::Pipelined { panel };
                let mut piped = bg0.select_rows(dh.col_set.iter());
                let dir = Direction::CToB;
                hemm(
                    &dev, ctx, &dh, dir, &c_loc, &mut piped, 0, ne, alpha, beta, exec,
                )
                .unwrap();
                assert_eq!(
                    flat.as_ref().as_slice(),
                    piped.as_ref().as_slice(),
                    "panel {panel:?} changed bits"
                );
                // And the reverse direction over the row communicator.
                let b_loc = cg.select_rows(dh.col_set.iter());
                let mut flat_c = bg0.select_rows(dh.row_set.iter());
                hemm_b_to_c(&dev, ctx, &dh, &b_loc, &mut flat_c, 0, ne, alpha, beta);
                let mut piped_c = bg0.select_rows(dh.row_set.iter());
                let dir = Direction::BToC;
                hemm(
                    &dev,
                    ctx,
                    &dh,
                    dir,
                    &b_loc,
                    &mut piped_c,
                    0,
                    ne,
                    alpha,
                    beta,
                    exec,
                )
                .unwrap();
                assert_eq!(flat_c.as_ref().as_slice(), piped_c.as_ref().as_slice());
                0u8
            });
            drop(out);
        }
    }

    #[test]
    fn matvec_replicated_consistent() {
        let n = 11;
        let h = random_hermitian(n, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let x: Vec<C64> = (0..n).map(|_| C64::sample_standard(&mut rng)).collect();
        let xm = Matrix::from_vec(n, 1, x.clone());
        let expect = gemm_new(Op::None, Op::None, &h, &xm);
        let (h, xm, expect) = (&h, &xm, &expect);
        let out = run_grid(GridShape::new(2, 3), move |ctx| {
            let dev = Device::new(ctx, Backend::Nccl);
            let dh = DistHerm::from_global(h, ctx);
            let b_dist = RowDist::b_layout(n, ctx.shape, dh.dist);
            matvec_replicated(&dev, ctx, &dh, &b_dist, xm)
                .col(0)
                .to_vec()
        });
        for y in &out.results {
            for i in 0..n {
                assert!((y[i] - expect[(i, 0)]).abs() < 1e-12);
            }
        }
        // bitwise identical across ranks (deterministic reduce order)
        for y in &out.results[1..] {
            assert_eq!(y, &out.results[0]);
        }
    }

    #[test]
    fn block_ranges_consistent_with_layout() {
        // Guard: the J_j pieces gathered by matvec_replicated must cover 0..N
        // in order.
        let shape = GridShape::new(3, 4);
        let mut covered = 0;
        for j in 0..shape.q {
            let r = block_range(23, shape.q, j);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 23);
    }
}
