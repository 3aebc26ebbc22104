//! The Chebyshev polynomial filter (Algorithm 1 line 4 / Algorithm 2 line 10).
//!
//! Implements the scaled three-term recurrence of the ChASE filter:
//!
//! ```text
//! sigma_1 = e / (mu_1 - c);          sigma = sigma_1
//! X_1 = (sigma_1 / e) (H - c I) X_0
//! for i = 2..=deg:
//!     sigma' = 1 / (2/sigma_1 - sigma)
//!     X_i = 2 (sigma'/e) (H - c I) X_{i-1} - (sigma sigma') X_{i-2}
//!     sigma = sigma'
//! ```
//!
//! damping `[c - e, c + e] = [mu_ne, b_sup]` while amplifying the wanted end
//! of the spectrum near `mu_1`. Odd applications land in B-layout, even ones
//! in C-layout; degrees are even so filtered vectors always finish in `C`
//! (Section 3.1). Per-vector degrees are honored by keeping the columns
//! sorted ascending-by-degree and shrinking the active range as steps pass
//! each column's degree.

use crate::hemm::{hemm, Direction};
use crate::layout::DistHerm;
use chase_comm::{CommError, RankCtx, Reduce, Region};
use chase_device::Device;
use chase_linalg::{Matrix, RealScalar, Scalar};

/// How the filter executes its HEMM/allreduce steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterExec {
    /// One flat GEMM + blocking allreduce per step (the reference path).
    #[default]
    Flat,
    /// Panel-chunked double-buffered steps: each step runs inside a ledger
    /// overlap window, computing panel `k+1` while panel `k`'s nonblocking
    /// allreduce is in flight. Bitwise identical to [`FilterExec::Flat`].
    Pipelined {
        /// Panel width in columns; `None` lets the topology tuner pick per
        /// step from the pipeline model.
        panel: Option<usize>,
    },
}

/// Interval parameters consumed by the filter.
#[derive(Debug, Clone, Copy)]
pub struct FilterBounds<R> {
    /// Center of the damped interval: `(b_sup + mu_ne) / 2`.
    pub c: R,
    /// Half-width: `(b_sup - mu_ne) / 2`.
    pub e: R,
    /// Estimate of the smallest (most wanted) eigenvalue.
    pub mu_1: R,
}

impl<R: RealScalar> FilterBounds<R> {
    pub fn from_spectrum(mu_1: R, mu_ne: R, b_sup: R) -> Self {
        let half = R::from_f64_r(0.5);
        Self {
            c: (b_sup + mu_ne) * half,
            e: (b_sup - mu_ne) * half,
            mu_1,
        }
    }

    /// Narrow the interval to the demoted real type for a low-precision
    /// filter pass.
    pub fn demote(self) -> FilterBounds<R::Lo> {
        FilterBounds {
            c: self.c.demote(),
            e: self.e.demote(),
            mu_1: self.mu_1.demote(),
        }
    }

    /// `true` when the interval is usable: finite values and a strictly
    /// positive half-width. User-supplied (or stale warm-start) spectra can
    /// violate this, so it is a typed-error condition, not an assert.
    pub fn is_valid(&self) -> bool {
        self.c.is_finite_r()
            && self.e.is_finite_r()
            && self.mu_1.is_finite_r()
            && self.e > R::zero()
    }
}

/// Typed rejection of filter inputs. `BadSpectrum`/`BadDegrees` are
/// reachable from user-supplied workloads (bad bounds in a warm start, a
/// corrupt degree table), so they surface as errors through `solve_dist`
/// instead of aborting the process; `Comm` propagates a nonblocking
/// collective that never completed (timeout, dead peer, dropped post).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterError {
    /// Degenerate or non-finite damping interval (`e <= 0`).
    BadSpectrum(String),
    /// Degrees not ascending or not even `>= 2`.
    BadDegrees(String),
    /// A nonblocking collective inside the pipelined path failed: timed
    /// out, aborted on a dead rank, or was dropped before posting.
    Comm(CommError),
}

impl std::fmt::Display for FilterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FilterError::BadSpectrum(d) => write!(f, "bad spectrum: {d}"),
            FilterError::BadDegrees(d) => write!(f, "bad degrees: {d}"),
            FilterError::Comm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FilterError {}

impl From<CommError> for FilterError {
    fn from(e: CommError) -> Self {
        FilterError::Comm(e)
    }
}

/// Validate caller-controlled filter inputs (shared by the full- and
/// mixed-precision entry points).
fn validate_inputs<R: RealScalar>(
    degrees: &[usize],
    bounds: &FilterBounds<R>,
) -> Result<(), FilterError> {
    if !degrees.windows(2).all(|w| w[0] <= w[1]) {
        return Err(FilterError::BadDegrees(format!(
            "degrees must be ascending, got {degrees:?}"
        )));
    }
    if let Some(&d) = degrees.iter().find(|&&d| d < 2 || d % 2 != 0) {
        return Err(FilterError::BadDegrees(format!(
            "degrees must be even >= 2, got {d}"
        )));
    }
    if !bounds.is_valid() {
        return Err(FilterError::BadSpectrum(format!(
            "empty filter interval: c = {}, e = {} (need finite bounds with e > 0)",
            bounds.c.to_f64(),
            bounds.e.to_f64()
        )));
    }
    Ok(())
}

/// Apply the filter to columns `offset..offset + degrees.len()` of `c_buf`.
///
/// * `degrees` must be ascending and even (the solver sorts; see
///   [`crate::degrees::degree_sort_permutation`]).
/// * `b_buf` is scratch in B-layout (contents destroyed).
///
/// Returns the number of MatVec column-applications performed
/// (`sum(degrees)`) — the quantity Table 2 reports.
#[allow(clippy::too_many_arguments)]
pub fn chebyshev_filter<T: Scalar + Reduce>(
    dev: &Device<'_>,
    ctx: &RankCtx,
    h: &mut DistHerm<T>,
    c_buf: &mut Matrix<T>,
    b_buf: &mut Matrix<T>,
    offset: usize,
    degrees: &[usize],
    bounds: FilterBounds<T::Real>,
) -> u64 {
    chebyshev_filter_with(
        dev,
        ctx,
        h,
        c_buf,
        b_buf,
        offset,
        degrees,
        bounds,
        FilterExec::Flat,
    )
    .expect("flat filter on validated inputs")
}

/// [`chebyshev_filter`] with an explicit execution strategy. The pipelined
/// strategy produces bitwise-identical output to the flat one; only the
/// schedule (and therefore the ledger) differs.
///
/// Errors: [`FilterError::BadSpectrum`]/[`FilterError::BadDegrees`] reject
/// invalid caller inputs before any work (reachable from user-supplied
/// workloads); [`FilterError::Comm`] propagates a nonblocking collective
/// failure from the pipelined schedule. The flat path on validated inputs
/// never fails.
#[allow(clippy::too_many_arguments)]
pub fn chebyshev_filter_with<T: Scalar + Reduce>(
    dev: &Device<'_>,
    ctx: &RankCtx,
    h: &mut DistHerm<T>,
    c_buf: &mut Matrix<T>,
    b_buf: &mut Matrix<T>,
    offset: usize,
    degrees: &[usize],
    bounds: FilterBounds<T::Real>,
    exec: FilterExec,
) -> Result<u64, FilterError> {
    if degrees.is_empty() {
        return Ok(0);
    }
    validate_inputs(degrees, &bounds)?;
    dev.set_region(Region::Filter);
    let dmax = *degrees.last().unwrap();
    let one = <T::Real as Scalar>::one();

    h.set_shift(bounds.c);

    let sigma1 = bounds.e / (bounds.mu_1 - bounds.c);
    let mut sigma = sigma1;
    let mut matvecs = 0u64;

    for step in 1..=dmax {
        // Columns with degree >= step are still active; ascending order means
        // they form a suffix of the block. Step 1 activates everything
        // (degrees >= 2).
        let first_active = degrees.partition_point(|&d| d < step);
        let ncols = degrees.len() - first_active;
        debug_assert!(ncols > 0);
        let col0 = offset + first_active;

        // Step 1 seeds the recurrence (`beta = 0`); later steps advance the
        // sigma scaling.
        let (alpha, beta) = if step == 1 {
            (T::from_real(sigma1 / bounds.e), T::zero())
        } else {
            let sigma_new = one / ((one + one) / sigma1 - sigma);
            let ab = (
                T::from_real((sigma_new + sigma_new) / bounds.e),
                T::from_real(-(sigma * sigma_new)),
            );
            sigma = sigma_new;
            ab
        };

        // Odd applications move C-layout -> B-layout, even ones back.
        let (dir, src, dst) = if step % 2 == 1 {
            (Direction::CToB, &*c_buf, &mut *b_buf)
        } else {
            (Direction::BToC, &*b_buf, &mut *c_buf)
        };
        hemm(dev, ctx, h, dir, src, dst, col0, ncols, alpha, beta, exec)
            .inspect_err(|_e| h.clear_shift())?;
        matvecs += ncols as u64;
    }

    h.clear_shift();
    Ok(matvecs)
}

/// Run a whole filter call in the demoted precision `T::Lo` (tentpole of the
/// mixed-precision mode): the active columns of `c_buf` are demoted into a
/// `T::Lo` staging block, the generic filter runs against the demoted `H`
/// replica — so every HEMM flop and every allreduce payload is half-width —
/// and the result is promoted back into the full-precision iterate
/// (promotion is exact, see `Scalar::promote`).
///
/// The solver never calls this: it filters in its own precision. It is kept
/// for the `core.filter_mixed_over_full` benchmark row, which times a
/// demoted call against a full one. The trace carries a `filter_lo` span.
#[allow(clippy::too_many_arguments)]
pub fn chebyshev_filter_mixed<T: Scalar + Reduce>(
    dev: &Device<'_>,
    ctx: &RankCtx,
    h_lo: &mut DistHerm<T::Lo>,
    c_buf: &mut Matrix<T>,
    b_buf: &mut Matrix<T>,
    offset: usize,
    degrees: &[usize],
    bounds: FilterBounds<T::Real>,
    exec: FilterExec,
) -> Result<u64, FilterError>
where
    T::Lo: Reduce,
{
    if degrees.is_empty() {
        return Ok(0);
    }
    // Validate in full precision first (caller bugs get full-width
    // diagnostics), then re-validate the demoted interval: a spectrum that
    // is fine in f64 can demote to a degenerate (or infinite) f32 interval.
    validate_inputs(degrees, &bounds)?;
    // Ascribe through `T::Lo::Real` (== `T::Real::Lo` by the Scalar trait's
    // equality constraint) so the demoted bounds typecheck as the inner
    // filter's real type.
    let lo_bounds: FilterBounds<<T::Lo as Scalar>::Real> = bounds.demote();
    validate_inputs(degrees, &lo_bounds).map_err(|e| match e {
        FilterError::BadSpectrum(d) => {
            FilterError::BadSpectrum(format!("interval degenerates under demotion: {d}"))
        }
        other => other,
    })?;

    let ncols = degrees.len();
    dev.set_region(Region::Filter);
    ctx.trace_span_begin("filter_lo", ncols as u64);

    // Demote the active columns into Lo staging. The conversion touches
    // every element once; account for it as a level-1 pass in the ledger.
    let rows_c = c_buf.rows();
    let mut c_lo = Matrix::<T::Lo>::from_fn(rows_c, ncols, |i, j| c_buf[(i, offset + j)].demote());
    let mut b_lo = Matrix::<T::Lo>::zeros(b_buf.rows(), ncols);
    ctx.record(chase_comm::EventKind::Blas1 {
        n: (rows_c * ncols) as u64,
    });

    let result = chebyshev_filter_with(
        dev, ctx, h_lo, &mut c_lo, &mut b_lo, 0, degrees, lo_bounds, exec,
    );

    let matvecs = result.inspect_err(|_e| ctx.trace_span_end("filter_lo"))?;

    // Promote back into the f64 iterate (exact widening).
    for j in 0..ncols {
        for i in 0..rows_c {
            c_buf[(i, offset + j)] = T::promote(c_lo[(i, j)]);
        }
    }
    ctx.record(chase_comm::EventKind::Blas1 {
        n: (rows_c * ncols) as u64,
    });
    ctx.trace_span_end("filter_lo");
    Ok(matvecs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::{run_grid, solo_ctx, GridShape};
    use chase_device::Backend;
    use chase_linalg::C64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Diagonal H: filtering acts independently per eigen-coordinate, so the
    /// amplification ratio is directly observable.
    fn diag_h(spec: &[f64], ctx: &RankCtx) -> DistHerm<C64> {
        DistHerm::from_fn(spec.len(), ctx, |i, j| {
            if i == j {
                C64::from_f64(spec[i])
            } else {
                C64::zero()
            }
        })
    }

    #[test]
    fn filter_amplifies_wanted_end() {
        // Spectrum: wanted eigenvalue at -2, damped interval [0, 2].
        let spec: Vec<f64> = vec![-2.0, 0.2, 0.8, 1.4, 2.0];
        let n = spec.len();
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut h = diag_h(&spec, &ctx);
        let mut c = Matrix::<C64>::from_fn(n, 1, |_, _| C64::one());
        let mut b = Matrix::<C64>::zeros(n, 1);
        let bounds = FilterBounds::from_spectrum(-2.0, 0.0, 2.0);
        let mv = chebyshev_filter(&dev, &ctx, &mut h, &mut c, &mut b, 0, &[8], bounds);
        assert_eq!(mv, 8);
        // Wanted coordinate stays O(1) (the sigma scaling normalizes it);
        // damped coordinates shrink hard.
        let wanted = c[(0, 0)].abs();
        assert!(wanted > 0.5, "wanted component {wanted}");
        for i in 1..n {
            assert!(
                c[(i, 0)].abs() < 0.05 * wanted,
                "coordinate {i} not damped: {}",
                c[(i, 0)].abs()
            );
        }
        // Shift must be removed afterwards.
        assert_eq!(h.current_shift(), 0.0);
    }

    #[test]
    fn higher_degree_damps_harder() {
        let spec: Vec<f64> = vec![-2.0, 1.0];
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let bounds = FilterBounds::from_spectrum(-2.0, 0.0, 2.0);
        let mut ratios = Vec::new();
        for deg in [4usize, 8, 16] {
            let mut h = diag_h(&spec, &ctx);
            let mut c = Matrix::<C64>::from_fn(2, 1, |_, _| C64::one());
            let mut b = Matrix::<C64>::zeros(2, 1);
            chebyshev_filter(&dev, &ctx, &mut h, &mut c, &mut b, 0, &[deg], bounds);
            ratios.push(c[(1, 0)].abs() / c[(0, 0)].abs());
        }
        assert!(ratios[1] < ratios[0] * 0.1);
        assert!(ratios[2] < ratios[1] * 0.1);
    }

    #[test]
    fn per_column_degrees_respected() {
        // Two columns with different degrees: the lower-degree column must
        // match a solo run at that degree exactly.
        let spec: Vec<f64> = vec![-2.0, -1.5, 0.5, 1.0, 1.8, 2.0];
        let n = spec.len();
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let bounds = FilterBounds::from_spectrum(-2.0, 0.0, 2.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x = Matrix::<C64>::random(n, 2, &mut rng);

        let mut h = diag_h(&spec, &ctx);
        let mut c = x.clone();
        let mut b = Matrix::<C64>::zeros(n, 2);
        let mv = chebyshev_filter(&dev, &ctx, &mut h, &mut c, &mut b, 0, &[4, 10], bounds);
        assert_eq!(mv, 14);

        // Column 0 alone at degree 4.
        let mut h2 = diag_h(&spec, &ctx);
        let mut c2 = x.copy_cols(0..1);
        let mut b2 = Matrix::<C64>::zeros(n, 1);
        chebyshev_filter(&dev, &ctx, &mut h2, &mut c2, &mut b2, 0, &[4], bounds);
        for i in 0..n {
            assert!((c[(i, 0)] - c2[(i, 0)]).abs() < 1e-13);
        }
    }

    #[test]
    fn distributed_filter_matches_serial() {
        let n = 12;
        let ne = 4;
        let spec: Vec<f64> = (0..n)
            .map(|i| -3.0 + 6.0 * i as f64 / (n - 1) as f64)
            .collect();
        let hg = {
            let s = chase_matgen::Spectrum::from_values(spec.clone());
            chase_matgen::dense_with_spectrum::<C64>(&s, 11)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let x = Matrix::<C64>::random(n, ne, &mut rng);
        let bounds = FilterBounds::from_spectrum(-3.0, 0.0, 3.0);
        let degrees = vec![2usize, 4, 4, 6];

        // Serial reference.
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut h = DistHerm::from_global(&hg, &ctx);
        let mut c_ref = x.clone();
        let mut b_ref = Matrix::<C64>::zeros(n, ne);
        chebyshev_filter(
            &dev, &ctx, &mut h, &mut c_ref, &mut b_ref, 0, &degrees, bounds,
        );

        for shape in [GridShape::new(2, 2), GridShape::new(3, 2)] {
            let (hg, x, degrees, c_ref) = (&hg, &x, &degrees, &c_ref);
            let out = run_grid(shape, move |ctx| {
                let dev = Device::new(ctx, Backend::Std);
                let mut h = DistHerm::from_global(hg, ctx);
                let mut c = x.select_rows(h.row_set.iter());
                let mut b = Matrix::<C64>::zeros(h.n_c(), ne);
                chebyshev_filter(&dev, ctx, &mut h, &mut c, &mut b, 0, degrees, bounds);
                let want = c_ref.select_rows(h.row_set.iter());
                c.max_abs_diff(&want)
            });
            for d in out.results {
                assert!(d < 1e-11, "shape {shape:?} diff {d}");
            }
        }
    }

    #[test]
    fn pipelined_filter_matches_flat_bitwise_and_opens_windows() {
        let n = 16;
        let ne = 5;
        let spec: Vec<f64> = (0..n)
            .map(|i| -3.0 + 6.0 * i as f64 / (n - 1) as f64)
            .collect();
        let hg = {
            let s = chase_matgen::Spectrum::from_values(spec);
            chase_matgen::dense_with_spectrum::<C64>(&s, 21)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let x = Matrix::<C64>::random(n, ne, &mut rng);
        let bounds = FilterBounds::from_spectrum(-3.0, 0.0, 3.0);
        let degrees = vec![2usize, 4, 4, 6, 8];
        for panel in [Some(1), Some(3), None] {
            let (hg, x, degrees) = (&hg, &x, &degrees);
            let out = run_grid(GridShape::new(2, 2), move |ctx| {
                let dev = Device::new(ctx, Backend::Nccl);
                let mut h = DistHerm::from_global(hg, ctx);
                let mut flat = x.select_rows(h.row_set.iter());
                let mut b = Matrix::<C64>::zeros(h.n_c(), ne);
                chebyshev_filter(&dev, ctx, &mut h, &mut flat, &mut b, 0, degrees, bounds);
                let mut piped = x.select_rows(h.row_set.iter());
                let mut b2 = Matrix::<C64>::zeros(h.n_c(), ne);
                let mv = chebyshev_filter_with(
                    &dev,
                    ctx,
                    &mut h,
                    &mut piped,
                    &mut b2,
                    0,
                    degrees,
                    bounds,
                    FilterExec::Pipelined { panel },
                )
                .unwrap();
                assert_eq!(mv, degrees.iter().map(|&d| d as u64).sum::<u64>());
                assert_eq!(
                    flat.as_ref().as_slice(),
                    piped.as_ref().as_slice(),
                    "panel {panel:?} changed bits"
                );
                0u8
            });
            for l in &out.ledgers {
                // Every pipelined step (8 = dmax) opened its own window.
                let windows: std::collections::HashSet<_> =
                    l.events().iter().filter_map(|e| e.window).collect();
                assert_eq!(windows.len(), 8, "one overlap window per filter step");
            }
        }
    }

    #[test]
    fn offset_skips_locked_columns() {
        let spec: Vec<f64> = vec![-2.0, -1.0, 0.5, 2.0];
        let n = 4;
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut h = diag_h(&spec, &ctx);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x = Matrix::<C64>::random(n, 3, &mut rng);
        let mut c = x.clone();
        let mut b = Matrix::<C64>::zeros(n, 3);
        let bounds = FilterBounds::from_spectrum(-2.0, 0.0, 2.0);
        chebyshev_filter(&dev, &ctx, &mut h, &mut c, &mut b, 1, &[4, 4], bounds);
        // Column 0 (locked) untouched.
        for i in 0..n {
            assert_eq!(c[(i, 0)], x[(i, 0)]);
        }
        // Columns 1, 2 filtered (changed).
        assert!(c.copy_cols(1..3).max_abs_diff(&x.copy_cols(1..3)) > 1e-6);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_degrees() {
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut h = diag_h(&[1.0, 2.0], &ctx);
        let mut c = Matrix::<C64>::zeros(2, 2);
        let mut b = Matrix::<C64>::zeros(2, 2);
        chebyshev_filter(
            &dev,
            &ctx,
            &mut h,
            &mut c,
            &mut b,
            0,
            &[6, 4],
            FilterBounds::from_spectrum(0.0, 1.0, 2.0),
        );
    }
}
