//! The legacy ChASE v1.2 layout — ChASE(LMS), "Limited Memory and Scaling".
//!
//! Kept as the baseline of the paper's evaluation (Sections 2.2–2.3): the
//! Filter uses the same distributed HEMM, but QR, Rayleigh–Ritz and
//! Residuals are executed *redundantly* on every rank after collecting the
//! distributed vector block with broadcasts — requiring two extra
//! `O(N (nev+nex))` buffers per rank and a message count that doubles every
//! time the rank count quadruples. Those are exactly the bottlenecks the
//! novel scheme removes.

use crate::filter::{chebyshev_filter, FilterBounds};
use crate::hemm::hemm_c_to_b;
use crate::layout::{DistHerm, MemoryReport, RowDist};
use crate::params::Params;
use crate::qr::QrVariant;
use crate::result::{ChaseError, ChaseErrorKind, ChaseResult, RecoveryLog};
use crate::solver::{check_input, estimate_bounds_dist};
use crate::subspace::{permute_cols, Measured, Subspace};
use crate::warm::initial_block;
use chase_comm::{RankCtx, Reduce, Region};
use chase_device::{Backend, Device};
use chase_linalg::{Matrix, Op, RealScalar, Scalar};

/// Solve with the v1.2 legacy scheme. Functionally equivalent to
/// [`crate::solve_dist`] — parameters that do not fit `h` and a spectrum
/// Lanczos or Rayleigh–Ritz cannot handle (a non-finite `H`) are the same
/// typed errors — while the execution/communication profile matches the old
/// layout. Always uses (redundant) Householder QR, as v1.2 did. `initial`
/// is a warm block of `1..=ne` columns, padded like `solve_dist`'s; its
/// result hands over the whole final search space the same way.
pub fn solve_lms<T: Scalar + Reduce>(
    ctx: &RankCtx,
    h: DistHerm<T>,
    params: &Params,
    initial: Option<&Matrix<T>>,
) -> Result<ChaseResult<T>, ChaseError>
where
    T::Real: Reduce,
{
    check_input(params, h.n, initial)
        .map_err(|detail| ChaseError::outside_loop(ChaseErrorKind::InvalidParams { detail }))?;
    let dev = Device::new(ctx, Backend::Lms);
    let ne = params.ne();
    let nev = params.nev;
    let n = h.n;
    let mut h = h;
    let c_dist = RowDist::c_layout(n, ctx.shape, h.dist);
    let b_dist = RowDist::b_layout(n, ctx.shape, h.dist);

    // Distributed C block plus the two redundant full-size buffers that
    // define the LMS memory profile.
    let mut c = initial_block(n, ne, params.seed, initial, h.row_set.iter());
    let mut b = Matrix::<T>::zeros(h.n_c(), ne);
    // The redundant buffers (the memory bottleneck of Section 2.3), each
    // collected from the distributed block it replicates, live inside one
    // iteration.
    let collect = |comm: &chase_comm::Communicator, dist: &RowDist, local: &Matrix<T>| {
        dist.assemble(&dev.allgather(comm, local.as_slice()), ne)
    };

    let mut bounds = estimate_bounds_dist(&dev, &h, ne, params)?;
    let norm_h = bounds.mu_1.abs_r().max_r(bounds.b_sup.abs_r());
    let tol = T::Real::from_f64_r(params.tol) * norm_h;
    let mut sub = Subspace::new(ne, bounds.mu_1, params.init_deg());

    let mut stats = Vec::new();
    let mut total_matvecs = 0u64;
    let mut converged = false;
    let mut iterations = 0;

    for iter in 1..=params.max_iter {
        iterations = iter;
        let fb = FilterBounds::from_spectrum(bounds.mu_1, bounds.mu_ne, bounds.b_sup);
        if iter > 1 {
            let perm = sub.plan_degrees(params, &fb, norm_h);
            permute_cols(&mut c, sub.locked, &perm);
        }
        let (locked, act) = (sub.locked, ne - sub.locked);

        // --- Filter: identical distributed implementation ---
        let degrees: Vec<usize> = sub.degs[locked..].to_vec();
        let mv = chebyshev_filter(&dev, ctx, &mut h, &mut c, &mut b, locked, &degrees, fb);
        total_matvecs += mv;

        // --- QR: gather + redundant Householder on every rank ---
        dev.set_region(Region::Qr);
        let mut full_c = dev.hhqr_q(&collect(&ctx.col_comm, &c_dist, &c));
        c = full_c.select_rows(h.row_set.iter());

        // --- Rayleigh-Ritz: W = H C distributed, then redundant A and
        //     redundant back-transform on gathered buffers ---
        dev.set_region(Region::RayleighRitz);
        hemm_c_to_b(&dev, ctx, &h, &c, &mut b, locked, act, T::one(), T::zero());
        let mut full_w = collect(&ctx.row_comm, &b_dist, &b);
        let mut a = Matrix::<T>::zeros(act, act);
        dev.gemm(
            Op::ConjTrans,
            Op::None,
            T::one(),
            full_c.cols_ref(locked..ne),
            full_w.cols_ref(locked..ne),
            T::zero(),
            a.as_mut(),
        );
        // `A` is replicated, so every rank takes this exit together.
        let (vals, y) = dev.heevd(&a).map_err(|e| ChaseError {
            kind: ChaseErrorKind::BadSpectrum {
                detail: format!("Rayleigh-Ritz eigensolve failed: {e}"),
            },
            iter,
            recovery: RecoveryLog::default(),
        })?;
        // Redundant back-transform on the full buffer.
        let active = full_c.copy_cols(locked..ne);
        dev.gemm(
            Op::None,
            Op::None,
            T::one(),
            active.as_ref(),
            y.as_ref(),
            T::zero(),
            full_c.cols_mut(locked..ne),
        );
        c = full_c.select_rows(h.row_set.iter());
        sub.ritzv[locked..].copy_from_slice(&vals);

        // --- Residuals: redundant on gathered buffers ---
        dev.set_region(Region::Residuals);
        hemm_c_to_b(&dev, ctx, &h, &c, &mut b, locked, act, T::one(), T::zero());
        full_w = collect(&ctx.row_comm, &b_dist, &b);
        dev.blas1::<T>(n * act * 2);
        for j in locked..ne {
            let lambda = sub.ritzv[j];
            let cj = full_c.col(j).to_vec();
            let wj = full_w.col_mut(j);
            for (x, y) in wj.iter_mut().zip(&cj) {
                *x -= y.scale(lambda);
            }
            sub.resd[j] = chase_linalg::blas1::nrm2(wj);
        }

        // --- Locking, the iteration's diagnostics, bound updates ---
        let measured = Measured {
            iter,
            matvecs: mv,
            est_cond: f64::NAN, // v1.2 has no condition estimator
            true_cond: None,
            qr_variant: QrVariant::Householder,
        };
        stats.push(sub.lock_and_record(tol, measured));
        sub.update_bounds(nev, &mut bounds);

        if sub.locked >= nev {
            converged = true;
            break;
        }
    }

    let (eigenvalues, residuals) = sub.sorted_pairs(nev, &mut c);
    Ok(ChaseResult {
        eigenvalues,
        residuals,
        search_space_local: c,
        rows: h.row_set.clone(),
        n,
        iterations,
        matvecs: total_matvecs,
        converged,
        stats,
        norm_h: norm_h.to_f64(),
        bounds,
        warm_started: false,
        recovery: RecoveryLog::default(),
    })
}

/// Memory report for the LMS layout (includes the redundant buffers of
/// Section 2.3 that Eq. (2) eliminates).
pub fn lms_memory_report<T: Scalar>(n: usize, ne: usize, h: &DistHerm<T>) -> MemoryReport {
    let s = std::mem::size_of::<T>();
    MemoryReport {
        h_bytes: h.local.bytes(),
        c_bytes: h.n_r() * ne * s,
        b_bytes: h.n_c() * ne * s,
        a_bytes: ne * ne * s,
        redundant_bytes: 2 * n * ne * s,
    }
}
