//! The legacy ChASE v1.2 layout — ChASE(LMS), "Limited Memory and Scaling".
//!
//! Kept as the baseline of the paper's evaluation (Sections 2.2–2.3): the
//! Filter uses the same distributed HEMM, but QR, Rayleigh–Ritz and
//! Residuals are executed *redundantly* on every rank after collecting the
//! distributed vector block with broadcasts — requiring two extra
//! `O(N (nev+nex))` buffers per rank and a message count that doubles every
//! time the rank count quadruples. Those are exactly the bottlenecks the
//! novel scheme removes.

use crate::degrees::{degree_sort_permutation, optimize_degrees};
use crate::filter::{chebyshev_filter, FilterBounds};
use crate::layout::{DistHerm, MemoryReport, RowDist};
use crate::params::Params;
use crate::qr::QrVariant;
use crate::result::{ChaseResult, IterStats};
use crate::solver::{estimate_bounds_dist, permute_cols, permute_vec};
use chase_comm::{RankCtx, Reduce, Region};
use chase_device::{Backend, Device};
use chase_linalg::{Matrix, Op, RealScalar, Scalar};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Solve with the v1.2 legacy scheme. Functionally equivalent to
/// [`crate::solve_dist`]; the execution/communication profile matches the
/// old layout. Always uses (redundant) Householder QR, as v1.2 did.
pub fn solve_lms<T: Scalar + Reduce>(
    ctx: &RankCtx,
    h: DistHerm<T>,
    params: &Params,
    initial: Option<&Matrix<T>>,
) -> ChaseResult<T>
where
    T::Real: Reduce,
{
    params.validate(h.n);
    let dev = Device::with_collectives(
        ctx,
        Backend::Lms,
        params.collective,
        chase_device::Topology::juwels_booster(),
    );
    let ne = params.ne();
    let nev = params.nev;
    let n = h.n;
    let mut h = h;
    let c_dist = RowDist::c_layout(n, ctx.shape, h.dist);

    // Distributed C block plus the two redundant full-size buffers that
    // define the LMS memory profile.
    let c_global0 = match initial {
        Some(v0) => v0.clone(),
        None => {
            let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
            Matrix::random(n, ne, &mut rng)
        }
    };
    let mut c = c_global0.select_rows(h.row_set.iter());
    let mut b = Matrix::<T>::zeros(h.n_c(), ne);
    // Redundant buffers (the memory bottleneck of Section 2.3).
    let mut full_c;
    let mut full_w;

    let bounds = estimate_bounds_dist(&dev, &h, ne, params).expect("LMS Lanczos bounds failed");
    let b_sup = bounds.b_sup;
    let mut mu_1 = bounds.mu_1;
    let mut mu_ne = bounds.mu_ne;
    let norm_h = mu_1.abs_r().max_r(b_sup.abs_r());

    let mut ritzv = vec![mu_1; ne];
    let mut resd = vec![<T::Real as Scalar>::one(); ne];
    let init_deg = params.deg + params.deg % 2;
    let mut degs = vec![init_deg; ne];
    let mut locked = 0usize;

    let mut stats = Vec::new();
    let mut total_matvecs = 0u64;
    let mut converged = false;
    let mut iterations = 0;

    for iter in 1..=params.max_iter {
        iterations = iter;
        let half = T::Real::from_f64_r(0.5);
        let c_center = (b_sup + mu_ne) * half;
        let e_half = (b_sup - mu_ne) * half;

        if iter > 1 {
            if params.optimize_degrees {
                let new_degs = optimize_degrees(
                    &resd[locked..]
                        .iter()
                        .map(|r| r.to_f64())
                        .collect::<Vec<_>>(),
                    &ritzv[locked..]
                        .iter()
                        .map(|r| r.to_f64())
                        .collect::<Vec<_>>(),
                    c_center.to_f64(),
                    e_half.to_f64(),
                    params.tol * norm_h.to_f64(),
                    params.max_deg,
                );
                degs[locked..].copy_from_slice(&new_degs);
            }
            let perm = degree_sort_permutation(&degs[locked..]);
            permute_cols(&mut c, locked, &perm);
            permute_vec(&mut ritzv[locked..], &perm);
            permute_vec(&mut resd[locked..], &perm);
            permute_vec(&mut degs[locked..], &perm);
        }

        // --- Filter: identical distributed implementation ---
        let fb = FilterBounds {
            c: c_center,
            e: e_half,
            mu_1,
        };
        let degrees: Vec<usize> = degs[locked..].to_vec();
        let mv = chebyshev_filter(&dev, ctx, &mut h, &mut c, &mut b, locked, &degrees, fb);
        total_matvecs += mv;

        // --- QR: gather + redundant Householder on every rank ---
        dev.set_region(Region::Qr);
        {
            let gathered = dev.allgather(&ctx.col_comm, c.as_slice());
            full_c = c_dist.assemble(&gathered, ne);
        }
        full_c = dev.hhqr_q(&full_c);
        c = full_c.select_rows(h.row_set.iter());

        // --- Rayleigh-Ritz: W = H C distributed, then redundant A and
        //     redundant back-transform on gathered buffers ---
        dev.set_region(Region::RayleighRitz);
        let act = ne - locked;
        crate::hemm::hemm_c_to_b(&dev, ctx, &h, &c, &mut b, locked, act, T::one(), T::zero());
        {
            let gathered = dev.allgather(&ctx.row_comm, b.as_slice());
            let b_dist = RowDist::b_layout(n, ctx.shape, h.dist);
            full_w = b_dist.assemble(&gathered, ne);
        }
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
        let (vals, y) = dev.heevd(&a).expect("LMS Rayleigh-Ritz failed");
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
        ritzv[locked..].copy_from_slice(&vals);

        // --- Residuals: redundant on gathered buffers ---
        dev.set_region(Region::Residuals);
        crate::hemm::hemm_c_to_b(&dev, ctx, &h, &c, &mut b, locked, act, T::one(), T::zero());
        {
            let gathered = dev.allgather(&ctx.row_comm, b.as_slice());
            let b_dist = RowDist::b_layout(n, ctx.shape, h.dist);
            full_w = b_dist.assemble(&gathered, ne);
        }
        dev.blas1::<T>(n * act * 2);
        for k in 0..act {
            let j = locked + k;
            let lambda = ritzv[j];
            let cj = full_c.col(j).to_vec();
            let wj = full_w.col_mut(j);
            for (x, y) in wj.iter_mut().zip(&cj) {
                *x -= y.scale(lambda);
            }
            resd[j] = chase_linalg::blas1::nrm2(wj);
        }

        // --- Locking: longest converged prefix in ascending Ritz order ---
        let tol = T::Real::from_f64_r(params.tol) * norm_h;
        let before = locked;
        while locked < ne && resd[locked] < tol {
            locked += 1;
        }

        let active_res = &resd[locked.min(ne - 1)..];
        stats.push(IterStats {
            low_precision: false,
            iter,
            est_cond: f64::NAN, // v1.2 has no condition estimator
            true_cond: None,
            qr_variant: QrVariant::Householder,
            matvecs: mv,
            new_locked: locked - before,
            locked,
            min_res: active_res
                .iter()
                .fold(f64::INFINITY, |m, r| m.min(r.to_f64())),
            max_res: active_res.iter().fold(0.0f64, |m, r| m.max(r.to_f64())),
            max_degree: *degs[locked.min(ne - 1)..].iter().max().unwrap_or(&0),
        });

        mu_1 = ritzv.iter().copied().fold(ritzv[0], |m, v| m.min_r(v));
        mu_ne = ritzv.iter().copied().fold(ritzv[0], |m, v| m.max_r(v));

        if locked >= nev {
            converged = true;
            break;
        }
    }

    let take = locked.max(nev).min(ne);
    let mut order: Vec<usize> = (0..take).collect();
    order.sort_by(|&a, &b| ritzv[a].partial_cmp(&ritzv[b]).unwrap());
    permute_cols(&mut c, 0, &order);
    let ritz_sorted: Vec<T::Real> = order.iter().map(|&i| ritzv[i]).collect();
    let res_sorted: Vec<T::Real> = order.iter().map(|&i| resd[i]).collect();

    ChaseResult {
        lowprec_matvecs: 0,
        eigenvalues: ritz_sorted[..nev].to_vec(),
        residuals: res_sorted[..nev].to_vec(),
        eigenvectors_local: c.copy_cols(0..nev),
        rows: h.row_set.clone(),
        n,
        iterations,
        matvecs: total_matvecs,
        converged,
        stats,
        norm_h: norm_h.to_f64(),
        bounds: chase_linalg::SpectralBounds { mu_1, mu_ne, b_sup },
        warm_started: false,
        recovery: crate::result::RecoveryLog::default(),
        plan: None,
    }
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
