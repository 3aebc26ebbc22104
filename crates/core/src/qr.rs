//! Distributed QR factorizations (Algorithms 3 and 4).
//!
//! The 1D-CAQR runs on the C-layout block within each column communicator:
//! a local Gram (`SYRK`), one allreduce, a redundant Cholesky (`POTRF`) and a
//! local triangular solve (`TRSM`) — communication-optimal, with addition as
//! the reduction operator (the reason the paper prefers CholeskyQR over
//! TSQR). The switchboard picks a variant from the estimated condition
//! number; Householder QR (ScaLAPACK's role) remains as baseline and
//! fallback, realized here by gathering the block and factorizing
//! redundantly.

use crate::layout::RowDist;
use crate::params::QrStrategy;
use chase_comm::{Communicator, Reduce};
use chase_device::Device;
use chase_linalg::{Matrix, NotPositiveDefinite, Scalar};
use std::fmt;

/// Which QR implementation actually ran (recorded per iteration for Table 2
/// and the Fig. 1 narrative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QrVariant {
    CholeskyQr1,
    CholeskyQr2,
    ShiftedCholeskyQr2,
    Householder,
}

impl QrVariant {
    pub fn name(self) -> &'static str {
        match self {
            QrVariant::CholeskyQr1 => "CholeskyQR1",
            QrVariant::CholeskyQr2 => "CholeskyQR2",
            QrVariant::ShiftedCholeskyQr2 => "sCholeskyQR2",
            QrVariant::Householder => "HHQR",
        }
    }
}

/// Condition threshold above which shifted CholeskyQR2 is required
/// (`O(u^{-1/2}) ~ 1e8` in double precision; Algorithm 4, line 2).
pub const COND_SHIFTED: f64 = 1e8;
/// Condition threshold below which a single CholeskyQR pass suffices
/// (Algorithm 4, line 13; "in practice set to 20").
pub const COND_SINGLE: f64 = 20.0;

/// Why a CholeskyQR rung failed.
///
/// `NonFiniteGram` exists because `potrf` alone cannot catch a poisoned
/// Gram matrix: its pivot test `piv <= 0` is *false* for NaN, so Cholesky
/// on a NaN Gram silently "succeeds" with a garbage factor. The explicit
/// finite check before `potrf` is the guard that turns a corrupted
/// collective into a typed, recoverable error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QrError {
    /// The (finite) Gram matrix was not numerically positive definite —
    /// the classic CholeskyQR breakdown of Algorithm 4.
    NotPositiveDefinite { pivot: usize },
    /// The Gram matrix contained NaN/Inf (corrupted block or collective).
    NonFiniteGram { row: usize, col: usize },
}

impl fmt::Display for QrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QrError::NotPositiveDefinite { pivot } => {
                write!(f, "Gram matrix not positive definite at pivot {pivot}")
            }
            QrError::NonFiniteGram { row, col } => {
                write!(f, "non-finite Gram entry at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for QrError {}

impl From<NotPositiveDefinite> for QrError {
    fn from(e: NotPositiveDefinite) -> Self {
        QrError::NotPositiveDefinite { pivot: e.pivot }
    }
}

/// Guard: the reduced Gram matrix must be entirely finite before it is
/// handed to `potrf` (see [`QrError::NonFiniteGram`]).
fn check_gram_finite<T: Scalar>(g: &Matrix<T>) -> Result<(), QrError> {
    for j in 0..g.cols() {
        for (i, v) in g.col(j).iter().enumerate() {
            if !v.is_finite() {
                return Err(QrError::NonFiniteGram { row: i, col: j });
            }
        }
    }
    Ok(())
}

/// Algorithm 3: `cholDegree` repetitions of {Gram, allreduce, POTRF, TRSM}
/// on the row-distributed block `x`.
pub fn cholesky_qr<T: Scalar + Reduce>(
    dev: &Device<'_>,
    comm: &Communicator,
    x: &mut Matrix<T>,
    repetitions: usize,
) -> Result<(), QrError> {
    for _ in 0..repetitions {
        let mut g = dev.gram(x.as_ref());
        dev.allreduce_sum(comm, g.as_mut_slice());
        check_gram_finite(&g)?;
        let u = dev.potrf(&g)?;
        dev.trsm(x.as_mut(), &u);
    }
    Ok(())
}

/// Shifted CholeskyQR2 (Algorithm 4, lines 3–12): factor `G + s I` with
/// `s = 11 (m n + n (n+1)) u ||X||_F^2`, solve once, then run CholeskyQR2.
///
/// Returns `Err` if even the shifted Gram matrix is not positive definite
/// (the corner case that falls back to Householder).
pub fn shifted_cholesky_qr2<T: Scalar + Reduce>(
    dev: &Device<'_>,
    comm: &Communicator,
    x: &mut Matrix<T>,
    m_global: usize,
) -> Result<(), QrError> {
    let mut g = dev.gram(x.as_ref());
    dev.allreduce_sum(comm, g.as_mut_slice());
    check_gram_finite(&g)?;
    // ||X||_F^2 = trace(G): already globally reduced, no extra collective.
    let mut frob_sqr = <T::Real as Scalar>::zero();
    for i in 0..g.rows() {
        frob_sqr += g[(i, i)].re();
    }
    let s = chase_linalg::shifted_cholesky_shift::<T::Real>(m_global, g.rows(), frob_sqr);
    let shifted = chase_linalg::add_shift(&g, s);
    let u = dev.potrf(&shifted)?;
    dev.trsm(x.as_mut(), &u);
    cholesky_qr(dev, comm, x, 2)
}

/// Householder QR over the communicator: gather the distributed block,
/// factor redundantly, keep the local rows. This is both the `AlwaysHHQR`
/// baseline of Table 2 (ScaLAPACK-HHQR's role) and the robustness fallback
/// of Algorithm 4 line 9.
pub fn householder_qr_dist<T: Scalar>(
    dev: &Device<'_>,
    comm: &Communicator,
    x: &mut Matrix<T>,
    dist: &RowDist,
) {
    let q = if comm.size() == 1 {
        dev.hhqr_q(x)
    } else {
        let gathered = dev.allgather(comm, x.as_slice());
        dev.hhqr_q(&dist.assemble(&gathered, x.cols()))
    };
    let my = &dist.parts[comm.rank()];
    *x = q.select_rows(my.iter());
}

/// The rung the switchboard starts at (Algorithm 4's condition-number
/// dispatch; pure — the proptest oracle for the switchboard).
pub fn ladder_start(est_cond: f64, strategy: QrStrategy) -> QrVariant {
    match strategy {
        QrStrategy::AlwaysHouseholder => QrVariant::Householder,
        QrStrategy::AlwaysCholeskyQr1 => QrVariant::CholeskyQr1,
        QrStrategy::AlwaysCholeskyQr2 => QrVariant::CholeskyQr2,
        QrStrategy::Auto => {
            if est_cond > COND_SHIFTED {
                QrVariant::ShiftedCholeskyQr2
            } else if est_cond < COND_SINGLE {
                QrVariant::CholeskyQr1
            } else {
                QrVariant::CholeskyQr2
            }
        }
    }
}

/// The next (more robust, more expensive) rung after `v` fails:
/// CholeskyQR1 → CholeskyQR2 → shifted CholeskyQR2 → HHQR → (none).
pub fn next_rung(v: QrVariant) -> Option<QrVariant> {
    match v {
        QrVariant::CholeskyQr1 => Some(QrVariant::CholeskyQr2),
        QrVariant::CholeskyQr2 => Some(QrVariant::ShiftedCholeskyQr2),
        QrVariant::ShiftedCholeskyQr2 => Some(QrVariant::Householder),
        QrVariant::Householder => None,
    }
}

/// One rung execution inside [`qr_ladder`]: which variant ran and how it
/// ended (`None` = success).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderAttempt {
    pub variant: QrVariant,
    pub error: Option<QrError>,
}

/// Algorithm 4 with an explicit recovery ladder: start at the rung the
/// condition estimate picks, and on every breakdown restore `x` from a
/// pre-factorization backup and escalate one rung. Householder QR is the
/// terminal rung and cannot break down, so the ladder always produces an
/// orthonormal factor. Returns the winning variant plus the full attempt
/// trail (the solver folds failures into its `RecoveryLog`).
pub fn qr_ladder<T: Scalar + Reduce>(
    dev: &Device<'_>,
    comm: &Communicator,
    x: &mut Matrix<T>,
    dist: &RowDist,
    est_cond: f64,
    strategy: QrStrategy,
) -> (QrVariant, Vec<LadderAttempt>) {
    let mut attempts = Vec::new();
    let mut variant = ladder_start(est_cond, strategy);
    // The fallible rungs mutate x in place (TRSM); keep the filtered block
    // so each escalation refactors the original, not a half-solved wreck.
    // Householder QR cannot fail, so a ladder that starts there keeps none.
    let backup = (variant != QrVariant::Householder).then(|| x.clone());
    loop {
        let outcome = match variant {
            QrVariant::CholeskyQr1 => cholesky_qr(dev, comm, x, 1),
            QrVariant::CholeskyQr2 => cholesky_qr(dev, comm, x, 2),
            QrVariant::ShiftedCholeskyQr2 => shifted_cholesky_qr2(dev, comm, x, dist.n),
            QrVariant::Householder => {
                householder_qr_dist(dev, comm, x, dist);
                Ok(())
            }
        };
        match outcome {
            Ok(()) => {
                attempts.push(LadderAttempt {
                    variant,
                    error: None,
                });
                return (variant, attempts);
            }
            Err(e) => {
                attempts.push(LadderAttempt {
                    variant,
                    error: Some(e),
                });
                let backup = backup.as_ref().expect("every fallible rung has a backup");
                x.as_mut_slice().copy_from_slice(backup.as_slice());
                variant = next_rung(variant).expect("Householder QR cannot break down");
            }
        }
    }
}

/// Algorithm 4: the flexible 1D-CAQR driven by the estimated condition
/// number. Returns the variant that produced the final factor. Thin wrapper
/// over [`qr_ladder`] that discards the attempt trail.
pub fn flexible_qr<T: Scalar + Reduce>(
    dev: &Device<'_>,
    comm: &Communicator,
    x: &mut Matrix<T>,
    dist: &RowDist,
    est_cond: f64,
    strategy: QrStrategy,
) -> QrVariant {
    qr_ladder(dev, comm, x, dist, est_cond, strategy).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::{run_grid, solo_ctx, GridShape};
    use chase_device::Backend;
    use chase_linalg::{gemm_new, gram, random_orthonormal, Op, C64};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Tall block with prescribed condition number.
    fn conditioned(m: usize, n: usize, kappa: f64, seed: u64) -> Matrix<C64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let u = random_orthonormal::<C64, _>(m, n, &mut rng);
        let v = random_orthonormal::<C64, _>(n, n, &mut rng);
        let mut us = u.clone();
        for j in 0..n {
            let s = kappa.powf(-(j as f64) / (n - 1) as f64);
            chase_linalg::blas1::rscal(s, us.col_mut(j));
        }
        gemm_new(Op::None, Op::ConjTrans, &us, &v)
    }

    fn orth_error(x: &Matrix<C64>) -> f64 {
        gram(x.as_ref()).orthogonality_error()
    }

    #[test]
    fn cholesky_qr1_well_conditioned() {
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut x = conditioned(40, 6, 5.0, 1);
        let x0 = x.clone();
        cholesky_qr(&dev, &ctx.world, &mut x, 1).unwrap();
        assert!(orth_error(&x) < 1e-12);
        // Q spans the same space: Q^H X0 has full rank (just sanity-check
        // reconstruction via projector: X0 = Q (Q^H X0)).
        let r = gemm_new(Op::ConjTrans, Op::None, &x, &x0);
        let back = gemm_new(Op::None, Op::None, &x, &r);
        assert!(back.max_abs_diff(&x0) < 1e-10);
    }

    #[test]
    fn cholesky_qr2_moderately_conditioned() {
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut x = conditioned(50, 8, 1e6, 2);
        cholesky_qr(&dev, &ctx.world, &mut x, 2).unwrap();
        assert!(orth_error(&x) < 1e-12);
    }

    #[test]
    fn cholesky_qr1_loses_orthogonality_where_qr2_does_not() {
        // kappa = 1e6: one pass leaves ~kappa^2 * eps ~ 1e-4 error.
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut x1 = conditioned(50, 8, 1e6, 3);
        let mut x2 = x1.clone();
        cholesky_qr(&dev, &ctx.world, &mut x1, 1).unwrap();
        cholesky_qr(&dev, &ctx.world, &mut x2, 2).unwrap();
        assert!(
            orth_error(&x1) > 1e-8,
            "QR1 should be visibly non-orthogonal"
        );
        assert!(orth_error(&x2) < 1e-12);
    }

    #[test]
    fn shifted_qr2_survives_extreme_conditioning() {
        // kappa = 1e12 > u^{-1/2}: plain CholeskyQR must fail POTRF, the
        // shifted variant must succeed and restore orthogonality.
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut x = conditioned(60, 8, 1e12, 4);
        assert!(
            cholesky_qr(&dev, &ctx.world, &mut x.clone(), 1).is_err()
                || orth_error(&{
                    let mut y = x.clone();
                    cholesky_qr(&dev, &ctx.world, &mut y, 1).ok();
                    y
                }) > 1e-2,
            "plain CholeskyQR should break down at kappa 1e12"
        );
        shifted_cholesky_qr2(&dev, &ctx.world, &mut x, 60).unwrap();
        assert!(orth_error(&x) < 1e-11, "orth err {}", orth_error(&x));
    }

    #[test]
    fn auto_switchboard_picks_by_condition() {
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let dist = RowDist {
            n: 40,
            parts: vec![(0..40).into()],
        };

        let mut x = conditioned(40, 5, 2.0, 5);
        let v = flexible_qr(&dev, &ctx.world, &mut x, &dist, 3.0, QrStrategy::Auto);
        assert_eq!(v, QrVariant::CholeskyQr1);

        let mut x = conditioned(40, 5, 1e5, 6);
        let v = flexible_qr(&dev, &ctx.world, &mut x, &dist, 1e5, QrStrategy::Auto);
        assert_eq!(v, QrVariant::CholeskyQr2);
        assert!(orth_error(&x) < 1e-12);

        let mut x = conditioned(40, 5, 1e10, 7);
        let v = flexible_qr(&dev, &ctx.world, &mut x, &dist, 1e10, QrStrategy::Auto);
        assert_eq!(v, QrVariant::ShiftedCholeskyQr2);
        assert!(orth_error(&x) < 1e-11);
    }

    #[test]
    fn householder_strategy_and_fallback() {
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let dist = RowDist {
            n: 30,
            parts: vec![(0..30).into()],
        };
        let mut x = conditioned(30, 4, 1e3, 8);
        let v = flexible_qr(
            &dev,
            &ctx.world,
            &mut x,
            &dist,
            1e3,
            QrStrategy::AlwaysHouseholder,
        );
        assert_eq!(v, QrVariant::Householder);
        assert!(orth_error(&x) < 1e-12);
    }

    #[test]
    fn distributed_cholesky_qr_matches_serial() {
        let m = 24;
        let n = 5;
        let xg = conditioned(m, n, 100.0, 9);
        // Serial reference.
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let mut xs = xg.clone();
        cholesky_qr(&dev, &ctx.world, &mut xs, 2).unwrap();

        for parts in [2usize, 3] {
            let (xg, xs) = (&xg, &xs);
            let out = run_grid(GridShape::new(parts, 1), move |ctx| {
                let dev = Device::new(ctx, Backend::Std);
                let dist = RowDist::c_layout(m, ctx.shape, chase_comm::Distribution::Block);
                let my = dist.parts[ctx.col_comm.rank()].clone();
                let mut x = xg.select_rows(my.iter());
                cholesky_qr(&dev, &ctx.col_comm, &mut x, 2).unwrap();
                x.max_abs_diff(&xs.select_rows(my.iter()))
            });
            for d in out.results {
                assert!(d < 1e-12, "{parts} parts: diff {d}");
            }
        }
    }

    #[test]
    fn distributed_householder_matches_shape() {
        let m = 20;
        let n = 4;
        let xg = conditioned(m, n, 50.0, 10);
        let xg = &xg;
        let out = run_grid(GridShape::new(2, 1), move |ctx| {
            let dev = Device::new(ctx, Backend::Std);
            let dist = RowDist::c_layout(m, ctx.shape, chase_comm::Distribution::Block);
            let my = dist.parts[ctx.col_comm.rank()].clone();
            let mut x = xg.select_rows(my.iter());
            householder_qr_dist(&dev, &ctx.col_comm, &mut x, &dist);
            (my.as_range().unwrap(), x)
        });
        // Stack the blocks and verify global orthonormality.
        let mut full = Matrix::<C64>::zeros(m, n);
        for (my, x) in out.results {
            full.set_sub(my.start, 0, &x);
        }
        assert!(orth_error(&full) < 1e-12);
    }
}
