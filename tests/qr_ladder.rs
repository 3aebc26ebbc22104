//! Property tests for the QR switchboard (Algorithm 4) and its escalation
//! ladder: the dispatch thresholds, the rung ordering, graceful rung-by-rung
//! escalation on rank-deficient input, and the typed non-finite Gram guard.

use chase_comm::{run_grid, solo_ctx, Distribution, GridShape};
use chase_core::{
    cholesky_qr, ladder_start, next_rung, qr_ladder, QrError, QrStrategy, QrVariant, RowDist,
    COND_SHIFTED, COND_SINGLE,
};
use chase_device::{Backend, Device};
use chase_linalg::{gram, Matrix, Scalar, C64};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The auto switchboard implements exactly the paper's Algorithm 4
    /// dispatch: shifted CholeskyQR2 above 1e8, CholeskyQR1 below 20,
    /// CholeskyQR2 in between.
    #[test]
    fn switchboard_matches_algorithm_4(log_kappa in -2.0f64..16.0) {
        let kappa = 10f64.powf(log_kappa);
        let expect = if kappa > COND_SHIFTED {
            QrVariant::ShiftedCholeskyQr2
        } else if kappa < COND_SINGLE {
            QrVariant::CholeskyQr1
        } else {
            QrVariant::CholeskyQr2
        };
        prop_assert_eq!(ladder_start(kappa, QrStrategy::Auto), expect);
    }

    /// Fixed (ablation) strategies pin their variant regardless of the
    /// condition estimate.
    #[test]
    fn fixed_strategies_ignore_condition(log_kappa in -2.0f64..16.0) {
        let kappa = 10f64.powf(log_kappa);
        prop_assert_eq!(
            ladder_start(kappa, QrStrategy::AlwaysCholeskyQr1),
            QrVariant::CholeskyQr1
        );
        prop_assert_eq!(
            ladder_start(kappa, QrStrategy::AlwaysCholeskyQr2),
            QrVariant::CholeskyQr2
        );
        prop_assert_eq!(
            ladder_start(kappa, QrStrategy::AlwaysHouseholder),
            QrVariant::Householder
        );
    }

    /// Rank-deficient input (an exactly-zero column) breaks every Cholesky
    /// rung. The ladder must escalate one rung at a time — never skipping,
    /// never panicking — and terminate at Householder with an orthonormal
    /// factor for the surviving columns.
    #[test]
    fn rank_deficiency_walks_ladder_and_never_panics(
        n in 3usize..8,
        zero_col in 0usize..8,
        seed in 0u64..500,
        start in 0usize..3,
    ) {
        let zero_col = zero_col % n;
        let m = 10 * n;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Matrix::<C64>::random(m, n, &mut rng);
        x.col_mut(zero_col).fill(C64::zero());
        let strategy = [
            QrStrategy::AlwaysCholeskyQr1,
            QrStrategy::AlwaysCholeskyQr2,
            QrStrategy::Auto,
        ][start];
        let ctx = solo_ctx();
        let dev = Device::new(&ctx, Backend::Nccl);
        let dist = RowDist { n: m, parts: vec![(0..m).into()] };
        let (variant, attempts) = qr_ladder(&dev, &ctx.world, &mut x, &dist, 50.0, strategy);
        prop_assert_eq!(variant, QrVariant::Householder);
        prop_assert_eq!(attempts[0].variant, ladder_start(50.0, strategy));
        for w in attempts.windows(2) {
            prop_assert!(w[0].error.is_some(), "non-final rung {:?} did not fail", w[0].variant);
            prop_assert_eq!(next_rung(w[0].variant), Some(w[1].variant), "skipped a rung");
        }
        let last = attempts.last().unwrap();
        prop_assert_eq!(last.variant, QrVariant::Householder);
        prop_assert!(last.error.is_none());
        // Householder handles the zero column via a tau = 0 reflector; the
        // factor it leaves behind is still orthonormal.
        let err = gram(x.as_ref()).orthogonality_error();
        prop_assert!(err < 1e-9, "orthogonality error {err}");
    }
}

/// The ladder starting from CholeskyQR1 visits every rung exactly once and
/// terminates: QR1 -> QR2 -> shifted QR2 -> Householder.
#[test]
fn ladder_visits_every_rung_in_order() {
    let mut v = ladder_start(1.0, QrStrategy::AlwaysCholeskyQr1);
    let mut seen = vec![v];
    while let Some(next) = next_rung(v) {
        v = next;
        seen.push(v);
    }
    assert_eq!(
        seen,
        vec![
            QrVariant::CholeskyQr1,
            QrVariant::CholeskyQr2,
            QrVariant::ShiftedCholeskyQr2,
            QrVariant::Householder,
        ]
    );
}

/// Regression: `potrf_upper` rejects a pivot with `piv <= 0`, which is
/// *false* for NaN — so a NaN-corrupted Gram matrix used to "succeed" and
/// propagate NaN into Q. The explicit finite check must catch it first and
/// return the typed error.
#[test]
fn nan_gram_yields_typed_error_not_silent_nan() {
    let ctx = solo_ctx();
    let dev = Device::new(&ctx, Backend::Nccl);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut x = Matrix::<C64>::random(24, 4, &mut rng);
    x.col_mut(2)[5] = C64::from_f64(f64::NAN);
    let err = cholesky_qr(&dev, &ctx.world, &mut x, 1).unwrap_err();
    assert!(
        matches!(err, QrError::NonFiniteGram { .. }),
        "expected NonFiniteGram, got {err}"
    );
}

/// The guard reads what the Gram kernel lets through. A NaN in column 1
/// must reach the Gram entry it shares with column 3 although column 3
/// holds an exact `0.0` in that row (`0 * NaN` is NaN; GEMM's zero-skip
/// would drop the term and leave `G[1, 3]` finite), and the typed error
/// names the same entry as ever — the mirrored `(1, 0)`, the first the
/// column-major scan meets — on one rank and across a 2x1 grid, where the
/// NaN sits in rank 0's rows and reaches rank 1 through the allreduce.
#[test]
fn nan_behind_a_zero_partner_reaches_the_gram_guard() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut xg = Matrix::<C64>::random(24, 4, &mut rng);
    xg.col_mut(1)[5] = C64::from_f64(f64::NAN);
    xg.col_mut(3)[5] = C64::zero();
    let g = gram(xg.as_ref());
    assert!(!g[(1, 3)].is_finite() && !g[(3, 1)].is_finite());
    let want = QrError::NonFiniteGram { row: 1, col: 0 };

    let ctx = solo_ctx();
    let dev = Device::new(&ctx, Backend::Nccl);
    let err = cholesky_qr(&dev, &ctx.world, &mut xg.clone(), 1).unwrap_err();
    assert_eq!(err, want, "1x1");

    let xg = &xg;
    let out = run_grid(GridShape::new(2, 1), move |ctx| {
        let dev = Device::new(ctx, Backend::Std);
        let dist = RowDist::c_layout(24, ctx.shape, Distribution::Block);
        let mut x = xg.select_rows(dist.parts[ctx.col_comm.rank()].iter());
        cholesky_qr(&dev, &ctx.col_comm, &mut x, 1).unwrap_err()
    });
    for err in out.results {
        assert_eq!(err, want, "2x1");
    }
}
