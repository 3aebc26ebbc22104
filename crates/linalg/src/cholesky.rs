//! Cholesky factorization (POTRF) of Hermitian positive-definite matrices.
//!
//! CholeskyQR (Algorithm 3 of the paper) factors the Gram matrix `R = X^H X`
//! as `R = U^H U` and then solves `Q = X U^{-1}`. The shifted variant
//! (Algorithm 4, lines 3–11) adds `s I` before factorizing to survive
//! ill-conditioned inputs.

use crate::blas3::{sub_finished_rows, PANEL};
use crate::lanes::Isa;
use crate::matrix::{ColsMut, Matrix};
use crate::scalar::{RealScalar, Scalar};

/// Error raised when the matrix is not (numerically) positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// First pivot index (0-based) whose value was non-positive,
    /// mirroring LAPACK's `info` convention.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix not positive definite at pivot {}", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Upper-triangular Cholesky factor: `A = U^H U`.
///
/// On success the returned matrix has the factor in its upper triangle and
/// zeros below. Equivalent to LAPACK `zpotrf('U', ...)`.
///
/// Bit for bit the row-by-row recurrence: the pivot is
/// `d = re(A[k, k]) - |U[0, k]|^2 - ... - |U[k-1, k]|^2` (real arithmetic,
/// unfused, in that order; the first `d` that is not positive and finite is
/// the reported pivot), `U[k, k] = sqrt(d)`, and for `j > k`, `U[k, j]` starts
/// at `A[k, j]`, takes the fused term of `gemm` with `s = -U[l, j]`,
/// `a = conj(U[l, k])` (that is, `-= conj(U[l, k]) * U[l, j]`) for
/// `l = 0, ..., k-1` in that order (no term skipped), then `*= 1 / U[k, k]`.
/// Rows go in blocks of `PANEL`: the terms `l` above a block are one pass of
/// the `gemm` loop nest, the few inside it the scalar recurrence of the same
/// term, compiled for the same instantiation as the microkernel, and the
/// pivots beside them.
pub fn potrf_upper<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>, NotPositiveDefinite> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "potrf: matrix must be square");
    let mut u = a.clone();
    // Rows `k0..k1` of `A`, columns `k0..`, less the terms `l < k0`.
    let mut w = vec![T::zero(); PANEL.min(n) * n];
    for k0 in (0..n).step_by(PANEL) {
        let k1 = (k0 + PANEL).min(n);
        let rows = k1 - k0;
        let w = &mut w[..rows * (n - k0)];
        for (wj, j) in w.chunks_exact_mut(rows).zip(k0..) {
            wj.copy_from_slice(&u.col(j)[k0..k1]);
        }
        sub_finished_rows(&u, k0..k1, ColsMut::new(w, rows, n - k0));
        Isa::current().dispatch(
            #[inline(always)]
            |_| {
                for k in k0..k1 {
                    let mut d = u[(k, k)].re();
                    for l in 0..k {
                        d -= u[(l, k)].abs_sqr();
                    }
                    let positive = d > <T::Real as Scalar>::zero();
                    if !positive || !d.is_finite_r() {
                        return Err(NotPositiveDefinite { pivot: k });
                    }
                    let dk = d.sqrt_r();
                    u[(k, k)] = T::from_real(dk);
                    let inv = T::from_real(<T::Real as Scalar>::one() / dk);
                    for j in k + 1..n {
                        let mut c = w[(j - k0) * rows + k - k0];
                        for l in k0..k {
                            c = T::mul_acc(c, -u[(l, j)], u[(l, k)].conj());
                        }
                        u[(k, j)] = c * inv;
                    }
                    for i in k + 1..n {
                        u[(i, k)] = T::zero();
                    }
                }
                Ok(())
            },
        )?;
    }
    Ok(u)
}

/// Shift magnitude for shifted CholeskyQR2 (Algorithm 4, line 6):
/// `s = 11 (m n + n (n + 1)) u ||X||_F^2` with `u` the unit round-off.
pub fn shifted_cholesky_shift<R: RealScalar>(m: usize, n: usize, frob_sqr: R) -> R {
    let u = R::EPS.scale(R::from_f64_r(0.5));
    R::from_f64_r(11.0 * (m as f64 * n as f64 + n as f64 * (n as f64 + 1.0))) * u * frob_sqr
}

/// `A + s I` in place on a copy.
pub fn add_shift<T: Scalar>(a: &Matrix<T>, s: T::Real) -> Matrix<T> {
    let mut b = a.clone();
    for i in 0..a.rows().min(a.cols()) {
        b[(i, i)] += T::from_real(s);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{bits, gemm_new, gram, Op};
    use crate::lanes::on_each_isa;
    use crate::scalar::{C32, C64};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The fold contract on [`potrf_upper`], literally: the row-by-row
    /// recurrence the blocked kernel replaced.
    fn potrf_reference<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>, NotPositiveDefinite> {
        let n = a.rows();
        let mut u = a.clone();
        for k in 0..n {
            let mut d = u[(k, k)].re();
            for l in 0..k {
                d -= u[(l, k)].abs_sqr();
            }
            let positive = d > <T::Real as Scalar>::zero();
            if !positive || !d.is_finite_r() {
                return Err(NotPositiveDefinite { pivot: k });
            }
            let dk = d.sqrt_r();
            u[(k, k)] = T::from_real(dk);
            let inv = T::from_real(<T::Real as Scalar>::one() / dk);
            for j in k + 1..n {
                let mut c = u[(k, j)];
                for l in 0..k {
                    c = T::mul_acc(c, -u[(l, j)], u[(l, k)].conj());
                }
                u[(k, j)] = c * inv;
            }
            for i in k + 1..n {
                u[(i, k)] = T::zero();
            }
        }
        Ok(u)
    }

    /// [`potrf_upper`] against the recurrence, bit for bit, factor or
    /// pivot. The input is a Gram matrix whose columns fall in two groups
    /// with disjoint row support (exact zeros between them, half of them
    /// flipped to `-0.0`: terms the recurrence does not skip, so `-0 - (-0)`
    /// turns `+0`), with `NaN` below the diagonal (never read) and, by
    /// `kind`: 1 a negated diagonal entry, 2 a `NaN` on or above the
    /// diagonal, 3 an `inf` on it.
    fn check_potrf_contract<T: Scalar>(n: usize, kind: usize, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Matrix::<T>::random(2 * n + 3, n, &mut rng);
        for j in 0..n {
            let upper_half = rng.gen::<f64>() < 0.5;
            for i in 0..x.rows() {
                if (i < n) == upper_half {
                    x[(i, j)] = T::zero();
                }
            }
        }
        let mut a = gram(x.as_ref());
        for j in 0..n {
            for i in 0..n {
                if i > j {
                    a[(i, j)] = T::from_real(T::Real::from_f64_r(f64::NAN));
                } else if a[(i, j)] == T::zero() && rng.gen::<f64>() < 0.5 {
                    a[(i, j)] = -T::zero();
                }
            }
        }
        if n > 0 {
            let j = rng.gen::<u64>() as usize % n;
            let i = rng.gen::<u64>() as usize % (j + 1);
            match kind {
                1 => a[(j, j)] = -a[(j, j)],
                2 => a[(i, j)] = T::from_real(T::Real::from_f64_r(f64::NAN)),
                3 => a[(j, j)] = T::from_real(T::Real::from_f64_r(f64::INFINITY)),
                _ => {}
            }
        }
        let what = format!(
            "{} n {n} kind {kind} seed {seed}",
            std::any::type_name::<T>()
        );
        let want = potrf_reference(&a);
        on_each_isa(|isa| match (potrf_upper(&a), &want) {
            (Ok(got), Ok(want)) => assert_eq!(bits(&got), bits(want), "{what} on {isa:?}"),
            (got, want) => assert_eq!(got.err(), want.clone().err(), "{what} on {isa:?}"),
        });
    }

    /// Orders around `PANEL` 16 and its multiples, the tile sizes (4, 8, 16),
    /// `MC`/`NC` 128 and `KC` 256.
    const ORDERS: [usize; 21] = [
        0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 19, 31, 32, 33, 35, 48, 129, 150, 257, 290,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// `potrf_upper` equals the row-by-row recurrence bit for bit, and
        /// breaks down at the same pivot when it does.
        #[test]
        fn potrf_equals_reference_bitwise(
            ni in 0usize..ORDERS.len(),
            kind in 0usize..6,
            seed in 0u64..1 << 32,
        ) {
            check_potrf_contract::<f32>(ORDERS[ni], kind, seed);
            check_potrf_contract::<f64>(ORDERS[ni], kind, seed);
            check_potrf_contract::<C32>(ORDERS[ni], kind, seed);
            check_potrf_contract::<C64>(ORDERS[ni], kind, seed);
        }
    }

    fn random_spd(n: usize, seed: u64) -> Matrix<C64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Matrix::<C64>::random(2 * n, n, &mut rng);
        crate::blas3::gram(x.as_ref())
    }

    #[test]
    fn potrf_reconstructs() {
        let a = random_spd(8, 1);
        let u = potrf_upper(&a).unwrap();
        let back = gemm_new(Op::ConjTrans, Op::None, &u, &u);
        assert!(back.max_abs_diff(&a) < 1e-10 * a.norm_fro());
        // strictly upper triangular below diagonal zeros
        for j in 0..8 {
            for i in j + 1..8 {
                assert_eq!(u[(i, j)], C64::zero());
            }
        }
    }

    #[test]
    fn potrf_real() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x = Matrix::<f64>::random(20, 6, &mut rng);
        let a = crate::blas3::gram(x.as_ref());
        let u = potrf_upper(&a).unwrap();
        let back = gemm_new(Op::Trans, Op::None, &u, &u);
        assert!(back.max_abs_diff(&a) < 1e-10 * a.norm_fro());
    }

    #[test]
    fn potrf_detects_indefinite() {
        let mut a = Matrix::<f64>::identity(3, 3);
        a[(2, 2)] = -1.0;
        let e = potrf_upper(&a).unwrap_err();
        assert_eq!(e.pivot, 2);
    }

    #[test]
    fn potrf_detects_semidefinite() {
        // rank-1 Gram matrix of [1;1] duplicated column
        let a = Matrix::<f64>::from_fn(2, 2, |_, _| 1.0);
        assert!(potrf_upper(&a).is_err());
    }

    #[test]
    fn shift_formula_positive_and_tiny() {
        let s = shifted_cholesky_shift::<f64>(1000, 100, 1.0);
        assert!(s > 0.0);
        assert!(s < 1e-8); // tiny relative to ||X||_F^2 = 1
        let shifted = add_shift(&Matrix::<f64>::identity(3, 3), 0.5);
        assert_eq!(shifted[(0, 0)], 1.5);
        assert_eq!(shifted[(0, 1)], 0.0);
    }
}
