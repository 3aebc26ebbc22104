//! Dense Hermitian eigensolver (LAPACK `zheevd` role).
//!
//! Used in two places that mirror the paper: the redundant diagonalization of
//! the `ne x ne` Rayleigh–Ritz quotient (Algorithm 2, line 18) and — at full
//! size — the one-stage path of the ELPA-like direct-solver baseline.
//!
//! Pipeline: panel-blocked Householder reduction of one triangle to a real
//! symmetric tridiagonal (`zhetrd`/`zlatrd`), implicit-shift QL iteration on
//! it with real eigenvectors (`dsteqr`), an ascending sort, and the
//! back-transformation by the reflectors in compact-WY blocks (`zunmtr`).

use crate::blas3::{gemm, sub_abh_lower, Op, PANEL};
use crate::matrix::Matrix;
use crate::scalar::{RealScalar, Scalar};

/// Failure of the QL iteration to converge (pathological input).
#[derive(Debug, Clone, Copy)]
pub struct NoConvergence {
    pub eigenvalue_index: usize,
}

impl std::fmt::Display for NoConvergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QL iteration failed for eigenvalue {}",
            self.eigenvalue_index
        )
    }
}

impl std::error::Error for NoConvergence {}

/// `PANEL` consecutive reflectors of a reduction in compact-WY form:
/// `H_k H_{k+1} ... = I - V T V^H` on rows `n - V.rows()..` of an `n`-row
/// matrix.
struct WyBlock<T> {
    /// The reflector vectors, unit lower trapezoidal with the zeros and ones
    /// stored.
    v: Matrix<T>,
    /// Upper triangular, `tau`s on the diagonal.
    t: Matrix<T>,
}

/// `A = Q T Q^H`: the diagonal `d` and subdiagonal `e` of the real
/// tridiagonal `T`, and `Q = H_0 H_1 ... H_{n-2}` as WY blocks, first to last.
struct Reduction<T: Scalar> {
    d: Vec<T::Real>,
    e: Vec<T::Real>,
    q: Vec<WyBlock<T>>,
}

/// `p = A[from.., from..] * x` for the Hermitian `A` whose lower triangle is
/// stored (the diagonal's imaginary parts are not read): one sweep over the
/// columns, each contributing below the diagonal as stored and to the right
/// of it conjugated.
fn hemv_lower<T: Scalar>(a: &Matrix<T>, from: usize, x: &[T], p: &mut [T]) {
    p.fill(T::zero());
    for (c, &xc) in x.iter().enumerate() {
        let col = &a.col(from + c)[from + c..];
        let mut right = xc.scale(col[0].re());
        let below = p[c + 1..].iter_mut().zip(&col[1..]).zip(&x[c + 1..]);
        for ((pi, &ai), &xi) in below {
            *pi += ai * xc;
            right += ai.conj() * xi;
        }
        p[c] += right;
    }
}

/// Householder reduction `A = Q T Q^H` of the Hermitian matrix whose lower
/// triangle `a` holds (LAPACK `zhetrd('L')` / `zlatrd`).
///
/// Reflector `H_k = I - tau v v^H` comes from column `k` of the reduced
/// matrix and acts on rows `k+1..` (the last, with an empty tail, is the
/// phase that makes the last subdiagonal entry real). Its two-sided update
/// `A -= v w^H + w v^H`, `w = p - (tau/2)(p^H v) v`, `p = tau A v`, touches one
/// triangle, and only `p` costs a pass over the matrix per column: within a
/// panel of [`PANEL`] columns the updates are deferred — a column is brought
/// up to date when its turn comes, `A v` is corrected by the panel's `V` and
/// `W` — and the trailing matrix takes the whole panel's rank-2k update in
/// one pass of the [`crate::gemm`] loop nest.
fn hetrd<T: Scalar>(a: &Matrix<T>) -> Reduction<T> {
    use crate::blas1::{axpy, dotc, scal};
    let n = a.rows();
    assert_eq!(a.cols(), n, "tridiagonalize: square matrix required");
    let mut d = Vec::with_capacity(n);
    let mut e = Vec::with_capacity(n.saturating_sub(1));
    let mut q = Vec::with_capacity(n.div_ceil(PANEL));
    // The part still to reduce, as a matrix of its own; only its lower
    // triangle is read and kept up to date.
    let mut trail = a.clone();
    while trail.rows() > 1 {
        let rows = trail.rows() - 1;
        let nb = PANEL.min(rows);
        // Row `i` of `V`, `W` and `p` is row `i + 1` of `trail`.
        let mut v = Matrix::<T>::zeros(rows, nb);
        let mut w = Matrix::<T>::zeros(rows, nb);
        let mut t = Matrix::<T>::zeros(nb, nb);
        let mut p = vec![T::zero(); rows];
        for j in 0..nb {
            // Column j, diagonal down, less what reflectors 0..j of this
            // panel owe it.
            let col = &mut trail.col_mut(j)[j..];
            for l in 0..j {
                axpy(-w[(j - 1, l)].conj(), &v.col(l)[j - 1..], col);
                axpy(-v[(j - 1, l)].conj(), &w.col(l)[j - 1..], col);
            }
            d.push(col[0].re());
            let (beta, tau) = larfg_local(col[1], &mut col[2..]);
            e.push(beta);
            v[(j, j)] = T::one();
            v.col_mut(j)[j + 1..].copy_from_slice(&col[2..]);
            t[(j, j)] = tau;
            if tau == T::zero() {
                continue;
            }
            // p = tau (A - V W^H - W V^H) v on rows j+1.., with A as it was
            // when the panel began.
            let vj = &v.col(j)[j..];
            let p = &mut p[j..];
            hemv_lower(&trail, j + 1, vj, p);
            for l in 0..j {
                axpy(-dotc(&w.col(l)[j..], vj), &v.col(l)[j..], p);
                // V[:, l]^H v is also what T's column j is made of.
                t[(l, j)] = dotc(&v.col(l)[j..], vj);
                axpy(-t[(l, j)], &w.col(l)[j..], p);
            }
            scal(tau, p);
            axpy(-(tau * dotc(p, vj)).scale(T::Real::from_f64_r(0.5)), vj, p);
            w.col_mut(j)[j..].copy_from_slice(p);
            // T[..j, j] = -tau T[..j, ..j] (V[:, ..j]^H v).
            for i in 0..j {
                let mut s = T::zero();
                for l in i..j {
                    s += t[(i, l)] * t[(l, j)];
                }
                t[(i, j)] = -tau * s;
            }
        }
        // What is left, lower triangle only, less the panel's rank-2k
        // update: [V W] [W V]^H on the rows it still has.
        let m = rows + 1 - nb;
        let mut next = Matrix::<T>::zeros(m, m);
        for c in 0..m {
            next.col_mut(c)[c..].copy_from_slice(&trail.col(nb + c)[nb + c..]);
        }
        let mut vw = Matrix::<T>::zeros(m, 2 * nb);
        let mut wv = Matrix::<T>::zeros(m, 2 * nb);
        for l in 0..nb {
            let (vl, wl) = (&v.col(l)[nb - 1..], &w.col(l)[nb - 1..]);
            vw.col_mut(l).copy_from_slice(vl);
            vw.col_mut(nb + l).copy_from_slice(wl);
            wv.col_mut(l).copy_from_slice(wl);
            wv.col_mut(nb + l).copy_from_slice(vl);
        }
        sub_abh_lower(vw.as_ref(), wv.as_ref(), next.as_mut());
        trail = next;
        q.push(WyBlock { v, t });
    }
    if n > 0 {
        d.push(trail[(0, 0)].re());
    }
    Reduction { d, e, q }
}

/// `X := X Q^H` for the `Q` of a reduction, block by block (last first)
/// through [`gemm`]: `X[:, c] -= ((X[:, c] V) T^H) V^H` on the columns `c` a
/// block's rows correspond to.
fn apply_qh_right<T: Scalar>(blocks: &[WyBlock<T>], x: &mut Matrix<T>) {
    let (m, n) = (x.rows(), x.cols());
    for WyBlock { v, t } in blocks.iter().rev() {
        let nb = v.cols();
        let cols = n - v.rows()..n;
        let mut xv = Matrix::<T>::zeros(m, nb);
        let mut xvt = Matrix::<T>::zeros(m, nb);
        let (one, zero) = (T::one(), T::zero());
        let x_cols = x.cols_ref(cols.clone());
        gemm(
            Op::None,
            Op::None,
            one,
            x_cols,
            v.as_ref(),
            zero,
            xv.as_mut(),
        );
        gemm(
            Op::None,
            Op::ConjTrans,
            one,
            xv.as_ref(),
            t.as_ref(),
            zero,
            xvt.as_mut(),
        );
        let x_cols = x.cols_mut(cols);
        gemm(
            Op::None,
            Op::ConjTrans,
            -one,
            xvt.as_ref(),
            v.as_ref(),
            one,
            x_cols,
        );
    }
}

/// Householder reduction of a Hermitian matrix (its lower triangle is read)
/// to real tridiagonal form: `A = Q T Q^H` with `T = tridiag(e, d, e)`.
///
/// Returns `(d, e, Q)` where `d` has length `n` and `e` length `n - 1`.
pub fn tridiagonalize<T: Scalar>(a: &Matrix<T>) -> (Vec<T::Real>, Vec<T::Real>, Matrix<T>) {
    let Reduction { d, e, q } = hetrd(a);
    let mut qh = Matrix::identity(a.rows(), a.rows());
    apply_qh_right(&q, &mut qh);
    (d, e, qh.adjoint())
}

/// Local copy of the reflector generator (see `qr::larfg`); kept separate so
/// the two modules stay independently testable.
fn larfg_local<T: Scalar>(alpha: T, x: &mut [T]) -> (T::Real, T) {
    let xnorm = crate::blas1::nrm2(x);
    let zero_r = <T::Real as Scalar>::zero();
    if xnorm == zero_r && alpha.im() == zero_r {
        return (alpha.re(), T::zero());
    }
    let mut beta = alpha.abs().hypot_r(xnorm);
    if alpha.re() > zero_r {
        beta = -beta;
    }
    let tau = (T::from_real(beta) - alpha).scale(<T::Real as Scalar>::one() / beta);
    let scale = T::one() / (alpha - T::from_real(beta));
    crate::blas1::scal(scale, x);
    (beta, tau)
}

/// Implicit-shift QL iteration on a real symmetric tridiagonal matrix,
/// optionally accumulating the (real) rotations into complex eigenvector
/// columns `z` (LAPACK `zsteqr` role).
///
/// `d` (length n) holds the diagonal and is overwritten by the eigenvalues
/// (unsorted); `e` (length n-1) is destroyed.
pub fn steqr<T: Scalar>(
    d: &mut [T::Real],
    e: &mut [T::Real],
    mut z: Option<&mut Matrix<T>>,
) -> Result<(), NoConvergence> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    assert_eq!(e.len(), n.saturating_sub(1));
    if let Some(zz) = z.as_deref() {
        assert_eq!(zz.cols(), n, "steqr: Z must have n columns");
    }
    // Classic tqli indexing writes e[m] with m up to n-1: work on a padded
    // copy of the off-diagonal (the input is destroyed per the contract).
    let mut epad: Vec<T::Real> = Vec::with_capacity(n);
    epad.extend_from_slice(e);
    epad.push(<T::Real as Scalar>::zero());
    let e = &mut epad[..];
    let zero = <T::Real as Scalar>::zero();
    let one = <T::Real as Scalar>::one();
    let two = one + one;
    let eps = <T::Real as RealScalar>::EPS;

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Locate a negligible subdiagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs_r() + d[m + 1].abs_r();
                if e[m].abs_r() <= eps * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 80 {
                return Err(NoConvergence {
                    eigenvalue_index: l,
                });
            }
            // Wilkinson-style shift.
            let mut g = (d[l + 1] - d[l]) / (two * e[l]);
            let mut r = g.hypot_r(one);
            g = d[m] - d[l] + e[l] / (g + r.copysign_r(g));
            let mut s = one;
            let mut c = one;
            let mut p = zero;
            let mut i = m;
            let mut underflow = false;
            while i > l {
                let idx = i - 1;
                let f = s * e[idx];
                let b = c * e[idx];
                r = f.hypot_r(g);
                e[i] = r;
                if r == zero {
                    d[i] -= p;
                    e[m] = zero;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i] - p;
                r = (d[idx] - g) * s + two * c * b;
                p = s * r;
                d[i] = g + p;
                g = c * r - b;
                if let Some(zz) = z.as_deref_mut() {
                    // Real Givens rotation applied to complex columns idx, i.
                    let (ci_col, cm1_col) = zz.two_cols_mut(i, idx);
                    for (a, bb) in ci_col.iter_mut().zip(cm1_col.iter_mut()) {
                        let f = *a;
                        *a = bb.scale(s) + f.scale(c);
                        *bb = bb.scale(c) - f.scale(s);
                    }
                }
                i -= 1;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = zero;
        }
    }
    Ok(())
}

/// Eigenvalues of a real symmetric tridiagonal matrix, ascending.
pub fn eigvals_tridiagonal<R: RealScalar>(d: &[R], e: &[R]) -> Result<Vec<R>, NoConvergence> {
    let mut dd = d.to_vec();
    let mut ee = e.to_vec();
    steqr::<R>(&mut dd, &mut ee, None)?;
    dd.sort_by(|a, b| a.to_f64().total_cmp(&b.to_f64()));
    Ok(dd)
}

/// Full solve: eigenvalues (ascending) and unitary eigenvector matrix of
/// the dense Hermitian `A` whose lower triangle `a` holds.
///
/// `A = Q T Q^H` by [`hetrd`], `T = Z D Z^T` by [`steqr`] on a *real* `Z`,
/// and the eigenvectors `Q Z` by applying the reflector blocks to the sorted
/// `Z` — `Q` itself is never formed. The result is a pure function of the
/// lower triangle, the same bits whichever microkernel instantiation runs.
pub fn heevd<T: Scalar>(a: &Matrix<T>) -> Result<(Vec<T::Real>, Matrix<T>), NoConvergence> {
    let n = a.rows();
    let Reduction { mut d, mut e, q } = hetrd(a);
    let mut z = Matrix::<T::Real>::identity(n, n);
    steqr::<T::Real>(&mut d, &mut e, Some(&mut z))?;
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].to_f64().total_cmp(&d[j].to_f64()));
    let vals: Vec<T::Real> = idx.iter().map(|&i| d[i]).collect();
    // (Q Z)^H = Z^T Q^H, so that a block's rows are a column range.
    let mut vh = Matrix::<T>::from_fn(n, n, |j, i| T::from_real(z[(i, idx[j])]));
    apply_qh_right(&q, &mut vh);
    Ok((vals, vh.adjoint()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{bits, gemm_new};
    use crate::lanes::{with_isa, Isa, ISAS};
    use crate::scalar::{C32, C64};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_hermitian(n: usize, seed: u64) -> Matrix<C64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Matrix::<C64>::random(n, n, &mut rng);
        let xh = x.adjoint();
        let mut h = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                h[(i, j)] = (x[(i, j)] + xh[(i, j)]).scale(0.5);
            }
        }
        h
    }

    #[test]
    fn tridiagonalize_preserves_similarity() {
        let a = random_hermitian(10, 21);
        let (d, e, q) = tridiagonalize(&a);
        // Build T and check Q T Q^H = A.
        let n = 10;
        let mut t = Matrix::<C64>::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = C64::from_f64(d[i].to_f64());
        }
        for i in 0..n - 1 {
            t[(i + 1, i)] = C64::from_f64(e[i].to_f64());
            t[(i, i + 1)] = C64::from_f64(e[i].to_f64());
        }
        let qt = gemm_new(Op::None, Op::None, &q, &t);
        let back = gemm_new(Op::None, Op::ConjTrans, &qt, &q);
        assert!(back.max_abs_diff(&a) < 1e-12 * a.norm_fro());
        // Q unitary
        let qhq = gemm_new(Op::ConjTrans, Op::None, &q, &q);
        assert!(qhq.orthogonality_error() < 1e-12);
    }

    #[test]
    fn steqr_known_tridiagonal() {
        // Clement-like 3x3: eigenvalues of tridiag([1,1],[0,0,0]) are -sqrt(2),0,sqrt(2).
        let d = [0.0f64, 0.0, 0.0];
        let e = [1.0f64, 1.0];
        let vals = eigvals_tridiagonal(&d, &e).unwrap();
        let s2 = 2.0f64.sqrt();
        assert!((vals[0] + s2).abs() < 1e-14);
        assert!(vals[1].abs() < 1e-14);
        assert!((vals[2] - s2).abs() < 1e-14);
    }

    #[test]
    fn heevd_residuals_and_orthogonality() {
        for seed in [1u64, 2, 3] {
            let n = 16;
            let a = random_hermitian(n, seed + 40);
            let (vals, v) = heevd(&a).unwrap();
            // sorted
            for i in 1..n {
                assert!(vals[i] >= vals[i - 1]);
            }
            // A v_i = lambda_i v_i
            let av = gemm_new(Op::None, Op::None, &a, &v);
            for j in 0..n {
                let mut rmax = 0.0;
                for i in 0..n {
                    let r = (av[(i, j)] - v[(i, j)].scale(vals[j])).abs();
                    rmax = f64::max(rmax, r);
                }
                assert!(rmax < 1e-11 * a.norm_fro(), "residual col {j}: {rmax}");
            }
            let vhv = gemm_new(Op::ConjTrans, Op::None, &v, &v);
            assert!(vhv.orthogonality_error() < 1e-11);
        }
    }

    #[test]
    fn heevd_real_symmetric() {
        let mut rng = ChaCha8Rng::seed_from_u64(50);
        let n = 12;
        let x = Matrix::<f64>::random(n, n, &mut rng);
        let mut a = Matrix::<f64>::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                a[(i, j)] = 0.5 * (x[(i, j)] + x[(j, i)]);
            }
        }
        let (vals, v) = heevd(&a).unwrap();
        let av = gemm_new(Op::None, Op::None, &a, &v);
        let mut vl = v.clone();
        for (j, &val) in vals.iter().enumerate() {
            crate::blas1::rscal(val, vl.col_mut(j));
        }
        assert!(av.max_abs_diff(&vl) < 1e-11 * a.norm_fro());
    }

    #[test]
    fn heevd_diagonal_matrix() {
        let a = Matrix::<f64>::from_diag(&[3.0, -1.0, 2.0]);
        let (vals, _v) = heevd(&a).unwrap();
        assert_eq!(vals, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn heevd_prescribed_spectrum() {
        // Q D Q^H must return exactly D's values.
        let mut rng = ChaCha8Rng::seed_from_u64(60);
        let spec = [-5.0, -2.0, -1.0, 0.5, 3.0, 10.0];
        let q = crate::qr::random_orthonormal::<C64, _>(6, 6, &mut rng);
        let d = Matrix::<C64>::from_diag(&spec);
        let qd = gemm_new(Op::None, Op::None, &q, &d);
        let a = gemm_new(Op::None, Op::ConjTrans, &qd, &q);
        let (vals, _) = heevd(&a).unwrap();
        for (v, s) in vals.iter().zip(spec.iter()) {
            assert!((v - s).abs() < 1e-10, "{v} vs {s}");
        }
    }

    /// The inputs that break eigensolvers, as `(name, spectrum)`, or for the
    /// last three as the matrix itself.
    const KINDS: [&str; 8] = [
        "clustered",
        "repeated",
        "graded",
        "dft_like",
        "diagonal",
        "zero",
        "real tridiagonal",
        "complex tridiagonal",
    ];

    /// Sizes around the panel width (the 16-row tile as well) and the 8-row
    /// tile, the trailing update's first tiles, and the Rayleigh-Ritz
    /// quotient of the `wide` benchmark workload.
    const SIZES: [usize; 12] = [
        1,
        2,
        7,
        8,
        9,
        PANEL - 1,
        PANEL,
        PANEL + 1,
        19,
        2 * PANEL + 3,
        50,
        160,
    ];

    fn adversarial<T: Scalar>(kind: &str, n: usize, rng: &mut ChaCha8Rng) -> Matrix<T> {
        let r = T::Real::from_f64_r;
        let spectrum: Vec<T::Real> = match kind {
            // Groups of five within a few ulps of each other.
            "clustered" => (0..n)
                .map(|i| r((i / 5) as f64) + T::Real::EPS * r((i % 5) as f64))
                .collect(),
            "repeated" => (0..n).map(|i| r((i % 3) as f64 - 1.0)).collect(),
            // Ten orders of magnitude (five in single precision).
            "graded" => (0..n)
                .map(|i| {
                    T::Real::EPS
                        .powi_r(-1)
                        .sqrt_r()
                        .ln_r()
                        .scale(r(-(i as f64) / n as f64))
                        .exp_r()
                })
                .collect(),
            // A few isolated low states below a dense band.
            "dft_like" => (0..n)
                .map(|i| {
                    if i < 4 {
                        r(-20.0 + 2.0 * i as f64)
                    } else {
                        r(-10.0 + 20.0 * i as f64 / n as f64)
                    }
                })
                .collect(),
            "diagonal" => {
                return Matrix::from_diag(
                    &(0..n).map(|i| r((i * 7 % 5) as f64)).collect::<Vec<_>>(),
                )
            }
            "zero" => return Matrix::zeros(n, n),
            // Every reflector tail is zero already: `tau = 0` steps (real
            // subdiagonal) or pure phases (complex subdiagonal).
            "real tridiagonal" | "complex tridiagonal" => {
                let mut a = Matrix::<T>::zeros(n, n);
                for i in 0..n {
                    a[(i, i)] = T::from_real(T::sample_standard(rng).re());
                    if i + 1 < n {
                        let s = T::sample_standard(rng);
                        let s = if kind == "real tridiagonal" {
                            T::from_real(s.re())
                        } else {
                            s
                        };
                        (a[(i + 1, i)], a[(i, i + 1)]) = (s, s.conj());
                    }
                }
                return a;
            }
            _ => unreachable!("{kind}"),
        };
        let q = crate::qr::random_orthonormal::<T, _>(n, n, rng);
        let qd = gemm_new(Op::None, Op::None, &q, &Matrix::from_diag(&spectrum));
        let x = gemm_new(Op::None, Op::ConjTrans, &qd, &q);
        // Exactly Hermitian, so that reading one triangle reads the matrix.
        let half = r(0.5);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                T::from_real(x[(i, i)].re())
            } else {
                (x[(i, j)] + x[(j, i)].conj()).scale(half)
            }
        })
    }

    /// Backward error and orthogonality of [`heevd`] on `a` in units of
    /// `n eps ||A||_F` and `n eps`, and the same bits from every microkernel
    /// instantiation this CPU runs.
    fn check_heevd<T: Scalar>(a: &Matrix<T>, what: &str) -> (f64, f64) {
        let n = a.rows();
        let (vals, v) = heevd(a).unwrap_or_else(|e| panic!("{what}: {e}"));
        // The run above took the widest of them.
        for isa in ISAS.into_iter().filter(|&isa| isa != Isa::detect()) {
            let Some(narrower) = with_isa(isa, || heevd(a)) else {
                continue;
            };
            let (vals_n, v_n) = narrower.expect("converged once already");
            assert_eq!(bits(&v), bits(&v_n), "{what}: eigenvectors on {isa:?}");
            assert_eq!(
                bits(&Matrix::<T::Real>::from_vec(n, 1, vals.clone())),
                bits(&Matrix::<T::Real>::from_vec(n, 1, vals_n)),
                "{what}: eigenvalues on {isa:?}"
            );
        }
        assert!(
            vals.windows(2).all(|w| w[0] <= w[1]),
            "{what}: not ascending"
        );
        let unit = n as f64 * T::Real::EPS.to_f64();
        let mut r = gemm_new(Op::None, Op::None, a, &v);
        for (j, &val) in vals.iter().enumerate() {
            crate::blas1::axpy(-T::from_real(val), v.col(j), r.col_mut(j));
        }
        let resid = (0..n)
            .map(|j| crate::blas1::nrm2(r.col(j)).to_f64())
            .fold(0.0, f64::max);
        let orth = gemm_new(Op::ConjTrans, Op::None, &v, &v)
            .orthogonality_error()
            .to_f64();
        let scale = a.norm_fro().to_f64().max(f64::MIN_POSITIVE);
        (resid / (unit * scale), orth / unit)
    }

    fn check_adversarial<T: Scalar>(kind: &str, n: usize, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = adversarial::<T>(kind, n, &mut rng);
        let what = format!("{} {kind} n={n} seed={seed}", std::any::type_name::<T>());
        let (resid, orth) = check_heevd(&a, &what);
        assert!(resid <= 10.0, "{what}: max residual {resid} n eps ||A||_F");
        assert!(orth <= 10.0, "{what}: ||V^H V - I|| = {orth} n eps");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Residual and orthogonality bounds on the inputs that break
        /// eigensolvers, at the sizes that straddle the panel, for every
        /// scalar, with the same bits from every microkernel instantiation.
        #[test]
        fn heevd_adversarial(
            kind in 0usize..KINDS.len(),
            size in 0usize..SIZES.len(),
            seed in 0u64..1 << 32,
        ) {
            let (kind, n) = (KINDS[kind], SIZES[size]);
            check_adversarial::<f32>(kind, n, seed);
            check_adversarial::<f64>(kind, n, seed);
            check_adversarial::<C32>(kind, n, seed);
            check_adversarial::<C64>(kind, n, seed);
        }
    }

    /// Every kind at every size once, whatever the proptest drew.
    #[test]
    fn heevd_adversarial_grid() {
        for kind in KINDS {
            for n in SIZES {
                check_adversarial::<C64>(kind, n, 11);
                check_adversarial::<f32>(kind, n, 12);
            }
        }
    }

    #[test]
    fn heevd_reads_the_lower_triangle_only() {
        let a = random_hermitian(40, 9);
        let mut b = a.clone();
        for j in 0..40 {
            for i in 0..j {
                b[(i, j)] = C64::from_f64(f64::NAN);
            }
        }
        let ((va, xa), (vb, xb)) = (heevd(&a).unwrap(), heevd(&b).unwrap());
        assert_eq!(va, vb);
        assert_eq!(bits(&xa), bits(&xb));
    }

    #[test]
    fn heevd_small_sizes() {
        for n in [1usize, 2, 3] {
            let a = random_hermitian(n, 70 + n as u64);
            let (vals, v) = heevd(&a).unwrap();
            assert_eq!(vals.len(), n);
            let vhv = gemm_new(Op::ConjTrans, Op::None, &v, &v);
            assert!(vhv.orthogonality_error() < 1e-12);
        }
    }
}
