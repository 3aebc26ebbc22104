//! Lanczos iteration for spectral-bound estimation (Algorithm 1/2, line 1–2).
//!
//! ChASE runs a small number of Lanczos steps on a handful of random vectors
//! to obtain (i) a safe upper bound `b_sup` on the spectrum, (ii) an estimate
//! `mu_1` of the smallest eigenvalue, and (iii) a Density-of-States (DoS)
//! quantile estimate `mu_ne` of the `(nev + nex)`-th eigenvalue, which
//! delimits the interval the Chebyshev filter must damp.

use crate::heevd::{steqr, NoConvergence};
use crate::matrix::Matrix;
use crate::scalar::{RealScalar, Scalar};
use rand::Rng;

/// Spectral bounds consumed by the Chebyshev filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralBounds<R> {
    /// Estimate of the smallest eigenvalue (`mu_1`).
    pub mu_1: R,
    /// DoS estimate of the `(nev + nex)`-th smallest eigenvalue (`mu_ne`).
    pub mu_ne: R,
    /// Guaranteed-ish upper bound on the whole spectrum (`b_sup`).
    pub b_sup: R,
}

/// Result of one Lanczos run: Ritz values, their DoS weights (squared first
/// components of the tridiagonal eigenvectors), and the residual norm of the
/// final step.
#[derive(Debug, Clone)]
pub struct LanczosRun<R> {
    pub ritz: Vec<R>,
    pub weights: Vec<R>,
    /// `beta_m * |last eigenvector component|` per Ritz value: the classical
    /// Lanczos residual bound used to inflate `b_sup`.
    pub residual_bounds: Vec<R>,
}

/// One recurrence of [`lanczos_block`]: the state of column `r`.
struct Recurrence<T: Scalar> {
    /// The current Lanczos vector, until it joins `basis`.
    v: Vec<T>,
    basis: Vec<Vec<T>>,
    alphas: Vec<T::Real>,
    betas: Vec<T::Real>,
    last_beta: T::Real,
}

/// One step of one recurrence on `w = A v`: full (one-pass)
/// reorthogonalization, then either the next vector (`true`) or retirement
/// (`false`: `m` steps taken, or the Krylov space closed).
fn lanczos_step<T: Scalar>(run: &mut Recurrence<T>, w: &mut [T], m: usize) -> bool {
    let step = run.basis.len();
    run.basis.push(std::mem::take(&mut run.v));
    let v = &run.basis[step];
    let alpha = crate::blas1::dotc(v, w).re();
    run.alphas.push(alpha);
    // w -= alpha v + beta v_prev
    crate::blas1::axpy(-T::from_real(alpha), v, w);
    if step > 0 {
        crate::blas1::axpy(-T::from_real(run.betas[step - 1]), &run.basis[step - 1], w);
    }
    // Full reorthogonalization (classical Gram-Schmidt, one pass).
    for b in &run.basis {
        let proj = crate::blas1::dotc(b, w);
        crate::blas1::axpy(-proj, b, w);
    }
    let beta = crate::blas1::nrm2(w);
    run.last_beta = beta;
    if step + 1 == m || beta.to_f64() < 1e-14 {
        return false;
    }
    run.betas.push(beta);
    run.v = w.to_vec();
    crate::blas1::rscal(<T::Real as Scalar>::one() / beta, &mut run.v);
    true
}

/// Ritz values, DoS weights and residual bounds of a finished recurrence:
/// the eigen-decomposition of its small real tridiagonal.
fn ritz_of<R: RealScalar>(
    alphas: Vec<R>,
    mut betas: Vec<R>,
    last_beta: R,
) -> Result<LanczosRun<R>, NoConvergence> {
    let k = alphas.len();
    let mut d = alphas;
    betas.truncate(k.saturating_sub(1));
    let mut z = Matrix::<R>::identity(k, k);
    steqr::<R>(&mut d, &mut betas, Some(&mut z))?;

    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&i, &j| d[i].to_f64().total_cmp(&d[j].to_f64()));
    Ok(LanczosRun {
        ritz: order.iter().map(|&i| d[i]).collect(),
        weights: order.iter().map(|&i| z[(0, i)] * z[(0, i)]).collect(),
        residual_bounds: order
            .iter()
            .map(|&i| last_beta * z[(k - 1, i)].abs_r())
            .collect(),
    })
}

/// `nvec` independent Lanczos runs of `m` steps each, with full (one-pass)
/// reorthogonalization, advanced in lock-step so the operator sees one
/// block per step.
///
/// `apply(x)` must return `A X` for the Hermitian operator `A` of dimension
/// `n`; `X` holds the current vector of every run still going, in
/// run order. A run stops early when its Krylov space closes; the others go
/// on with a narrower block.
///
/// Bit for bit `nvec` one-vector runs made one after the other on the same
/// `rng`, provided `apply` computes each column of `A X` from the matching
/// column of `X` alone (as [`crate::gemm`] does): the start vectors are drawn
/// run by run before the first step and a run draws nothing else, and column
/// `r` goes through exactly run `r`'s sequence of dot products and updates.
///
/// Fails when a tridiagonal eigensolve does not converge, which is what a
/// non-finite entry in `A` leads to.
pub fn lanczos_block<T, F, R>(
    n: usize,
    m: usize,
    nvec: usize,
    mut apply: F,
    rng: &mut R,
) -> Result<Vec<LanczosRun<T::Real>>, NoConvergence>
where
    T: Scalar,
    F: FnMut(&Matrix<T>) -> Matrix<T>,
    R: Rng + ?Sized,
{
    assert!(n >= 1);
    let m = m.min(n);
    let mut runs: Vec<Recurrence<T>> = (0..nvec)
        .map(|_| {
            let mut v: Vec<T> = (0..n).map(|_| T::sample_standard(rng)).collect();
            let nv = crate::blas1::nrm2(&v);
            crate::blas1::rscal(<T::Real as Scalar>::one() / nv, &mut v);
            Recurrence {
                v,
                basis: Vec::with_capacity(m),
                alphas: Vec::with_capacity(m),
                betas: Vec::with_capacity(m),
                last_beta: <T::Real as Scalar>::zero(),
            }
        })
        .collect();

    let mut active: Vec<usize> = (0..nvec).collect();
    while !active.is_empty() {
        let mut x = Matrix::<T>::zeros(n, active.len());
        for (a, &r) in active.iter().enumerate() {
            x.col_mut(a).copy_from_slice(&runs[r].v);
        }
        let mut w = apply(&x);
        assert_eq!(
            (w.rows(), w.cols()),
            (n, active.len()),
            "lanczos: A X shape"
        );
        active = active
            .iter()
            .enumerate()
            .filter(|&(a, &r)| lanczos_step(&mut runs[r], w.col_mut(a), m))
            .map(|(_, &r)| r)
            .collect();
    }
    runs.into_iter()
        .map(|run| ritz_of(run.alphas, run.betas, run.last_beta))
        .collect()
}

/// One Lanczos run of `m` steps: [`lanczos_block`] on a single vector, with
/// `matvec(x, y)` computing `y = A x`.
pub fn lanczos_run<T, F, R>(
    n: usize,
    m: usize,
    mut matvec: F,
    rng: &mut R,
) -> Result<LanczosRun<T::Real>, NoConvergence>
where
    T: Scalar,
    F: FnMut(&[T], &mut [T]),
    R: Rng + ?Sized,
{
    let column = |x: &Matrix<T>| {
        let mut y = Matrix::zeros(n, 1);
        matvec(x.col(0), y.col_mut(0));
        y
    };
    Ok(lanczos_block(n, m, 1, column, rng)?.remove(0))
}

impl<R: RealScalar> SpectralBounds<R> {
    /// The three bounds ChASE needs, from the Ritz data of independent
    /// Lanczos runs ([`lanczos_block`]) on an operator of dimension `n` (the
    /// paper's DoS approach): `mu_1` the smallest Ritz value, `b_sup` the
    /// largest Ritz value plus its residual bound, `mu_ne` the `ne`-th
    /// quantile of the averaged DoS.
    pub fn from_runs(n: usize, ne: usize, runs: &[LanczosRun<R>]) -> Self {
        assert!(!runs.is_empty());
        let mut all_nodes: Vec<(R, R)> = Vec::new();
        let mut mu_1 = R::from_f64_r(f64::INFINITY);
        let mut b_sup = R::from_f64_r(f64::NEG_INFINITY);

        for run in runs {
            if let Some(&lo) = run.ritz.first() {
                mu_1 = mu_1.min_r(lo);
            }
            for (i, &theta) in run.ritz.iter().enumerate() {
                let ub = theta + run.residual_bounds[i];
                b_sup = b_sup.max_r(ub);
                all_nodes.push((theta, run.weights[i]));
            }
        }

        // DoS CDF: counts(lambda) ~ N * mean over runs of sum of weights below.
        all_nodes.sort_by(|a, b| a.0.to_f64().total_cmp(&b.0.to_f64()));
        let scale = n as f64 / runs.len() as f64;
        let target = ne as f64;
        let mut acc = 0.0f64;
        let mut mu_ne = b_sup;
        for (theta, wgt) in &all_nodes {
            acc += wgt.to_f64() * scale;
            if acc >= target {
                mu_ne = *theta;
                break;
            }
        }
        // Guard rails: the filter interval must be non-empty and inside the
        // spectrum estimate.
        // NaN-safe guards: the comparisons must treat NaN as "needs repair".
        let interval_ok = matches!(mu_ne.partial_cmp(&mu_1), Some(std::cmp::Ordering::Greater));
        if !interval_ok {
            mu_ne = mu_1 + (b_sup - mu_1).scale(R::from_f64_r(0.05));
        }
        let top_ok = matches!(b_sup.partial_cmp(&mu_ne), Some(std::cmp::Ordering::Greater));
        if !top_ok {
            b_sup = mu_ne + (mu_ne - mu_1).abs_r().max_r(R::from_f64_r(1e-8));
        }
        SpectralBounds { mu_1, mu_ne, b_sup }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm_new, gemv, Op};
    use crate::scalar::{C32, C64};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// What [`lanczos_block`] replaced and must reproduce bit for bit: one
    /// run after the other, each a sequential loop on its own vector.
    fn lanczos_reference<T, F, R>(
        n: usize,
        m: usize,
        nvec: usize,
        mut matvec: F,
        rng: &mut R,
    ) -> Vec<LanczosRun<T::Real>>
    where
        T: Scalar,
        F: FnMut(&[T], &mut [T]),
        R: Rng + ?Sized,
    {
        let m = m.min(n);
        let mut runs = Vec::new();
        for _ in 0..nvec {
            let mut basis: Vec<Vec<T>> = Vec::with_capacity(m);
            let mut alphas: Vec<T::Real> = Vec::with_capacity(m);
            let mut betas: Vec<T::Real> = Vec::with_capacity(m);

            let mut v: Vec<T> = (0..n).map(|_| T::sample_standard(rng)).collect();
            let nv = crate::blas1::nrm2(&v);
            crate::blas1::rscal(<T::Real as Scalar>::one() / nv, &mut v);

            let mut w = vec![T::zero(); n];
            let mut last_beta = <T::Real as Scalar>::zero();

            for step in 0..m {
                basis.push(v.clone());
                matvec(&v, &mut w);
                let alpha = crate::blas1::dotc(&v, &w).re();
                alphas.push(alpha);
                crate::blas1::axpy(-T::from_real(alpha), &v, &mut w);
                if step > 0 {
                    crate::blas1::axpy(-T::from_real(betas[step - 1]), &basis[step - 1], &mut w);
                }
                for b in &basis {
                    let proj = crate::blas1::dotc(b, &w);
                    crate::blas1::axpy(-proj, b, &mut w);
                }
                let beta = crate::blas1::nrm2(&w);
                last_beta = beta;
                if step + 1 == m {
                    break;
                }
                if beta.to_f64() < 1e-14 {
                    break;
                }
                betas.push(beta);
                v = w.clone();
                crate::blas1::rscal(<T::Real as Scalar>::one() / beta, &mut v);
            }
            runs.push(ritz_of(alphas, betas, last_beta).expect("tridiagonal QL failed"));
        }
        runs
    }

    fn run_bits<R: RealScalar>(runs: &[LanczosRun<R>]) -> Vec<[Vec<u64>; 3]> {
        let bits = |v: &[R]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        runs.iter()
            .map(|r| [bits(&r.ritz), bits(&r.weights), bits(&r.residual_bounds)])
            .collect()
    }

    fn bounds_bits<R: RealScalar>(b: SpectralBounds<R>) -> [u64; 3] {
        [b.mu_1, b.mu_ne, b.b_sup].map(|x| x.to_f64().to_bits())
    }

    /// `Q D Q^H` with `distinct` different eigenvalues of size `scale`: a
    /// Krylov space closes after `distinct` steps, up to rounding of the
    /// order of `scale * eps` — on either side of the `1e-14` test.
    fn few_eigenvalues<T: Scalar>(
        n: usize,
        distinct: usize,
        scale: f64,
        rng: &mut ChaCha8Rng,
    ) -> Matrix<T> {
        let spec: Vec<T::Real> = (0..n)
            .map(|i| T::Real::from_f64_r(scale * (1.0 + (i % distinct) as f64)))
            .collect();
        let q = crate::qr::random_orthonormal::<T, _>(n, n, rng);
        let qd = gemm_new(Op::None, Op::None, &q, &Matrix::from_diag(&spec));
        gemm_new(Op::None, Op::ConjTrans, &qd, &q)
    }

    /// Block and reference on the operator `A` (block: one GEMM per step;
    /// reference: one-column GEMMs, as the solver issued them). Returns the
    /// per-run step counts.
    fn check_block_equals_reference<T: Scalar>(
        a: &Matrix<T>,
        steps: usize,
        nvec: usize,
        seed: u64,
    ) -> Vec<usize> {
        let n = a.rows();
        let apply = |x: &Matrix<T>| gemm_new(Op::ConjTrans, Op::None, a, x);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let block = lanczos_block(n, steps, nvec, apply, &mut rng).expect("QL converges");
        let mut rng_ref = ChaCha8Rng::seed_from_u64(seed);
        let reference = lanczos_reference(
            n,
            steps,
            nvec,
            |x: &[T], y: &mut [T]| {
                y.copy_from_slice(apply(&Matrix::from_vec(n, 1, x.to_vec())).col(0));
            },
            &mut rng_ref,
        );
        let what = format!(
            "{} n={n} steps={steps} nvec={nvec} seed={seed}",
            std::any::type_name::<T>()
        );
        assert_eq!(run_bits(&block), run_bits(&reference), "{what}");
        assert_eq!(
            bounds_bits(SpectralBounds::from_runs(n, n / 3 + 1, &block)),
            bounds_bits(SpectralBounds::from_runs(n, n / 3 + 1, &reference)),
            "{what}"
        );
        // Both sides drew the same numbers and nothing else.
        assert_eq!(
            rng.gen::<u64>(),
            rng_ref.gen::<u64>(),
            "{what}: rng position"
        );
        block.iter().map(|r| r.ritz.len()).collect()
    }

    /// Eigenvalue sizes for [`few_eigenvalues`]: far below, around (f64) and
    /// far above the point where the closing step's `beta` meets `1e-14`.
    const SCALES: [f64; 7] = [1e-3, 0.5, 2.0, 3.0, 4.0, 6.0, 1e3];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Block Lanczos equals the sequential runs bit for bit, for every
        /// scalar and microkernel instantiation, 1 to 6 columns, dense
        /// spectra and spectra whose Krylov spaces close (`distinct < steps`,
        /// some columns before others), and `steps > n`.
        #[test]
        fn block_equals_sequential_runs_bitwise(
            n in 1usize..40,
            nvec in 1usize..7,
            steps in 1usize..48,
            distinct in 1usize..40,
            scale in 0usize..SCALES.len(),
            seed in 0u64..1 << 32,
        ) {
            fn one<T: Scalar>(n: usize, distinct: usize, scale: f64, steps: usize, nvec: usize, seed: u64) {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
                let a = few_eigenvalues::<T>(n, distinct.min(n), scale, &mut rng);
                crate::lanes::on_each_isa(|_| {
                    check_block_equals_reference(&a, steps, nvec, seed);
                });
            }
            let scale = SCALES[scale];
            one::<f32>(n, distinct, scale, steps, nvec, seed);
            one::<f64>(n, distinct, scale, steps, nvec, seed);
            one::<C32>(n, distinct, scale, steps, nvec, seed);
            one::<C64>(n, distinct, scale, steps, nvec, seed);
        }
    }

    /// The case the proptest must not miss by luck: one block in which some
    /// columns retire at the closing step and others run on.
    #[test]
    fn columns_retire_at_different_steps() {
        let mut mixed = 0;
        for seed in 0..40u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let a = few_eigenvalues::<f64>(24, 3, 4.0, &mut rng);
            let lens = check_block_equals_reference(&a, 12, 6, seed);
            mixed += usize::from(lens.iter().any(|&l| l != lens[0]));
        }
        assert!(mixed >= 20, "only {mixed} of 40 blocks retired unevenly");
    }

    fn estimate_bounds(
        (n, ne): (usize, usize),
        (steps, nvec): (usize, usize),
        apply: impl FnMut(&Matrix<C64>) -> Matrix<C64>,
        rng: &mut ChaCha8Rng,
    ) -> Result<SpectralBounds<f64>, NoConvergence> {
        let runs = lanczos_block(n, steps, nvec, apply, rng)?;
        Ok(SpectralBounds::from_runs(n, ne, &runs))
    }

    fn diag_operator(spec: Vec<f64>) -> impl FnMut(&Matrix<C64>) -> Matrix<C64> {
        move |x| Matrix::from_fn(x.rows(), x.cols(), |i, j| x[(i, j)].scale(spec[i]))
    }

    #[test]
    fn bounds_contain_spectrum_diag() {
        let n = 200;
        let spec: Vec<f64> = (0..n)
            .map(|i| i as f64 / (n - 1) as f64 * 10.0 - 2.0)
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let b = estimate_bounds((n, 40), (25, 6), diag_operator(spec.clone()), &mut rng).unwrap();
        assert!(
            b.b_sup >= 8.0 - 1e-6,
            "b_sup {} must bound lambda_max 8",
            b.b_sup
        );
        assert!(b.mu_1 <= -1.5, "mu_1 {} should approach -2", b.mu_1);
        assert!(b.mu_ne > b.mu_1 && b.mu_ne < b.b_sup);
        // the 40th of 200 uniform values on [-2, 8] is near -2 + 10*(40/200) = 0
        assert!(b.mu_ne.abs() < 1.5, "mu_ne {} should be near 0", b.mu_ne);
    }

    #[test]
    fn lanczos_exact_on_small_dense() {
        // Full-dimension Lanczos reproduces the dense spectrum.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let n = 12;
        let spec: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let q = crate::qr::random_orthonormal::<C64, _>(n, n, &mut rng);
        let d = Matrix::<C64>::from_diag(&spec);
        let qd = gemm_new(Op::None, Op::None, &q, &d);
        let a = gemm_new(Op::None, Op::ConjTrans, &qd, &q);
        let run = lanczos_run::<C64, _, _>(
            n,
            n,
            |x, y| gemv(Op::None, C64::one(), &a, x, C64::zero(), y),
            &mut rng,
        )
        .unwrap();
        assert_eq!(run.ritz.len(), n);
        for (r, s) in run.ritz.iter().zip(spec.iter()) {
            assert!((r - s).abs() < 1e-8, "{r} vs {s}");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let spec: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        let runs = lanczos_block::<C64, _, _>(100, 20, 1, diag_operator(spec), &mut rng).unwrap();
        let s: f64 = runs[0].weights.iter().sum();
        assert!((s - 1.0).abs() < 1e-10, "weight sum {s}");
    }

    #[test]
    fn upper_bound_is_safe_across_seeds() {
        let n = 150;
        let spec: Vec<f64> = (0..n)
            .map(|i| -5.0 + 10.0 * (i as f64) / (n as f64 - 1.0))
            .collect();
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let b =
                estimate_bounds((n, 15), (25, 4), diag_operator(spec.clone()), &mut rng).unwrap();
            assert!(b.b_sup >= 5.0 - 1e-6, "seed {seed}: b_sup {} < 5", b.b_sup);
        }
    }

    /// A non-finite operator is an `Err`, not a panic.
    #[test]
    fn non_finite_operator_is_an_error() {
        let mut spec: Vec<f64> = (0..30).map(|i| i as f64).collect();
        spec[7] = f64::NAN;
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        assert!(estimate_bounds((30, 5), (10, 3), diag_operator(spec), &mut rng).is_err());
    }
}
