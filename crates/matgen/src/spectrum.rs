//! Prescribed-spectrum Hermitian matrix generation (Section 4.1.2).

use chase_linalg::{Matrix, RealScalar, Scalar};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A prescribed eigenvalue set, stored ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    values: Vec<f64>,
}

impl Spectrum {
    /// From explicit values (sorted internally).
    pub fn from_values(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty());
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Self { values }
    }

    /// `n` eigenvalues uniformly spaced on `[lo, hi]` — the paper's
    /// "Uniform" matrices used in all scaling experiments.
    pub fn uniform(n: usize, lo: f64, hi: f64) -> Self {
        assert!(n >= 1 && hi > lo);
        let vals = (0..n)
            .map(|i| {
                if n == 1 {
                    lo
                } else {
                    lo + (hi - lo) * i as f64 / (n - 1) as f64
                }
            })
            .collect();
        Self { values: vals }
    }

    /// Geometrically spaced positive eigenvalues in `[lo, hi]` (condition
    /// number `hi/lo`).
    pub fn geometric(n: usize, lo: f64, hi: f64) -> Self {
        assert!(n >= 2 && lo > 0.0 && hi > lo);
        let r = (hi / lo).ln();
        let vals = (0..n)
            .map(|i| lo * (r * i as f64 / (n - 1) as f64).exp())
            .collect();
        Self { values: vals }
    }

    /// DFT-like surrogate (FLEUR problems): a handful of deep "core" states,
    /// a dense valence band near the lower edge, a spectral gap, and a broad
    /// conduction tail — the shape ChASE's intro motivates.
    pub fn dft_like(n: usize) -> Self {
        assert!(n >= 16);
        let n_core = (n / 50).max(2);
        let n_valence = (n / 5).max(4);
        let mut vals = Vec::with_capacity(n);
        // Semi-core states moderately below the valence band. (Keeping them
        // at FLEUR-like depths of -60 would make the Chebyshev regrowth of
        // the lowest eigencomponent overwhelm every later filter pass —
        // real FLEUR Hamiltonians do not behave that way because their
        // valence window is chosen relative to the core split-off.)
        for i in 0..n_core {
            vals.push(-20.0 + 8.0 * i as f64 / n_core as f64);
        }
        for i in 0..n_valence {
            // dense band on [-10, -2]
            vals.push(-10.0 + 8.0 * i as f64 / (n_valence - 1) as f64);
        }
        let n_rest = n - n_core - n_valence;
        for i in 0..n_rest {
            // conduction states above a 1.0 gap, thinning upward
            let t = i as f64 / n_rest as f64;
            vals.push(-1.0 + 51.0 * t * t.sqrt());
        }
        Self::from_values(vals)
    }

    /// BSE-like surrogate (Bethe–Salpeter problems): strictly positive
    /// excitation energies — a sparse band of discrete low-lying excitons
    /// above the optical edge, then a quadratically thickening continuum.
    /// (A purely quadratic edge would cluster the lowest eigenvalues far
    /// more than physical BSE spectra do, starving any extremal solver.)
    pub fn bse_like(n: usize) -> Self {
        assert!(n >= 8);
        let n_exciton = (n / 20).max(8).min(n / 2);
        let mut vals = Vec::with_capacity(n);
        for i in 0..n_exciton {
            vals.push(0.5 + 1.5 * i as f64 / (n_exciton - 1) as f64);
        }
        let n_rest = n - n_exciton;
        for i in 0..n_rest {
            let t = (i + 1) as f64 / n_rest as f64;
            vals.push(2.0 + 18.0 * t * t);
        }
        Self::from_values(vals)
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn min(&self) -> f64 {
        self.values[0]
    }

    pub fn max(&self) -> f64 {
        *self.values.last().unwrap()
    }
}

fn to_real_vec<T: Scalar>(spec: &Spectrum) -> Vec<T::Real> {
    spec.values()
        .iter()
        .map(|&v| T::Real::from_f64_r(v))
        .collect()
}

/// Dense Hermitian matrix with exactly the prescribed spectrum, built by
/// conjugating `diag(spec)` with `k = min(n, 24)` random Householder
/// reflectors (zlatms-style). Deterministic in `seed`.
pub fn dense_with_spectrum<T: Scalar>(spec: &Spectrum, seed: u64) -> Matrix<T> {
    let n = spec.len();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut a = Matrix::<T>::from_diag(&to_real_vec::<T>(spec));
    let reflectors = n.min(24);
    let mut av = vec![T::zero(); n];
    for _ in 0..reflectors {
        // Random unit vector v; H = I - 2 v v^H is unitary Hermitian.
        let mut v: Vec<T> = (0..n).map(|_| T::sample_standard(&mut rng)).collect();
        let nv = chase_linalg::blas1::nrm2(&v);
        chase_linalg::blas1::rscal(<T::Real as Scalar>::one() / nv, &mut v);
        let two = T::from_f64(2.0);

        // A := H A H  (two rank-1 sweeps).
        // Left: A -= 2 v (v^H A)
        for j in 0..n {
            let w = chase_linalg::blas1::dotc(&v, a.col(j));
            let s = two * w;
            for (ai, vi) in a.col_mut(j).iter_mut().zip(&v) {
                *ai -= s * *vi;
            }
        }
        // Right: A -= 2 (A v) v^H
        for (i, avi) in av.iter_mut().enumerate() {
            let mut s = T::zero();
            for (j, vj) in v.iter().enumerate() {
                s += a[(i, j)] * *vj;
            }
            *avi = s;
        }
        for (j, vj) in v.iter().enumerate() {
            let c = two * vj.conj();
            for (i, avi) in av.iter().enumerate() {
                let delta = *avi * c;
                a[(i, j)] -= delta;
            }
        }
    }
    // Round-off symmetrization: downstream kernels exploit A = A^H exactly.
    for j in 0..n {
        for i in 0..j {
            let m = (a[(i, j)] + a[(j, i)].conj()).scale(T::Real::from_f64_r(0.5));
            a[(i, j)] = m;
            a[(j, i)] = m.conj();
        }
        a[(j, j)] = T::from_real(a[(j, j)].re());
    }
    a
}

/// Hermitian perturbation of strength `eps` — one "SCF update" of a
/// correlated sequence (the workload of Section 1): `H' = H + eps * P` with
/// `P = (X + X^H) / 2` from a seeded random `X`, diagonal kept real.
/// Deterministic in `seed`; the single source for the DFT-sequence example,
/// the sequence tests, and the `chase-serve` synthetic workloads.
pub fn perturb_hermitian<T: Scalar>(h: &Matrix<T>, eps: f64, seed: u64) -> Matrix<T> {
    let n = h.rows();
    assert_eq!(h.cols(), n, "perturb_hermitian needs a square matrix");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let x = Matrix::<T>::random(n, n, &mut rng);
    let mut next = h.clone();
    let half_eps = T::Real::from_f64_r(0.5 * eps);
    for j in 0..n {
        for i in 0..=j {
            let pert = (x[(i, j)] + x[(j, i)].conj()).scale(half_eps);
            next[(i, j)] += pert;
            if i != j {
                next[(j, i)] += pert.conj();
            } else {
                next[(j, j)] = T::from_real(next[(j, j)].re());
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_linalg::{heevd, C64};

    #[test]
    fn uniform_spectrum_endpoints() {
        let s = Spectrum::uniform(5, -2.0, 2.0);
        assert_eq!(s.min(), -2.0);
        assert_eq!(s.max(), 2.0);
        assert_eq!(s.values()[2], 0.0);
    }

    #[test]
    fn geometric_condition_number() {
        let s = Spectrum::geometric(10, 1e-3, 1.0);
        assert!((s.min() - 1e-3).abs() < 1e-12);
        assert!((s.max() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generated_matrix_is_hermitian_with_exact_spectrum() {
        let spec = Spectrum::uniform(24, -1.0, 3.0);
        let a = dense_with_spectrum::<C64>(&spec, 7);
        assert!(a.max_abs_diff(&a.adjoint()) == 0.0, "exactly Hermitian");
        let (vals, _) = heevd(&a).unwrap();
        for (got, want) in vals.iter().zip(spec.values()) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let spec = Spectrum::uniform(12, 0.0, 1.0);
        let a = dense_with_spectrum::<C64>(&spec, 3);
        let b = dense_with_spectrum::<C64>(&spec, 3);
        let c = dense_with_spectrum::<C64>(&spec, 4);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert!(c.max_abs_diff(&a) > 0.0);
    }

    #[test]
    fn dft_like_has_gap_structure() {
        let s = Spectrum::dft_like(100);
        assert_eq!(s.len(), 100);
        assert!(s.min() <= -15.0, "semi-core states below the valence band");
        assert!(s.max() >= 45.0, "conduction tail");
    }

    #[test]
    fn bse_like_is_positive() {
        let s = Spectrum::bse_like(64);
        assert!(s.min() > 0.0);
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn real_scalar_generation() {
        let spec = Spectrum::uniform(10, -1.0, 1.0);
        let a = dense_with_spectrum::<f64>(&spec, 5);
        assert_eq!(a.max_abs_diff(&a.transpose()), 0.0);
        let (vals, _) = heevd(&a).unwrap();
        for (got, want) in vals.iter().zip(spec.values()) {
            assert!((got - want).abs() < 1e-10);
        }
    }
}
