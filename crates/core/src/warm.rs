//! First-class warm starts for sequences of correlated eigenproblems.
//!
//! ChASE's raison d'être (Section 1) is *sequences*: in a DFT
//! self-consistency loop each Hamiltonian is a small perturbation of the
//! previous one, so the previous search space is an excellent initial
//! subspace and the previous spectral bounds remain valid up to a small
//! margin. [`WarmStart`] packages exactly that hand-off: the solver accepts
//! it directly (no caller-side padding loop) and skips the Lanczos
//! estimation phase when cached bounds are supplied.

use crate::result::ChaseResult;
use chase_linalg::{Matrix, RealScalar, Scalar, SpectralBounds};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The state one solve hands to the next solve of a correlated sequence.
///
/// `v0` holds `k` columns of a starting search space (`n x k`, with
/// `1 <= k <= ne`); the solver fills the remaining `ne - k` directions
/// from its seeded random block, so callers never pad by hand.
/// [`WarmStart::from_results`] hands over the previous solve's whole final
/// search space (`k = ne`: its `nev` eigenvectors, then its `nex` other
/// directions), so no column of the next solve starts random; a block cut
/// to the `nev` eigenvectors is valid too, and has its `nex` directions
/// grown again from random vectors by the first filter.
/// `bounds` optionally carries the previous solve's refined spectral
/// estimates; when present the Lanczos phase is skipped entirely and the
/// upper bound is inflated by a small safety margin (the next matrix is a
/// perturbation, so its spectrum may poke slightly past the old `b_sup`).
#[derive(Debug, Clone)]
pub struct WarmStart<T: Scalar> {
    /// Global starting search space (`n x k`, `1 <= k <= ne`).
    pub v0: Matrix<T>,
    /// Cached spectral bounds from the previous solve.
    pub bounds: Option<SpectralBounds<T::Real>>,
}

impl<T: Scalar> WarmStart<T> {
    /// Warm start from explicit vectors only (bounds re-estimated).
    pub fn from_vectors(v0: Matrix<T>) -> Self {
        Self { v0, bounds: None }
    }

    /// Build the warm-start payload for the next solve in a sequence from
    /// the per-rank results of an SPMD run (a single-element slice for
    /// serial solves): the whole `n x ne` final search space — the
    /// eigenvectors of [`ChaseResult::assemble_eigenvectors`] in its first
    /// `nev` columns — and the refined spectral bounds.
    pub fn from_results(results: &[ChaseResult<T>]) -> Self {
        assert!(!results.is_empty());
        Self {
            v0: ChaseResult::assemble_search_space(results),
            bounds: Some(results[0].bounds),
        }
    }

    /// Bytes a session cache pays to keep this payload resident.
    pub fn bytes(&self) -> usize {
        self.v0.bytes() + std::mem::size_of::<SpectralBounds<T::Real>>()
    }

    /// The bounds the solver will actually filter with: cached bounds with
    /// `b_sup` inflated by `margin` (relative to the spectral span), so a
    /// perturbed Hamiltonian whose spectrum crept past the old estimate
    /// still lands inside the damped interval.
    pub fn inflated_bounds(&self, margin: f64) -> Option<SpectralBounds<T::Real>> {
        self.bounds.map(|b| {
            let span = (b.b_sup - b.mu_1).abs_r();
            SpectralBounds {
                mu_1: b.mu_1,
                mu_ne: b.mu_ne,
                b_sup: b.b_sup + span * T::Real::from_f64_r(margin),
            }
        })
    }
}

/// This rank's `rows` of the initial search space (`n x ne` globally): the
/// seeded random block (identical across ranks), its leading columns
/// replaced by the `k` columns of a warm block `v0`. A full-width `v0` is
/// sliced directly, without drawing the random block.
pub(crate) fn initial_block<T: Scalar>(
    n: usize,
    ne: usize,
    seed: u64,
    v0: Option<&Matrix<T>>,
    rows: impl Iterator<Item = usize>,
) -> Matrix<T> {
    match v0 {
        Some(v) if v.cols() == ne => v.select_rows(rows),
        _ => {
            let mut g = Matrix::random(n, ne, &mut ChaCha8Rng::seed_from_u64(seed));
            if let Some(v) = v0 {
                g.set_cols(0, v);
            }
            g.select_rows(rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_linalg::C64;

    #[test]
    fn inflation_extends_upper_bound_only() {
        let w = WarmStart::<C64> {
            v0: Matrix::zeros(4, 2),
            bounds: Some(SpectralBounds {
                mu_1: -1.0,
                mu_ne: 0.0,
                b_sup: 1.0,
            }),
        };
        let b = w.inflated_bounds(0.01).unwrap();
        assert_eq!(b.mu_1, -1.0);
        assert_eq!(b.mu_ne, 0.0);
        assert!((b.b_sup - 1.02).abs() < 1e-12);
    }

    #[test]
    fn initial_block_pads_a_narrow_warm_block_with_the_seeded_columns() {
        let (n, ne, seed) = (6, 4, 9);
        let cold = initial_block::<f64>(n, ne, seed, None, 0..n);
        let v0 = Matrix::from_fn(n, 2, |i, j| (10 * i + j) as f64);
        let padded = initial_block(n, ne, seed, Some(&v0), 0..n);
        assert_eq!(padded.cols_ref(0..2).as_slice(), v0.as_slice());
        assert_eq!(
            padded.cols_ref(2..ne).as_slice(),
            cold.cols_ref(2..ne).as_slice()
        );
        // A full-width block is this rank's rows of it, nothing drawn.
        let full = Matrix::from_fn(n, ne, |i, j| (i + 7 * j) as f64);
        let rows = [4, 1];
        let local = initial_block(n, ne, seed, Some(&full), rows.into_iter());
        assert_eq!(local, full.select_rows(rows.into_iter()));
    }

    #[test]
    fn from_vectors_has_no_bounds() {
        let w = WarmStart::<f64>::from_vectors(Matrix::zeros(3, 1));
        assert!(w.bounds.is_none());
        assert!(w.bytes() >= 3 * std::mem::size_of::<f64>());
    }
}
