//! # chase-matgen
//!
//! Test-matrix generation for the ChASE reproduction.
//!
//! Two sources mirror Section 4.1 of the paper:
//!
//! * **Artificial matrices** with a prescribed spectrum (Section 4.1.2):
//!   `A = Q^H D Q` where `D` carries the eigenvalues. The paper builds `Q`
//!   from the QR of a random square matrix; we follow LAPACK's testing
//!   infrastructure (`zlatms`, reference [12] of the paper) and apply a
//!   product of random Householder reflectors — the spectrum is *exactly*
//!   preserved at `O(k N^2)` cost instead of `O(N^3)`.
//! * **Application surrogates** for the DFT/BSE problems of Table 1. The
//!   FLEUR and BSE input matrices are not redistributable; the surrogates
//!   reproduce each problem's *spectral shape* (density profile and the
//!   nev/nex fractions), which is what determines ChASE's convergence.

pub mod io;
pub mod spectrum;
pub mod suite;

pub use spectrum::{dense_with_spectrum, dense_with_spectrum_qr, perturb_hermitian, Spectrum};
pub use suite::{scaled_suite, Problem, ProblemKind, SCALE_DEFAULT};

use chase_comm::block_range;
use chase_linalg::{Matrix, Scalar};

/// Carve the local `n_r x n_c` block of a globally generated Hermitian
/// matrix for grid position `(row, col)` under the block distribution
/// (Section 2.2 of the paper).
pub fn local_block<T: Scalar>(
    h: &Matrix<T>,
    p: usize,
    q: usize,
    row: usize,
    col: usize,
) -> Matrix<T> {
    let n = h.rows();
    let ri = block_range(n, p, row);
    let cj = block_range(n, q, col);
    h.sub(ri.start, cj.start, ri.len(), cj.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_linalg::C64;

    #[test]
    fn local_blocks_tile_the_matrix() {
        let spec = Spectrum::uniform(10, -1.0, 1.0);
        let h = dense_with_spectrum::<C64>(&spec, 42);
        let (p, q) = (2, 3);
        for i in 0..p {
            for j in 0..q {
                let b = local_block(&h, p, q, i, j);
                let ri = block_range(10, p, i);
                let cj = block_range(10, q, j);
                assert_eq!(b.rows(), ri.len());
                assert_eq!(b.cols(), cj.len());
                assert_eq!(b[(0, 0)], h[(ri.start, cj.start)]);
            }
        }
    }
}
