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

pub use spectrum::{dense_with_spectrum, perturb_hermitian, Spectrum};
pub use suite::{scaled_suite, Problem, ProblemKind, SCALE_DEFAULT};
