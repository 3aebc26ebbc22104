//! # chase-linalg
//!
//! From-scratch dense linear algebra substrate for the ChASE reproduction:
//! the roles that MKL / cuBLAS / cuSOLVER play in the original library.
//!
//! Everything is generic over [`Scalar`] — `f32`, `f64`, `Complex<f32>`,
//! `Complex<f64>` — matching the template instantiations of the C++ ChASE.
//!
//! Modules:
//! * [`scalar`] — the scalar abstraction.
//! * [`matrix`] — column-major storage and column-range views.
//! * [`blas1`] / [`blas3`] — vector kernels and GEMM/HERK/TRSM/GEMV.
//! * [`cholesky`] — POTRF and the shifted-CholeskyQR shift formula.
//! * [`qr`] — Householder QR (the HHQR baseline of the paper).
//! * [`heevd`] — Hermitian eigensolver (tridiagonalization + implicit QL).
//! * [`svd`] — one-sided Jacobi singular values (exact condition numbers).
//! * [`lanczos`] — spectral-bound / DoS estimation.

pub mod blas1;
pub mod blas3;
pub mod cholesky;
pub mod heevd;
pub mod lanczos;
mod lanes;
pub mod matrix;
pub mod qr;
pub mod scalar;
pub mod svd;

pub use blas3::{
    gemm, gemm_new, gemm_prepacked, gemv, gram, kernel_isa, prepack_a, trsm_right_upper, Op,
    Prepacked,
};
pub use cholesky::{add_shift, potrf_upper, shifted_cholesky_shift, NotPositiveDefinite};
pub use heevd::{eigvals_tridiagonal, heevd, steqr, tridiagonalize, NoConvergence};
pub use lanczos::{lanczos_block, lanczos_run, LanczosRun, SpectralBounds};
pub use matrix::{ColsMut, ColsRef, Matrix};
pub use qr::{householder_qr, random_orthonormal, HouseholderQr};
pub use scalar::{RealScalar, Scalar, C32, C64};
pub use svd::{cond2, singular_values, JacobiSvd};
