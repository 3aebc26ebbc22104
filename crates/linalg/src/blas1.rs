//! Level-1 kernels: dot products, norms, axpy, scaling.
//!
//! These are the building blocks the RESIDUAL stage of ChASE keeps as BLAS-1
//! calls (Algorithm 2, lines 22–25).

use crate::scalar::{RealScalar, Scalar};

/// Conjugated dot product `x^H y`.
#[inline]
pub fn dotc<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::zero();
    for (a, b) in x.iter().zip(y) {
        acc += a.conj() * *b;
    }
    acc
}

/// Unconjugated dot product `x^T y`.
#[inline]
pub fn dotu<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::zero();
    for (a, b) in x.iter().zip(y) {
        acc += *a * *b;
    }
    acc
}

/// Squared Euclidean norm, accumulated in the real type.
#[inline]
pub fn nrm2_sqr<T: Scalar>(x: &[T]) -> T::Real {
    let mut acc = <T::Real as Scalar>::zero();
    for a in x {
        acc += a.abs_sqr();
    }
    acc
}

/// Euclidean norm.
#[inline]
pub fn nrm2<T: Scalar>(x: &[T]) -> T::Real {
    nrm2_sqr(x).sqrt_r()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (a, b) in x.iter().zip(y.iter_mut()) {
        *b += alpha * *a;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for a in x {
        *a *= alpha;
    }
}

/// `x *= alpha` with a real scaling factor (cheaper for complex data).
#[inline]
pub fn rscal<T: Scalar>(alpha: T::Real, x: &mut [T]) {
    for a in x {
        *a = a.scale(alpha);
    }
}

/// `y = x`.
#[inline]
pub fn copy<T: Scalar>(x: &[T], y: &mut [T]) {
    y.copy_from_slice(x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;

    #[test]
    fn dotc_conjugates_left() {
        let x = [C64::new(0.0, 1.0)];
        let y = [C64::new(0.0, 1.0)];
        assert_eq!(dotc(&x, &y), C64::new(1.0, 0.0));
        assert_eq!(dotu(&x, &y), C64::new(-1.0, 0.0));
    }

    #[test]
    fn norms() {
        let x = [3.0f64, 4.0];
        assert_eq!(nrm2(&x), 5.0);
        assert_eq!(nrm2_sqr(&x), 25.0);
        let z = [C64::new(3.0, 4.0)];
        assert_eq!(nrm2(&z), 5.0);
    }

    #[test]
    fn axpy_scal() {
        let x = [1.0f64, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
        rscal(2.0, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }
}
