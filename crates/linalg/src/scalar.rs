//! Scalar abstraction over the four types the ChASE library is templated on:
//! `f32`, `f64`, `Complex<f32>`, `Complex<f64>`.
//!
//! Every dense kernel in this workspace is generic over [`Scalar`], mirroring
//! the C++ template structure of the original library. Real-valued quantities
//! (norms, eigenvalues of Hermitian matrices, Chebyshev bounds) live in the
//! associated [`Scalar::Real`] type.

use num_complex::Complex;
use rand::Rng;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real floating-point scalar (`f32` or `f64`).
///
/// `RealScalar` is the value domain for norms, residuals, eigenvalues of
/// Hermitian operators and all Chebyshev-filter parameters.
pub trait RealScalar:
    Scalar<Real = Self, Lo = <Self as RealScalar>::RLo> + PartialOrd + crate::lanes::Element
{
    /// The demoted real type (`f64 → f32`, `f32 → f32`). Identical to
    /// [`Scalar::Lo`] — the `Lo = Self::RLo` supertrait equality ties them
    /// together — but declared here with the `RealScalar` bound so generic
    /// code can demote real-valued filter bounds and keep comparing them.
    type RLo: RealScalar;

    /// Machine epsilon (unit round-off `u` in the paper's notation is `EPS / 2`).
    const EPS: Self;
    /// Smallest positive normal value.
    const MIN_POS: Self;

    fn sqrt_r(self) -> Self;
    fn abs_r(self) -> Self;
    fn ln_r(self) -> Self;
    fn exp_r(self) -> Self;
    fn powi_r(self, n: i32) -> Self;
    fn max_r(self, other: Self) -> Self;
    fn min_r(self, other: Self) -> Self;
    fn to_f64(self) -> f64;
    fn from_f64_r(x: f64) -> Self;
    fn hypot_r(self, other: Self) -> Self;
    fn copysign_r(self, sign: Self) -> Self;
    fn is_finite_r(self) -> bool;
}

/// A scalar usable as a matrix element: real or complex, single or double.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + 'static
    + Debug
    + Display
    + PartialEq
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
{
    /// The underlying real type (`f32` or `f64`).
    type Real: RealScalar;

    /// The demoted (low-precision) companion type used by the mixed-precision
    /// filter: `f64 → f32`, `Complex<f64> → Complex<f32>`. The 32-bit types
    /// are their own `Lo` so `T::Lo` is always a valid filter scalar and the
    /// demotion lattice has depth one. The `Real = …` equality ties the two
    /// demotion paths together (`T::Lo::Real == T::Real::Lo`), which is what
    /// lets generic code demote `FilterBounds<T::Real>` and hand the result
    /// to a `T::Lo` filter.
    type Lo: Scalar<Real = <Self::Real as Scalar>::Lo>;

    /// `true` for `Complex<_>` instantiations.
    const IS_COMPLEX: bool;

    fn zero() -> Self;
    fn one() -> Self;
    /// Embed a real value.
    fn from_real(r: Self::Real) -> Self;
    /// Rebuild from real and imaginary parts (checkpoint decode); real
    /// types ignore the imaginary part, which callers store as zero.
    fn from_re_im(re: Self::Real, im: Self::Real) -> Self;
    /// Complex conjugate (identity for real types).
    fn conj(self) -> Self;
    /// Real part.
    fn re(self) -> Self::Real;
    /// Imaginary part (zero for real types).
    fn im(self) -> Self::Real;
    /// Modulus `|x|`.
    fn abs(self) -> Self::Real;
    /// Squared modulus `|x|^2`, computed without a square root.
    fn abs_sqr(self) -> Self::Real;
    /// Multiply by a real scalar.
    fn scale(self, r: Self::Real) -> Self;
    /// Principal square root.
    fn sqrt(self) -> Self;
    /// Convenience conversion from `f64` (embeds into the real part).
    fn from_f64(x: f64) -> Self;
    /// Draw from the standard normal distribution; for complex types real and
    /// imaginary parts are independent `N(0, 1/2)` so that `E|x|^2 = 1`.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
    fn is_finite(self) -> bool;

    /// `c + s * a`, fused: the one term everything BLAS-3 in this crate folds
    /// (`blas3`'s microkernel and the in-panel sweeps of `trsm`/`potrf`), so
    /// what it rounds is defined here and nowhere else. Real: one IEEE-754
    /// fusedMultiplyAdd, `s * a + c` rounded once. Complex: four of them, each
    /// component two chained roundings where the unfused product took four —
    ///
    /// ```text
    /// re = fma(-s.im, a.im, fma(s.re, a.re, c.re))
    /// im = fma( s.im, a.re, fma(s.re, a.im, c.im))
    /// ```
    ///
    /// in that order. The term is *not* symmetric in its factors: swapping `s`
    /// and `a` swaps which product of the imaginary part is rounded first, so
    /// `s` is always the factor the loop nest packs from `op(B)` and `a` the
    /// one from `op(A)`. `c - s * a` is `mul_acc(c, -s, a)`, bit for bit:
    /// negating a factor of a fused multiply-add is exact (`fnmadd(x, y, c)`
    /// is `fma(-x, y, c)`, signed zeros included). `mul_add` is exact on every
    /// host — one instruction where the code is compiled with FMA enabled,
    /// libm's `fma` where it is not — so the result does not depend on the
    /// machine, only the speed does.
    fn mul_acc(c: Self, s: Self, a: Self) -> Self;

    /// Narrow to the low-precision companion type. Rust float casts round to
    /// nearest and saturate overflow to `±inf`, so a demoted value is always
    /// well-defined (never UB) — an out-of-range `f64` demotes to an infinity
    /// the guard layer then catches.
    fn demote(self) -> Self::Lo;
    /// Widen a low-precision value back. For every finite `lo`,
    /// `T::promote(lo).demote() == lo` bitwise (widening is exact), which is
    /// the round-trip contract the mixed-precision filter relies on.
    fn promote(lo: Self::Lo) -> Self;
}

/// Box–Muller transform: one standard-normal draw from two uniforms.
#[inline]
fn normal_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

macro_rules! impl_real {
    ($t:ty, $lo:ty) => {
        impl RealScalar for $t {
            type RLo = $lo;
            const EPS: Self = <$t>::EPSILON;
            const MIN_POS: Self = <$t>::MIN_POSITIVE;

            #[inline]
            fn sqrt_r(self) -> Self {
                self.sqrt()
            }
            #[inline]
            fn abs_r(self) -> Self {
                self.abs()
            }
            #[inline]
            fn ln_r(self) -> Self {
                self.ln()
            }
            #[inline]
            fn exp_r(self) -> Self {
                self.exp()
            }
            #[inline]
            fn powi_r(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline]
            fn max_r(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline]
            fn min_r(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64_r(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn hypot_r(self, other: Self) -> Self {
                self.hypot(other)
            }
            #[inline]
            fn copysign_r(self, sign: Self) -> Self {
                self.copysign(sign)
            }
            #[inline]
            fn is_finite_r(self) -> bool {
                self.is_finite()
            }
        }

        impl Scalar for $t {
            type Real = $t;
            type Lo = $lo;
            const IS_COMPLEX: bool = false;

            #[inline]
            fn zero() -> Self {
                0.0
            }
            #[inline]
            fn one() -> Self {
                1.0
            }
            #[inline]
            fn from_real(r: Self::Real) -> Self {
                r
            }
            #[inline]
            fn from_re_im(re: Self::Real, _im: Self::Real) -> Self {
                re
            }
            #[inline]
            fn conj(self) -> Self {
                self
            }
            #[inline]
            fn re(self) -> Self::Real {
                self
            }
            #[inline]
            fn im(self) -> Self::Real {
                0.0
            }
            #[inline]
            fn abs(self) -> Self::Real {
                <$t>::abs(self)
            }
            #[inline]
            fn abs_sqr(self) -> Self::Real {
                self * self
            }
            #[inline]
            fn scale(self, r: Self::Real) -> Self {
                self * r
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
                normal_f64(rng) as $t
            }
            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn mul_acc(c: Self, s: Self, a: Self) -> Self {
                s.mul_add(a, c)
            }
            #[inline]
            fn demote(self) -> Self::Lo {
                self as $lo
            }
            #[inline]
            fn promote(lo: Self::Lo) -> Self {
                lo as $t
            }
        }
    };
}

impl_real!(f32, f32);
impl_real!(f64, f32);

macro_rules! impl_complex {
    ($t:ty, $lo:ty) => {
        impl Scalar for Complex<$t> {
            type Real = $t;
            type Lo = Complex<$lo>;
            const IS_COMPLEX: bool = true;

            #[inline]
            fn zero() -> Self {
                Complex::new(0.0, 0.0)
            }
            #[inline]
            fn one() -> Self {
                Complex::new(1.0, 0.0)
            }
            #[inline]
            fn from_real(r: Self::Real) -> Self {
                Complex::new(r, 0.0)
            }
            #[inline]
            fn from_re_im(re: Self::Real, im: Self::Real) -> Self {
                Complex::new(re, im)
            }
            #[inline]
            fn conj(self) -> Self {
                Complex::new(self.re, -self.im)
            }
            #[inline]
            fn re(self) -> Self::Real {
                self.re
            }
            #[inline]
            fn im(self) -> Self::Real {
                self.im
            }
            #[inline]
            fn abs(self) -> Self::Real {
                self.re.hypot(self.im)
            }
            #[inline]
            fn abs_sqr(self) -> Self::Real {
                self.re * self.re + self.im * self.im
            }
            #[inline]
            fn scale(self, r: Self::Real) -> Self {
                Complex::new(self.re * r, self.im * r)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <Complex<$t>>::sqrt(self)
            }
            #[inline]
            fn from_f64(x: f64) -> Self {
                Complex::new(x as $t, 0.0)
            }
            #[inline]
            fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
                // Variance split so E|x|^2 = 1, matching ChASE's complex
                // random start vectors.
                let s = std::f64::consts::FRAC_1_SQRT_2;
                Complex::new((normal_f64(rng) * s) as $t, (normal_f64(rng) * s) as $t)
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.re.is_finite() && self.im.is_finite()
            }
            #[inline(always)]
            fn mul_acc(c: Self, s: Self, a: Self) -> Self {
                Complex::new(
                    (-s.im).mul_add(a.im, s.re.mul_add(a.re, c.re)),
                    s.im.mul_add(a.re, s.re.mul_add(a.im, c.im)),
                )
            }
            #[inline]
            fn demote(self) -> Self::Lo {
                Complex::new(self.re as $lo, self.im as $lo)
            }
            #[inline]
            fn promote(lo: Self::Lo) -> Self {
                Complex::new(lo.re as $t, lo.im as $t)
            }
        }
    };
}

impl_complex!(f32, f32);
impl_complex!(f64, f32);

/// Shorthand aliases matching the four ChASE template instantiations.
pub type C32 = Complex<f32>;
/// Double-precision complex scalar, the type used in all the paper's tests.
pub type C64 = Complex<f64>;

#[cfg(test)]
#[allow(clippy::assertions_on_constants)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn real_basics() {
        assert_eq!(<f64 as Scalar>::conj(3.0), 3.0);
        assert_eq!(3.0f64.abs_sqr(), 9.0);
        assert_eq!(<f64 as Scalar>::from_real(2.5), 2.5);
        assert!(!<f64 as Scalar>::IS_COMPLEX);
        assert_eq!(2.0f64.scale(3.0), 6.0);
    }

    #[test]
    fn complex_basics() {
        let z = C64::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.abs_sqr(), 25.0);
        assert_eq!(Scalar::conj(z), C64::new(3.0, -4.0));
        assert!(<C64 as Scalar>::IS_COMPLEX);
        let w = z.scale(2.0);
        assert_eq!(w, C64::new(6.0, 8.0));
    }

    #[test]
    fn conj_is_involution() {
        let z = C64::new(1.25, -0.5);
        assert_eq!(Scalar::conj(Scalar::conj(z)), z);
    }

    #[test]
    fn sample_standard_statistics() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let n = 20_000;
        let mut mean = C64::zero();
        let mut pow = 0.0f64;
        for _ in 0..n {
            let z = C64::sample_standard(&mut rng);
            mean += z;
            pow += z.abs_sqr();
        }
        let mean = mean.scale(1.0 / n as f64);
        assert!(mean.abs() < 0.02, "mean {mean}");
        let pow = pow / n as f64;
        assert!((pow - 1.0).abs() < 0.03, "E|x|^2 {pow}");
    }

    #[test]
    fn sample_standard_real_statistics() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let n = 20_000;
        let mut mean = 0.0f64;
        let mut pow = 0.0f64;
        for _ in 0..n {
            let x = f64::sample_standard(&mut rng);
            mean += x;
            pow += x * x;
        }
        assert!((mean / n as f64).abs() < 0.02);
        assert!((pow / n as f64 - 1.0).abs() < 0.04);
    }

    #[test]
    fn eps_constants() {
        assert!(f64::EPS < 1e-15);
        assert!(f32::EPS < 1e-6);
        assert!(f32::EPS > 1e-8);
    }

    /// Widening is exact: for any finite `lo`, `promote(lo).demote() == lo`
    /// bitwise. This is the contract the mixed-precision filter relies on
    /// when it promotes a low-precision iterate back into the f64 block.
    #[test]
    fn promote_demote_round_trip_is_lossless() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for _ in 0..10_000 {
            let lo = C32::sample_standard(&mut rng).scale(1e3f32);
            let rt = C64::promote(lo).demote();
            assert_eq!(rt.re.to_bits(), lo.re.to_bits());
            assert_eq!(rt.im.to_bits(), lo.im.to_bits());

            let lr = f32::sample_standard(&mut rng) * 1e-3;
            assert_eq!(f64::promote(lr).demote().to_bits(), lr.to_bits());
        }
        // Edge values survive too (signed zero, subnormal, infinities).
        for lo in [0.0f32, -0.0, f32::MIN_POSITIVE / 2.0, f32::INFINITY] {
            assert_eq!(f64::promote(lo).demote().to_bits(), lo.to_bits());
        }
    }

    /// Demotion saturates: an f64 beyond f32 range becomes an infinity the
    /// guard layer can detect, never UB or garbage bits.
    #[test]
    fn demote_saturates_overflow() {
        assert!(1e39f64.demote().is_infinite());
        assert!((-1e39f64).demote().is_infinite());
        assert!(!1e39f64.demote().is_finite());
        let z = C64::new(1e39, 0.5).demote();
        assert!(!Scalar::is_finite(z));
        // Identity for the 32-bit self-Lo types.
        let w = C32::new(1.5, -2.5);
        assert_eq!(w.demote(), w);
        assert_eq!(C32::promote(w), w);
    }
}
