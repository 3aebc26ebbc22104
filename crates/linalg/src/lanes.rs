//! Which microkernel instantiation (`blas3`) this CPU runs, and the 512-bit
//! registers the widest one is written against.

/// A microkernel instantiation, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    /// The target's baseline code generation (SSE2 on x86-64).
    Portable,
    /// The same source compiled under `#[target_feature(enable = "avx2")]`.
    Avx2,
    /// 512-bit registers through `std::arch`, under `avx512f`.
    Avx512,
}

impl Isa {
    /// The widest instantiation this CPU runs.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }

    /// The instantiation the kernels take on this thread: the widest the CPU
    /// runs (under test, the widest a surrounding [`with_isa`] allows).
    pub(crate) fn current() -> Isa {
        #[cfg(test)]
        if let Some(cap) = ISA_CAP.get() {
            return cap.min(Isa::detect());
        }
        Isa::detect()
    }
}

#[cfg(test)]
thread_local! {
    static ISA_CAP: std::cell::Cell<Option<Isa>> = const { std::cell::Cell::new(None) };
}

/// Every instantiation, for tests that run each one the host has.
#[cfg(test)]
pub(crate) const ISAS: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

/// Run `f` with the kernels on this thread held to `isa`; `None`, and a line
/// saying so, on a CPU that does not run it.
#[cfg(test)]
pub(crate) fn with_isa<O>(isa: Isa, f: impl FnOnce() -> O) -> Option<O> {
    if isa > Isa::detect() {
        println!("skipped: this CPU has no {isa:?}");
        return None;
    }
    let outer = ISA_CAP.replace(Some(isa));
    let out = f();
    ISA_CAP.set(outer);
    Some(out)
}

/// Run `f` once under every instantiation this CPU runs.
#[cfg(test)]
pub(crate) fn on_each_isa(mut f: impl FnMut(Isa)) {
    for isa in ISAS {
        with_isa(isa, || f(isa));
    }
}

/// The reals the kernels pack (`f32`, `f64`): a supertrait of `RealScalar`
/// that names each one's 512-bit register, implemented here and nowhere else.
pub trait Element: Sized {
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    type Zmm: Lanes<Self>;
}

#[cfg(not(target_arch = "x86_64"))]
impl Element for f32 {}
#[cfg(not(target_arch = "x86_64"))]
impl Element for f64 {}

#[cfg(target_arch = "x86_64")]
pub use x86::{Avx512, Lanes};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Element;
    use std::arch::x86_64::*;
    use std::ops::{Add, Mul, Sub};

    /// Evidence that the running CPU has AVX-512F.
    #[derive(Clone, Copy)]
    pub struct Avx512(());

    impl Avx512 {
        /// A safe call only from code compiled with `avx512f` enabled, which
        /// in turn is reached only behind a run-time detection of the feature.
        #[target_feature(enable = "avx512f")]
        pub(crate) fn enabled_here() -> Self {
            Avx512(())
        }
    }

    /// One 512-bit register of `LEN` reals `R` with lane-wise `*`, `+` and
    /// `-`, each one IEEE operation per lane (never a fused multiply-add).
    /// Only [`Lanes::load`] and [`Lanes::splat`] make a value, and both ask
    /// for an [`Avx512`], so holding a value is evidence that the CPU has
    /// the instructions behind the other methods.
    pub trait Lanes<R>:
        Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self>
    {
        const LEN: usize;
        /// The first `LEN` elements of `src`.
        fn load(avx512: Avx512, src: &[R]) -> Self;
        /// `x` in every lane.
        fn splat(avx512: Avx512, x: R) -> Self;
        /// Into the first `LEN` elements of `dst`.
        fn store(self, dst: &mut [R]);
    }

    /// `__m512d` (8 x `f64`) or `__m512` (16 x `f32`) behind [`Lanes`].
    #[derive(Clone, Copy)]
    pub struct Zmm<V>(V);

    macro_rules! zmm_lanes {
        ($r:ty, $v:ty, $len:expr, $load:ident, $set1:ident, $store:ident,
         $add:ident, $sub:ident, $mul:ident) => {
            impl Element for $r {
                type Zmm = Zmm<$v>;
            }

            impl Lanes<$r> for Zmm<$v> {
                const LEN: usize = $len;
                #[inline(always)]
                fn load(_: Avx512, src: &[$r]) -> Self {
                    let src: &[$r; $len] = src[..$len].try_into().expect("LEN reals");
                    // SAFETY: the `Avx512` argument shows the CPU has the
                    // instruction; it reads `LEN` reals from an array of
                    // `LEN` and asks for no alignment.
                    Zmm(unsafe { $load(src.as_ptr()) })
                }
                #[inline(always)]
                fn splat(_: Avx512, x: $r) -> Self {
                    // SAFETY: the `Avx512` argument shows the CPU has the
                    // instruction.
                    Zmm(unsafe { $set1(x) })
                }
                #[inline(always)]
                fn store(self, dst: &mut [$r]) {
                    let dst: &mut [$r; $len] = (&mut dst[..$len]).try_into().expect("LEN reals");
                    // SAFETY: `self` came from `load` or `splat`, which were
                    // shown an `Avx512`; it writes `LEN` reals into an array
                    // of `LEN` and asks for no alignment.
                    unsafe { $store(dst.as_mut_ptr(), self.0) }
                }
            }

            zmm_lanes!(@op $v, Add, add, $add);
            zmm_lanes!(@op $v, Sub, sub, $sub);
            zmm_lanes!(@op $v, Mul, mul, $mul);
        };
        (@op $v:ty, $op:ident, $f:ident, $intrinsic:ident) => {
            impl $op for Zmm<$v> {
                type Output = Self;
                #[inline(always)]
                fn $f(self, rhs: Self) -> Self {
                    // SAFETY: both operands came from `load` or `splat`,
                    // which were shown an `Avx512`: the CPU has the
                    // instruction.
                    Zmm(unsafe { $intrinsic(self.0, rhs.0) })
                }
            }
        };
    }

    zmm_lanes!(
        f64,
        __m512d,
        8,
        _mm512_loadu_pd,
        _mm512_set1_pd,
        _mm512_storeu_pd,
        _mm512_add_pd,
        _mm512_sub_pd,
        _mm512_mul_pd
    );
    zmm_lanes!(
        f32,
        __m512,
        16,
        _mm512_loadu_ps,
        _mm512_set1_ps,
        _mm512_storeu_ps,
        _mm512_add_ps,
        _mm512_sub_ps,
        _mm512_mul_ps
    );
}
