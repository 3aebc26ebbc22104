//! Which microkernel instantiation (`blas3`) this CPU runs, how code gets
//! compiled for it ([`Isa::dispatch`]), and the 512-bit registers the widest
//! one is written against.

/// A microkernel instantiation, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    /// The target's baseline code generation (SSE2 on x86-64).
    Portable,
    /// The same source compiled under
    /// `#[target_feature(enable = "avx2,fma")]`.
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
            // Both: the 256-bit code is `vfmadd*` on `ymm`, and there are CPUs
            // with either feature alone.
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
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

    /// `f`, compiled for this instantiation — so that a `mul_add` in it is
    /// one instruction wherever the CPU has one — and handed the evidence
    /// when that is the 512-bit one. The one place that turns an [`Isa`] into
    /// code: the microkernel and the in-panel sweeps of `trsm`/`potrf` both
    /// come through here, on the [`Isa::current`] their caller read once (so
    /// a fold's tile shape and its kernel are chosen by the same value). Pass
    /// an `#[inline(always)]` closure: what it does is compiled with the
    /// features of the function it is inlined into, and a closure left out of
    /// line runs at the baseline (the same bits, `mul_add` a libm call —
    /// `blas3`'s `dispatched_code_is_compiled_for_its_level` times that).
    #[inline(always)]
    pub(crate) fn dispatch<O>(self, f: impl FnOnce(Option<Avx512>) -> O) -> O {
        // `Isa::current()` never exceeds what detection found; an `Isa` made
        // some other way is held to it here, which is what makes the two
        // calls below sound whatever the caller passes.
        match self.min(Isa::detect()) {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                // SAFETY: the level matched on is at most `Isa::detect()`,
                // which is `Avx512` only when run-time detection found
                // `avx512f` on this CPU, the one requirement of the
                // `#[target_feature]` function called.
                unsafe { x86::under_avx512(f) }
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                // SAFETY: the level matched on is at most `Isa::detect()`,
                // which is `Avx2` or wider only when run-time detection found
                // `avx2` and `fma` on this CPU (`avx512f` implies both), the
                // two requirements of the `#[target_feature]` function called.
                unsafe { x86::under_avx2_fma(f) }
            }
            _ => at_baseline(f),
        }
    }
}

/// `f` at the target's baseline. Out of line like the other two, so that the
/// portable microkernel is compiled on its own: its planar tile loads and
/// stores are then what seeds the vectoriser, one lane per row; inlined into
/// the loop nest, the interleaved stores to `C` seed it instead and the loop
/// fills with shuffles.
#[inline(never)]
fn at_baseline<O>(f: impl FnOnce(Option<Avx512>) -> O) -> O {
    f(None)
}

/// Evidence that the running CPU has AVX-512F; only [`Isa::dispatch`] makes
/// one, on x86-64, behind run-time detection (elsewhere the type is only a
/// name in signatures).
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub struct Avx512(());

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
pub(crate) fn on_each_isa(f: impl FnMut(Isa)) {
    on_each_isa_within(0, f)
}

/// [`on_each_isa`] for a case of `terms` multiply-adds: on a CPU that runs a
/// wider instantiation, the portable one — at the baseline of x86-64 a libm
/// call per real multiply-add — sits out the cases past [`PORTABLE_TERMS`].
/// It shares loop nest and tile shapes with the 256-bit one, so every
/// blocking boundary is still crossed under both shapes.
#[cfg(test)]
pub(crate) fn on_each_isa_within(terms: usize, mut f: impl FnMut(Isa)) {
    for isa in ISAS {
        if isa == Isa::Portable && Isa::detect() > isa && terms > PORTABLE_TERMS {
            continue;
        }
        with_isa(isa, || f(isa));
    }
}

/// Sized so that `cargo test -q` stays within 1.5x of what it took when the
/// portable term was two SSE2 instructions.
#[cfg(test)]
const PORTABLE_TERMS: usize = 1 << 19;

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
pub use x86::Lanes;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Avx512, Element};
    use std::arch::x86_64::*;

    /// `f` compiled with 512-bit registers and `vfmadd*` (`avx512f` implies
    /// `avx2` and `fma`), and handed the evidence.
    #[target_feature(enable = "avx512f")]
    pub(super) fn under_avx512<O>(f: impl FnOnce(Option<Avx512>) -> O) -> O {
        f(Some(Avx512(())))
    }

    /// `f` compiled with 256-bit registers and `vfmadd*`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn under_avx2_fma<O>(f: impl FnOnce(Option<Avx512>) -> O) -> O {
        f(None)
    }

    /// One 512-bit register of `LEN` reals `R` whose only arithmetic is the
    /// fused multiply-add, one IEEE fusedMultiplyAdd per lane: what
    /// `f32::mul_add` / `f64::mul_add` compute, so the 512-bit microkernel
    /// and the array one fold the same term. Only [`Lanes::load`] and
    /// [`Lanes::splat`] make a value, and both ask for an [`Avx512`], so
    /// holding a value is evidence that the CPU has the instructions behind
    /// the other methods.
    pub trait Lanes<R>: Copy {
        const LEN: usize;
        /// The first `LEN` elements of `src`.
        fn load(avx512: Avx512, src: &[R]) -> Self;
        /// `x` in every lane.
        fn splat(avx512: Avx512, x: R) -> Self;
        /// `self * a + c`, rounded once (`vfmadd*`).
        fn mul_add(self, a: Self, c: Self) -> Self;
        /// `-(self * a) + c`, rounded once (`vfnmadd*`): `(-self).mul_add(a, c)`
        /// bit for bit, the negation of a factor being exact.
        fn neg_mul_add(self, a: Self, c: Self) -> Self;
        /// Into the first `LEN` elements of `dst`.
        fn store(self, dst: &mut [R]);
    }

    /// `__m512d` (8 x `f64`) or `__m512` (16 x `f32`) behind [`Lanes`].
    #[derive(Clone, Copy)]
    pub struct Zmm<V>(V);

    macro_rules! zmm_lanes {
        ($r:ty, $v:ty, $len:expr, $load:ident, $set1:ident, $store:ident,
         $fmadd:ident, $fnmadd:ident) => {
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
                fn mul_add(self, a: Self, c: Self) -> Self {
                    // SAFETY: the operands came from `load` or `splat`, which
                    // were shown an `Avx512`: the CPU has the instruction.
                    Zmm(unsafe { $fmadd(self.0, a.0, c.0) })
                }
                #[inline(always)]
                fn neg_mul_add(self, a: Self, c: Self) -> Self {
                    // SAFETY: as for `mul_add`.
                    Zmm(unsafe { $fnmadd(self.0, a.0, c.0) })
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
        };
    }

    zmm_lanes!(
        f64,
        __m512d,
        8,
        _mm512_loadu_pd,
        _mm512_set1_pd,
        _mm512_storeu_pd,
        _mm512_fmadd_pd,
        _mm512_fnmadd_pd
    );
    zmm_lanes!(
        f32,
        __m512,
        16,
        _mm512_loadu_ps,
        _mm512_set1_ps,
        _mm512_storeu_ps,
        _mm512_fmadd_ps,
        _mm512_fnmadd_ps
    );
}
