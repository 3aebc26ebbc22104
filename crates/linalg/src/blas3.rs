//! Level-2/3 kernels: GEMM/HEMM, Gram (HERK), triangular solve, GEMV.
//!
//! GEMM is the workhorse of ChASE (Section 1 of the paper): the Chebyshev
//! filter, the Rayleigh–Ritz quotient and the residual stage are all expressed
//! through it. It is one GotoBLAS/BLIS-shaped loop nest:
//!
//! ```text
//! for jc in 0..n step NC          columns of C / op(B) packed at once
//!   for pc in 0..k step KC        pack s = alpha*op(B)[pc.., jc..] into NR-column micro-panels
//!     for ic in 0..m step MC      pack op(A)[ic.., pc..] into MR-row micro-panels
//!       for jr in 0..nc step NR   (or take them from `prepack_a`)
//!         for ir in 0..mc step MR
//!           microkernel: the MR x NR tile of C stays in registers for all kc terms
//! ```
//!
//! Transposition and conjugation are folded into the packing, and packed
//! operands keep real and imaginary parts in separate planes, so the
//! microkernel is plain lane-wise fused multiply-adds on `T::Real` arrays
//! that the compiler vectorises without shuffles: rows of `C` in the lanes,
//! `s` broadcast.
//!
//! Its tile has a second orientation, for narrow products. Packing `op(A)`
//! is a pass over all of it, paid back once per `NR`-column micro-panel of
//! `s` the packed block serves; a one-shot fold whose `s` spans at most
//! `IN_PLACE_PANELS` micro-panels (the filter's narrow steps, block
//! Lanczos, late Rayleigh–Ritz and residual products, the narrow passes of
//! TRSM and POTRF) reads `op(A)` in place instead ([`gemm_in_place`]): `s`
//! is packed as above, the tile is `RT` rows by `NR` columns with the
//! *columns* of `C` in the lanes, `s` loaded and `a` broadcast from where
//! `A` is stored, and `A` is read column by column. A fold over a
//! `prepack_a` operand, or over part of `C` only, stays packed. The pack
//! buffers are per thread, reused across calls and freed with the thread;
//! they hold at most `MC*KC + KC*NC` elements (plus `KC*NC/NR` zero flags)
//! whatever the operand shapes, in either orientation — there is no
//! `m x k` copy.
//!
//! The fold contract (spelled out on [`gemm`]): per element of `C` the `k`
//! terms are folded in ascending order, each one fused term
//! ([`Scalar::mul_acc`]: one rounding per real multiply-add), terms with a
//! zero `alpha*op(B)` factor skipped. Blocking reorders the *traversal*,
//! never a per-element sum, so the result is a pure function of the inputs:
//! independent of tile boundaries, of how a caller splits `C` into column
//! panels (the filter's overlapped pipeline relies on that), and of the
//! vector width, and of the orientation: both fold `mul_acc(c, s, a)` with
//! `s` from `op(B)`, `l` ascending, and only which operand sits in the lanes
//! differs. Each orientation's microkernel has three instantiations — one
//! array source compiled portably and with AVX2 and FMA enabled, and the
//! same loop on 512-bit registers under `avx512f` — the widest the CPU runs
//! chosen per call by run-time detection, together with its tile shape
//! ([`kernel_isa`]), and all give the same bits, because a fused multiply-add
//! is exact wherever it runs (one instruction, or libm's `fma` on a CPU
//! without one): wider vectors yes, one fused term everywhere,
//! re-association never.
//!
//! One loop nest, three more callers: [`gram`], [`trsm_right_upper`] and
//! `potrf_upper` run their BLAS-3 part through the same nest and microkernel
//! as [`gemm`], each with its own [`Fold`] (which `s`, which terms, which
//! tiles) and each bit for bit the scalar sweep of the same fused term. A
//! pass that subtracts packs `-s`: `c - s*a` and `c + (-s)*a` are the same
//! fused operations argument for argument, signed zeros included.

use crate::lanes::{Avx512, Isa};
#[cfg(target_arch = "x86_64")]
use crate::lanes::{Element, Lanes};
use crate::matrix::{ColsMut, ColsRef, Matrix};
use crate::scalar::Scalar;
use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;

/// Transpose operation applied to a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    None,
    /// Plain transpose.
    Trans,
    /// Conjugate transpose (the `H` in `H^H B`, Algorithm 2).
    ConjTrans,
}

/// Cache blocking: an `MC x KC` block of packed `op(A)` (512 KiB at C64,
/// L2-resident) is reused across `NC` columns; the `KC`-deep micro-panel of
/// `op(B)` (at most 32 KiB at C64) stays in L1 under the microkernel while
/// the micro-panels of `op(A)` stream past it. `NC` is
/// the widest slice of `op(B)` packed at once; wider inputs are panelled, and
/// every panel packs each block of `op(A)` again — so `NC` covers the widest
/// active block a solve of half the matrix filters (160 columns of 320). The
/// `op(B)` buffer is sized by the call, not by `NC`.
const MC: usize = 128;
const KC: usize = 256;
const NC: usize = 256;

/// Run `$body` with `MR` and `NR` bound to the microkernel tile shape for
/// `$t` on the instantiation named (`Portable`, `Avx2`, `Avx512`) — one
/// shape per scalar width and kind of lanes, the fastest measured with clean
/// code generation (EXPERIMENTS.md "Fused fold"). What bounds the fused loop
/// is latency, not ports: a complex accumulator carries two dependent fused
/// multiply-adds per `l` (8 cycles), so a tile needs 16 accumulator registers
/// to keep two FMA ports busy. 512-bit registers have the room: one register
/// per plane of a tile column, 8 x 8 and 16 x 8 (16 x 4 with two registers a
/// plane streams twice the `op(A)` per term from L2 and loses a third). A
/// product narrower than `NR` pays for the padding — block Lanczos' four
/// columns run the full eight — and a second, narrower shape for it was
/// measured and dropped: `core.lanczos_s` 7 to 19 % better, `solve_s`
/// unresolved, the nest's monomorphs doubled.
/// Array lanes (portable, AVX2 + FMA) have 16 registers in all: 4 x 4 on
/// 64-bit reals (at C64 eight accumulator vectors, leaving room for the two
/// planes of an `op(A)` column and the broadcast `s`; every wider shape
/// spills), 16 x 4 on 32-bit reals. `$body` is compiled for both widths
/// whatever `$t` is; only the one of `$t`'s width ever runs.
macro_rules! with_tile {
    ($t:ty, Avx512, $mr:ident, $nr:ident => $body:expr) => {
        with_tile!(@by_width $t, (16, 8), (8, 8), $mr, $nr => $body)
    };
    ($t:ty, Avx2, $mr:ident, $nr:ident => $body:expr) => {
        with_tile!(@by_width $t, (16, 4), (4, 4), $mr, $nr => $body)
    };
    ($t:ty, Portable, $mr:ident, $nr:ident => $body:expr) => {
        with_tile!($t, Avx2, $mr, $nr => $body)
    };
    (@by_width $t:ty, ($mr4:expr, $nr4:expr), ($mr8:expr, $nr8:expr),
     $mr:ident, $nr:ident => $body:expr) => {
        if size_of::<<$t as Scalar>::Real>() == 4 {
            const $mr: usize = $mr4;
            const $nr: usize = $nr4;
            $body
        } else {
            const $mr: usize = $mr8;
            const $nr: usize = $nr8;
            $body
        }
    };
}

/// [`with_tile!`] for the instantiation `$isa`.
macro_rules! with_tile_of {
    ($isa:expr, $t:ty, $mr:ident, $nr:ident => $body:expr) => {
        match $isa {
            Isa::Avx512 => with_tile!($t, Avx512, $mr, $nr => $body),
            Isa::Avx2 => with_tile!($t, Avx2, $mr, $nr => $body),
            Isa::Portable => with_tile!($t, Portable, $mr, $nr => $body),
        }
    };
}

/// The microkernel instantiation this CPU runs for `T`, with its tile shape
/// and how its fused multiply-add is compiled: what the speed of everything
/// BLAS-3 here depends on, for a solve's log. A portable instantiation built
/// without FMA at compile time (any x86-64 build that does not ask for it)
/// calls libm's `fma` once per real multiply-add — the same bits an order of
/// magnitude slower, and the name says so.
pub fn kernel_isa<T: Scalar>() -> &'static str {
    const LIBM: bool = cfg!(all(target_arch = "x86_64", not(target_feature = "fma")));
    match (Isa::current(), size_of::<T::Real>(), LIBM) {
        (Isa::Avx512, 4, _) => "avx512f 16x8 fma",
        (Isa::Avx512, _, _) => "avx512f 8x8 fma",
        (Isa::Avx2, 4, _) => "avx2 16x4 fma",
        (Isa::Avx2, _, _) => "avx2 4x4 fma",
        (Isa::Portable, 4, false) => "portable 16x4 fma",
        (Isa::Portable, _, false) => "portable 4x4 fma",
        (Isa::Portable, 4, true) => "portable 16x4 libm-fma",
        (Isa::Portable, _, true) => "portable 4x4 libm-fma",
    }
}

/// `(rows, cols)` of `op(X)`.
fn op_shape<T: Scalar>(op: Op, x: ColsRef<'_, T>) -> (usize, usize) {
    match op {
        Op::None => (x.rows(), x.cols()),
        _ => (x.cols(), x.rows()),
    }
}

/// Number of `T::Real` planes in a packed operand.
const fn planes<T: Scalar>() -> usize {
    if T::IS_COMPLEX {
        2
    } else {
        1
    }
}

/// `op(A)` resolved once for reuse across many GEMM calls. The overlapped
/// filter pipeline splits one logical GEMM into column panels; prepacking
/// pays the packing of `op(A)` per *step* instead of per *panel*. A
/// prepacked operand always takes the packed orientation, however narrow
/// the product; a one-shot [`gemm`] of a few micro-panels of `s` reads
/// `op(A)` in place and packs nothing of it.
pub struct Prepacked<'a, T: Scalar> {
    opa: Op,
    a: ColsRef<'a, T>,
    m: usize,
    k: usize,
    /// Every `(pc, ic)` block of `op(A)` in micro-panel order, back to
    /// back, with the `MR` the micro-panels were laid out for: a pass whose
    /// instantiation has another `MR` packs for itself. `None` for the
    /// one-shot [`gemm`], which packs block by block into the thread's
    /// buffer instead of allocating an `m x k` copy.
    panels: Option<(usize, Vec<T::Real>)>,
}

impl<'a, T: Scalar> Prepacked<'a, T> {
    fn borrowed(opa: Op, a: ColsRef<'a, T>) -> Self {
        let (m, k) = op_shape(opa, a);
        Prepacked {
            opa,
            a,
            m,
            k,
            panels: None,
        }
    }

    /// Only the first `k` columns of `op(A)`: the terms `l < k` of the fold.
    fn first_k(mut self, k: usize) -> Self {
        assert!(k <= self.k, "first_k: op(A) has only {} columns", self.k);
        self.k = k;
        self
    }

    /// Rows of `op(A)`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns of `op(A)` (the GEMM inner dimension).
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Pack `op(A)` once, up front.
pub fn prepack_a<T: Scalar>(opa: Op, a: ColsRef<'_, T>) -> Prepacked<'_, T> {
    let mut p = Prepacked::borrowed(opa, a);
    p.panels = Some(with_tile_of!(Isa::current(), T, MR, _NR => (MR, pack_a_all::<T, MR>(&p))));
    p
}

/// Offset and length of block `(pc, ic)` in [`Prepacked::panels`]: blocks
/// are laid out `pc`-major and every row block is padded to whole
/// micro-panels, so a `kc`-deep slice holds `round_up(m, MR) * kc` elements.
fn a_block_span<T: Scalar, const MR: usize>(
    m: usize,
    (pc, kc): (usize, usize),
    (ic, mc): (usize, usize),
) -> (usize, usize) {
    const {
        assert!(
            MC.is_multiple_of(MR),
            "row blocks must start on a micro-panel"
        )
    };
    let p = planes::<T>();
    (
        p * (pc * m.next_multiple_of(MR) + ic * kc),
        p * mc.next_multiple_of(MR) * kc,
    )
}

fn pack_a_all<T: Scalar, const MR: usize>(a: &Prepacked<'_, T>) -> Vec<T::Real> {
    let (m, k) = (a.m, a.k);
    let zero = <T::Real as Scalar>::zero();
    let mut out = vec![zero; planes::<T>() * m.next_multiple_of(MR) * k];
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            let (off, len) = a_block_span::<T, MR>(m, (pc, kc), (ic, mc));
            pack_a_block::<T, MR>(a.opa, a.a, (ic, mc), (pc, kc), &mut out[off..off + len]);
        }
    }
    out
}

/// Pack the `mc x kc` block of `op(A)` at `(ic, pc)` into `MR`-row
/// micro-panels: panel `p` holds rows `ic + p*MR ..`, and for each `l` its
/// `MR` real parts then (complex only) its `MR` imaginary parts. Rows past
/// `mc` are zero; their products land in tile rows that are never stored.
fn pack_a_block<T: Scalar, const MR: usize>(
    opa: Op,
    a: ColsRef<'_, T>,
    (ic, mc): (usize, usize),
    (pc, kc): (usize, usize),
    out: &mut [T::Real],
) {
    let p = planes::<T>();
    let zero = <T::Real as Scalar>::zero();
    for (ip, panel) in out.chunks_exact_mut(kc * p * MR).enumerate() {
        let i0 = ic + ip * MR;
        let mr = MR.min(ic + mc - i0);
        if mr < MR {
            panel.fill(zero);
        }
        match opa {
            Op::None => {
                for (l, dst) in panel.chunks_exact_mut(p * MR).enumerate() {
                    let src = &a.col(pc + l)[i0..i0 + mr];
                    for (ii, v) in src.iter().enumerate() {
                        dst[ii] = v.re();
                        if T::IS_COMPLEX {
                            dst[MR + ii] = v.im();
                        }
                    }
                }
            }
            Op::Trans | Op::ConjTrans => {
                // op(A)[i, l] = A[l, i]: row i of the panel is a contiguous
                // stretch of column i of A. Read as `mr` streams side by
                // side, so that the panel is written once, front to back.
                let rows: [&[T]; MR] = std::array::from_fn(|ii| match ii < mr {
                    true => &a.col(i0 + ii)[pc..pc + kc],
                    false => &[][..],
                });
                for (l, dst) in panel.chunks_exact_mut(p * MR).enumerate() {
                    for (ii, row) in rows[..mr].iter().enumerate() {
                        let v = row[l];
                        dst[ii] = v.re();
                        if T::IS_COMPLEX {
                            dst[MR + ii] = if opa == Op::ConjTrans {
                                -v.im()
                            } else {
                                v.im()
                            };
                        }
                    }
                }
            }
        }
    }
}

/// What one pass of the loop nest folds into `C`, beyond the operands: all
/// that differs between [`gemm`] and the three CholeskyQR kernels.
#[derive(Clone, Copy)]
struct Fold<T> {
    /// The `s` of the term `C[i, j] += s * a`, from `op(B)[l, j]`.
    s: Factor<T>,
    /// Skip the terms whose `s` is zero.
    skip_zeros: bool,
    /// Which tiles of `C` are visited.
    tiles: Tiles,
}

/// How a pass gets its `s` from `b = op(B)[l, j]`.
#[derive(Clone, Copy)]
enum Factor<T> {
    /// `alpha * b`.
    Times(T),
    /// `b` as stored (for complex `T`, `1 * b` is not `b` when a part is
    /// `-0`, `inf` or `NaN`).
    Stored,
    /// `-b`: the pass subtracts, `C[i, j] -= b * a`, exactly (see
    /// [`Scalar::mul_acc`]).
    Negated,
}

/// The part of `C` a pass computes, tile by tile.
#[derive(Clone, Copy, PartialEq)]
enum Tiles {
    All,
    /// Only the tiles that hold an entry on or above `C`'s diagonal.
    Upper,
    /// Only the tiles that hold an entry on or below `C`'s diagonal.
    Lower,
}

/// Pack the fold's `s` (`alpha * op(B)[l, j]`, or `op(B)[l, j]` as stored or
/// negated) for the `kc x nc` block at `(pc, jc)` into `NR`-column micro-panels (same
/// plane layout as `op(A)`), and, if the fold skips zeros, flag in `skip`
/// each `l` of each panel where some `s` is zero: those terms are skipped,
/// so the microkernel takes its per-column path for that `l`. Columns past
/// `nc` are zero and unflagged; they feed tile columns that are never
/// stored.
fn pack_b_block<T: Scalar, const NR: usize>(
    opb: Op,
    fold: Fold<T>,
    b: ColsRef<'_, T>,
    (pc, kc): (usize, usize),
    (jc, nc): (usize, usize),
    out: &mut [T::Real],
    skip: &mut [bool],
) {
    let p = planes::<T>();
    let zero = <T::Real as Scalar>::zero();
    let panels = out
        .chunks_exact_mut(kc * p * NR)
        .zip(skip.chunks_exact_mut(kc));
    for (jp, (panel, skip)) in panels.enumerate() {
        let j0 = jc + jp * NR;
        let nr = NR.min(jc + nc - j0);
        if nr < NR {
            panel.fill(zero);
        }
        skip.fill(false);
        for jj in 0..nr {
            for (l, (dst, skip)) in panel.chunks_exact_mut(p * NR).zip(&mut *skip).enumerate() {
                let stored = match opb {
                    Op::None => b.at(pc + l, j0 + jj),
                    Op::Trans => b.at(j0 + jj, pc + l),
                    Op::ConjTrans => b.at(j0 + jj, pc + l).conj(),
                };
                let s = match fold.s {
                    Factor::Times(alpha) => alpha * stored,
                    Factor::Stored => stored,
                    Factor::Negated => -stored,
                };
                dst[jj] = s.re();
                if T::IS_COMPLEX {
                    dst[NR + jj] = s.im();
                }
                *skip |= fold.skip_zeros && s == T::zero();
            }
        }
    }
}

/// The 512-bit register of `T`'s reals.
#[cfg(target_arch = "x86_64")]
type Zmm<T> = <<T as Scalar>::Real as Element>::Zmm;

/// The accumulators of one `MR x NR` tile of `C`, planes apart like the
/// packed operands (`im` stays zero for real `T`).
struct Tile<R, const MR: usize, const NR: usize> {
    re: [[R; MR]; NR],
    im: [[R; MR]; NR],
}

/// `tile[j][i] = mul_acc(tile[j][i], s[l, j], a[i, l])` over one micro-panel
/// pair, `l` ascending, with the accumulators in registers across the whole
/// loop: the array source of the portable and the 256-bit instantiation.
#[inline(always)]
fn microkernel_arrays<T: Scalar, const MR: usize, const NR: usize>(
    ap: &[T::Real],
    bp: &[T::Real],
    skip: &[bool],
    tile: &mut Tile<T::Real, MR, NR>,
) {
    let p = planes::<T>();
    let zero = <T::Real as Scalar>::zero();
    let (mut cre, mut cim) = (tile.re, tile.im);
    let terms = ap
        .chunks_exact(p * MR)
        .zip(bp.chunks_exact(p * NR))
        .zip(skip);
    for ((a, s), &skip) in terms {
        let are: &[T::Real; MR] = a[..MR].try_into().expect("MR reals");
        let aim: &[T::Real; MR] = a[(p - 1) * MR..].try_into().expect("MR reals");
        let sre: &[T::Real; NR] = s[..NR].try_into().expect("NR reals");
        let sim: &[T::Real; NR] = s[(p - 1) * NR..].try_into().expect("NR reals");
        for j in 0..NR {
            // Zero-skip, part of the fold contract; `skip` (set while
            // packing) keeps the test off every `l` that has no zero.
            if skip && sre[j] == zero && (!T::IS_COMPLEX || sim[j] == zero) {
                continue;
            }
            let s = T::from_re_im(sre[j], sim[j]);
            for i in 0..MR {
                let c = T::from_re_im(cre[j][i], cim[j][i]);
                let c = T::mul_acc(c, s, T::from_re_im(are[i], aim[i]));
                (cre[j][i], cim[j][i]) = (c.re(), c.im());
            }
        }
    }
    (tile.re, tile.im) = (cre, cim);
}

/// [`microkernel_arrays`] term for term with each plane of a tile column one
/// 512-bit register (`MR` is its lane count) and each [`Scalar::mul_acc`] of
/// `MR` rows the same fused multiply-adds in the same order, one `std::arch`
/// intrinsic each (`vfmadd*`, `vfnmadd*`) — hence the same bits. Written out,
/// because the array source compiled under `avx512f` comes out of the
/// vectoriser full of cross-lane shuffles (DESIGN.md §3).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn microkernel_zmm<T: Scalar, const MR: usize, const NR: usize>(
    avx512: Avx512,
    ap: &[T::Real],
    bp: &[T::Real],
    skip: &[bool],
    tile: &mut Tile<T::Real, MR, NR>,
) {
    let load = |src: &[T::Real]| <Zmm<T> as Lanes<T::Real>>::load(avx512, src);
    let splat = |x: T::Real| <Zmm<T> as Lanes<T::Real>>::splat(avx512, x);
    assert_eq!(MR, <Zmm<T> as Lanes<T::Real>>::LEN, "one register a plane");
    let p = planes::<T>();
    let zero = <T::Real as Scalar>::zero();
    let mut cre: [Zmm<T>; NR] = std::array::from_fn(|j| load(&tile.re[j]));
    let mut cim: [Zmm<T>; NR] = std::array::from_fn(|j| load(&tile.im[j]));
    let terms = ap
        .chunks_exact(p * MR)
        .zip(bp.chunks_exact(p * NR))
        .zip(skip);
    for ((a, s), &skip) in terms {
        let (are, aim) = (load(&a[..MR]), load(&a[(p - 1) * MR..]));
        let sre: &[T::Real; NR] = s[..NR].try_into().expect("NR reals");
        let sim: &[T::Real; NR] = s[(p - 1) * NR..].try_into().expect("NR reals");
        for j in 0..NR {
            if skip && sre[j] == zero && (!T::IS_COMPLEX || sim[j] == zero) {
                continue;
            }
            let (sre_j, sim_j) = (splat(sre[j]), splat(sim[j]));
            if T::IS_COMPLEX {
                cre[j] = sim_j.neg_mul_add(aim, sre_j.mul_add(are, cre[j]));
                cim[j] = sim_j.mul_add(are, sre_j.mul_add(aim, cim[j]));
            } else {
                cre[j] = sre_j.mul_add(are, cre[j]);
            }
        }
    }
    for j in 0..NR {
        cre[j].store(&mut tile.re[j]);
        cim[j].store(&mut tile.im[j]);
    }
}

/// The microkernel: one source per kind of lanes, compiled for the
/// instantiation `isa` — the one that chose `MR` and `NR` — and chosen with
/// it.
fn microkernel<T: Scalar, const MR: usize, const NR: usize>(
    isa: Isa,
    ap: &[T::Real],
    bp: &[T::Real],
    skip: &[bool],
    tile: &mut Tile<T::Real, MR, NR>,
) {
    isa.dispatch(
        #[inline(always)]
        |avx512| match avx512 {
            #[cfg(target_arch = "x86_64")]
            Some(avx512) => microkernel_zmm::<T, MR, NR>(avx512, ap, bp, skip, tile),
            _ => microkernel_arrays::<T, MR, NR>(ap, bp, skip, tile),
        },
    )
}

/// The in-place orientation's microkernel, array source: `acc` holds `RT`
/// rows of `C` by `NR` columns lane-major (`[plane][row][column]`), and
/// `acc[i][j] = mul_acc(acc[i][j], s[l, j], a_at(l, i))` (`a_at(l, i)`
/// conjugated if `conj`) for the `l` of one `NR`-column micro-panel of `s`,
/// ascending — [`microkernel_arrays`] term for term with the columns in the
/// lanes and `a` broadcast. A zero `s` skips its term in its own lane only.
#[inline(always)]
fn in_place_arrays<T: Scalar, const RT: usize, const NR: usize>(
    a_at: impl Fn(usize, usize) -> T,
    conj: bool,
    bp: &[T::Real],
    skip: &[bool],
    acc: &mut [T::Real],
) {
    let p = planes::<T>();
    let zero = <T::Real as Scalar>::zero();
    let im = (p - 1) * RT * NR;
    let mut cre: [[T::Real; NR]; RT] =
        std::array::from_fn(|i| acc[i * NR..][..NR].try_into().expect("NR reals"));
    let mut cim: [[T::Real; NR]; RT] =
        std::array::from_fn(|i| acc[im + i * NR..][..NR].try_into().expect("NR reals"));
    for (l, (s, &skip)) in bp.chunks_exact(p * NR).zip(skip).enumerate() {
        let sre: &[T::Real; NR] = s[..NR].try_into().expect("NR reals");
        let sim: &[T::Real; NR] = s[(p - 1) * NR..].try_into().expect("NR reals");
        // Two copies of the term loop: without a zero `s` (the common
        // case, `skip` set while packing) nothing is tested.
        if skip {
            let live = std::array::from_fn(|j| sre[j] != zero || (T::IS_COMPLEX && sim[j] != zero));
            let a = |i| a_at(l, i);
            in_place_terms::<T, RT, NR>(live, a, conj, (sre, sim), (&mut cre, &mut cim));
        } else {
            let a = |i| a_at(l, i);
            in_place_terms::<T, RT, NR>([true; NR], a, conj, (sre, sim), (&mut cre, &mut cim));
        }
    }
    for i in 0..RT {
        acc[i * NR..][..NR].copy_from_slice(&cre[i]);
        if T::IS_COMPLEX {
            acc[im + i * NR..][..NR].copy_from_slice(&cim[i]);
        }
    }
}

/// One term `l` of [`in_place_arrays`], in the lanes of `live`.
#[inline(always)]
#[allow(clippy::type_complexity)]
fn in_place_terms<T: Scalar, const RT: usize, const NR: usize>(
    live: [bool; NR],
    a: impl Fn(usize) -> T,
    conj: bool,
    (sre, sim): (&[T::Real; NR], &[T::Real; NR]),
    (cre, cim): (&mut [[T::Real; NR]; RT], &mut [[T::Real; NR]; RT]),
) {
    for i in 0..RT {
        let a = if conj { a(i).conj() } else { a(i) };
        for j in 0..NR {
            if live[j] {
                let c = T::from_re_im(cre[i][j], cim[i][j]);
                let c = T::mul_acc(c, T::from_re_im(sre[j], sim[j]), a);
                (cre[i][j], cim[i][j]) = (c.re(), c.im());
            }
        }
    }
}

/// [`in_place_arrays`] term for term with each plane of a row of the tile
/// one 512-bit register (`NR` is its lane count): `s` loaded, `a` broadcast,
/// each [`Scalar::mul_acc`] the same fused multiply-adds in the same order
/// under the lane mask of the nonzero `s`. The two products with `a.im`
/// take their sign from the `s` factor, negated once per term: `-s.im` in
/// the real part, and for `conj(a)` (whose imaginary part is `-a.im`)
/// `s.im` and `-s.re` — `(-x) * y` and `x * (-y)` being the same exact
/// product.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn in_place_zmm<T: Scalar, const RT: usize, const NR: usize>(
    avx512: Avx512,
    a_at: impl Fn(usize, usize) -> T,
    conj: bool,
    bp: &[T::Real],
    skip: &[bool],
    acc: &mut [T::Real],
) {
    let load = |src: &[T::Real]| <Zmm<T> as Lanes<T::Real>>::load(avx512, src);
    let splat = |x: T::Real| <Zmm<T> as Lanes<T::Real>>::splat(avx512, x);
    assert_eq!(NR, <Zmm<T> as Lanes<T::Real>>::LEN, "one register a plane");
    let p = planes::<T>();
    let im = (p - 1) * RT * NR;
    // `-x` exactly, signed zeros included: `-(x * 1) + (-0)`.
    let (one, minus_zero) = (
        splat(<T::Real as Scalar>::one()),
        splat(-<T::Real as Scalar>::zero()),
    );
    let neg = |x: Zmm<T>| x.neg_mul_add(one, minus_zero);
    let mut cre: [Zmm<T>; RT] = std::array::from_fn(|i| load(&acc[i * NR..]));
    let mut cim: [Zmm<T>; RT] = std::array::from_fn(|i| load(&acc[im + i * NR..]));
    for (l, (s, &skip)) in bp.chunks_exact(p * NR).zip(skip).enumerate() {
        let (sre, sim) = (load(&s[..NR]), load(&s[(p - 1) * NR..]));
        let s = match conj {
            false => [sre, sim, neg(sim), sre],
            true => [sre, sim, sim, neg(sre)],
        };
        // As in the array source: the mask is a constant, folded away, in
        // the copy for a term without a zero `s`. `a` is read in each copy,
        // so that its loads fold into the broadcasts.
        let (cre, cim) = (&mut cre, &mut cim);
        if skip {
            let live = sre.nonzero(sim);
            in_place_zmm_terms::<T, RT>(avx512, live, |i| a_at(l, i), s, (cre, cim));
        } else {
            let all = <Zmm<T> as Lanes<T::Real>>::ALL;
            in_place_zmm_terms::<T, RT>(avx512, all, |i| a_at(l, i), s, (cre, cim));
        }
    }
    for i in 0..RT {
        cre[i].store(&mut acc[i * NR..]);
        if T::IS_COMPLEX {
            cim[i].store(&mut acc[im + i * NR..]);
        }
    }
}

/// One term `l` of [`in_place_zmm`], in the lanes of `live`: with `s` =
/// `[s.re, s.im, f_re, f_im]`, the factors of `a.re` and (signed) of `a.im`
/// in the real and the imaginary part, `mul_acc`'s four fused
/// multiply-adds in its order.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::type_complexity)]
fn in_place_zmm_terms<T: Scalar, const RT: usize>(
    avx512: Avx512,
    live: <Zmm<T> as Lanes<T::Real>>::Mask,
    a: impl Fn(usize) -> T,
    [sre, sim, f_re, f_im]: [Zmm<T>; 4],
    (cre, cim): (&mut [Zmm<T>; RT], &mut [Zmm<T>; RT]),
) {
    let splat = |x: T::Real| <Zmm<T> as Lanes<T::Real>>::splat(avx512, x);
    for i in 0..RT {
        let a = a(i);
        let are = splat(a.re());
        cre[i] = sre.mul_add_where(are, cre[i], live);
        if T::IS_COMPLEX {
            let aim = splat(a.im());
            cre[i] = f_re.mul_add_where(aim, cre[i], live);
            cim[i] = f_im.mul_add_where(aim, cim[i], live);
            cim[i] = sim.mul_add_where(are, cim[i], live);
        }
    }
}

/// The in-place microkernel of the instantiation whose evidence `avx512`
/// is (inlined into [`Isa::dispatch`]'s trampoline by the caller): written
/// out where a plane of `NR` reals is one 512-bit register, the array
/// source otherwise.
#[inline(always)]
fn in_place_kernel<T: Scalar, const RT: usize, const NR: usize>(
    avx512: Option<Avx512>,
    a_at: impl Fn(usize, usize) -> T,
    conj: bool,
    bp: &[T::Real],
    skip: &[bool],
    acc: &mut [T::Real],
) {
    match avx512 {
        #[cfg(target_arch = "x86_64")]
        Some(avx512) if NR == <Zmm<T> as Lanes<T::Real>>::LEN => {
            in_place_zmm::<T, RT, NR>(avx512, a_at, conj, bp, skip, acc)
        }
        _ => in_place_arrays::<T, RT, NR>(a_at, conj, bp, skip, acc),
    }
}

/// One thread's pack buffers for one real type.
#[derive(Default)]
struct Scratch<R> {
    a: Vec<R>,
    b: Vec<R>,
    skip: Vec<bool>,
    /// Folds that took the in-place orientation.
    #[cfg(test)]
    in_place: usize,
}

thread_local! {
    /// At most one [`Scratch`] per real type (f32, f64), grown on first use
    /// to the block sizes a call needs and dropped with the thread.
    static SCRATCH: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

fn with_scratch<R: Default + 'static, O>(f: impl FnOnce(&mut Scratch<R>) -> O) -> O {
    SCRATCH.with(|cell| {
        let mut slots = cell.borrow_mut();
        let at = match slots.iter().position(|s| s.is::<Scratch<R>>()) {
            Some(at) => at,
            None => {
                slots.push(Box::new(Scratch::<R>::default()));
                slots.len() - 1
            }
        };
        f(slots[at].downcast_mut().expect("slot was found by type"))
    })
}

/// The first `len` elements of `buf`, reallocated at exactly `len` if it is
/// shorter (the old contents are scratch; `resize` would copy them and may
/// double the capacity past the bound in the module header).
fn first_n<V: Copy>(buf: &mut Vec<V>, len: usize, fill: V) -> &mut [V] {
    if buf.len() < len {
        *buf = Vec::new();
        *buf = vec![fill; len];
    }
    &mut buf[..len]
}

/// The loop nest of the module header: `C += op(A) * s` for the fold's `s`,
/// on a `C` that already holds its starting value, in the `MR x NR` tiles of
/// the instantiation `isa`.
fn gemm_blocked<T: Scalar, const MR: usize, const NR: usize>(
    isa: Isa,
    fold: Fold<T>,
    a: &Prepacked<'_, T>,
    opb: Op,
    b: ColsRef<'_, T>,
    c: &mut [T],
    scratch: &mut Scratch<T::Real>,
) {
    const {
        assert!(
            NC.is_multiple_of(NR),
            "column slices must start on a micro-panel"
        )
    };
    let (m, k) = (a.m, a.k);
    let n = c.len() / m;
    let p = planes::<T>();
    let zero = <T::Real as Scalar>::zero();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        // Row blocks and tiles wholly on the wrong side of the diagonal are
        // not visited.
        let rows = match fold.tiles {
            Tiles::All => 0..m,
            Tiles::Upper => 0..m.min(jc + nc),
            Tiles::Lower => jc - jc % MC..m,
        };
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let b_block = first_n(&mut scratch.b, p * kc * nc.next_multiple_of(NR), zero);
            let skip = first_n(&mut scratch.skip, kc * nc.div_ceil(NR), false);
            pack_b_block::<T, NR>(opb, fold, b, (pc, kc), (jc, nc), b_block, skip);
            for ic in rows.clone().step_by(MC) {
                let mc = MC.min(m - ic);
                let (off, len) = a_block_span::<T, MR>(m, (pc, kc), (ic, mc));
                let a_block: &[T::Real] = match &a.panels {
                    Some((mr, panels)) if *mr == MR => &panels[off..off + len],
                    _ => {
                        let buf = first_n(&mut scratch.a, len, zero);
                        pack_a_block::<T, MR>(a.opa, a.a, (ic, mc), (pc, kc), buf);
                        buf
                    }
                };
                let b_panels = b_block.chunks_exact(kc * p * NR).zip(skip.chunks_exact(kc));
                for (jp, (bp, skip)) in b_panels.enumerate() {
                    let j0 = jc + jp * NR;
                    let nr = NR.min(jc + nc - j0);
                    for (ip, ap) in a_block.chunks_exact(kc * p * MR).enumerate() {
                        let i0 = ic + ip * MR;
                        match fold.tiles {
                            Tiles::Upper if i0 >= j0 + nr => break,
                            Tiles::Lower if i0 + MR <= j0 => continue,
                            _ => {}
                        }
                        let mr = MR.min(ic + mc - i0);
                        let mut tile = Tile {
                            re: [[zero; MR]; NR],
                            im: [[zero; MR]; NR],
                        };
                        for j in 0..nr {
                            let at = (j0 + j) * m + i0;
                            for (i, v) in c[at..at + mr].iter().enumerate() {
                                tile.re[j][i] = v.re();
                                tile.im[j][i] = v.im();
                            }
                        }
                        microkernel::<T, MR, NR>(isa, ap, bp, skip, &mut tile);
                        for j in 0..nr {
                            let at = (j0 + j) * m + i0;
                            for (i, v) in c[at..at + mr].iter_mut().enumerate() {
                                *v = T::from_re_im(tile.re[j][i], tile.im[j][i]);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Up to how many `NR`-column micro-panels of `s` a one-shot fold reads
/// `op(A)` in place ([`gemm_in_place`]) instead of packing it: a packed
/// block of `op(A)` pays one pass over `op(A)` and is read once per panel,
/// so it buys little at a few panels: at eight columns the pack is more
/// than half the call. The crossover is measured (DESIGN.md §3).
const IN_PLACE_PANELS: usize = 4;

/// Terms folded per visit of a tile of `C` by [`gemm_in_place`]: for
/// `Op::None` the `l` of this many columns of `A` are read side by side, each
/// column front to back down all rows of the block, so that `A` is read
/// column-contiguously.
const IN_PLACE_TERMS: usize = 32;

/// The loop nest's second orientation, for narrow `s` (at most
/// `IN_PLACE_PANELS * NR <= NC` columns, so one slice): `op(A)` is read in
/// place from its column-major storage, never packed, and the tile of `C`
/// is `RT` rows by `NR` columns with the columns in the lanes
/// ([`in_place_kernel`]). `s` is packed as in [`gemm_blocked`]; `C` is folded
/// through a lane-major strip of its rows in the thread's `op(A)` buffer,
/// which this orientation has no other use for. Per element of `C` the
/// terms go `l` ascending, as in the other orientation, so the two give the
/// same bits.
fn gemm_in_place<T: Scalar, const RT: usize, const NR: usize>(
    isa: Isa,
    fold: Fold<T>,
    a: &Prepacked<'_, T>,
    opb: Op,
    b: ColsRef<'_, T>,
    c: &mut [T],
    scratch: &mut Scratch<T::Real>,
) {
    const {
        assert!(
            RT <= MC * KC / (IN_PLACE_PANELS * NR) && IN_PLACE_PANELS * NR <= NC,
            "a strip of C holds a tile, and s one slice"
        )
    };
    #[cfg(test)]
    {
        scratch.in_place += 1;
    }
    let (m, k) = (a.m, a.k);
    let n = c.len() / m;
    let panels = n.div_ceil(NR);
    let p = planes::<T>();
    let zero = <T::Real as Scalar>::zero();
    let tile_len = p * RT * NR;
    // As many rows of C as the `MC * KC` of the op(A) buffer holds, so that
    // for `Op::None` a column of A is read front to back in one go.
    let strip_rows = MC * KC / (panels * NR) / RT * RT;
    // `Op::None` visits a tile for a few terms at a time, the other ops for
    // the whole block.
    let lb = match a.opa {
        Op::None => IN_PLACE_TERMS,
        _ => KC,
    };
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let b_block = first_n(&mut scratch.b, p * kc * panels * NR, zero);
        let skip = first_n(&mut scratch.skip, kc * panels, false);
        pack_b_block::<T, NR>(opb, fold, b, (pc, kc), (0, n), b_block, skip);
        for ic in (0..m).step_by(strip_rows) {
            let mc = strip_rows.min(m - ic);
            let tiles = mc.div_ceil(RT);
            // Taken at the size a packed pass on this thread takes anyway:
            // growing the buffer from the strip's size to that one frees a
            // block and takes a larger one, which moved glibc's mmap
            // threshold and the peak RSS of a solve (EXPERIMENTS.md).
            let strip =
                &mut first_n(&mut scratch.a, p * MC * KC, zero)[..tiles * panels * tile_len];
            // Rows and columns past C's hold zeros and are never stored.
            strip.fill(zero);
            let at = |t: usize, jp: usize| (t * panels + jp) * tile_len;
            for t in 0..tiles {
                for jp in 0..panels {
                    let acc = &mut strip[at(t, jp)..][..tile_len];
                    for j in 0..NR.min(n - jp * NR) {
                        let col = &c[(jp * NR + j) * m + ic + t * RT..];
                        for (i, v) in col[..RT.min(mc - t * RT)].iter().enumerate() {
                            acc[i * NR + j] = v.re();
                            if T::IS_COMPLEX {
                                acc[RT * NR + i * NR + j] = v.im();
                            }
                        }
                    }
                }
            }
            let (b_block, skip, terms) = (&*b_block, &*skip, kc.div_ceil(lb));
            let (data, lda) = (a.a.as_slice(), a.a.rows());
            isa.dispatch(
                #[inline(always)]
                |avx512| {
                    // Either way A is read column by column: for `Op::None`
                    // a block of terms (columns of A) at a time down every
                    // tile, otherwise one tile's columns of A at a time.
                    let (outer, inner) = match a.opa {
                        Op::None => (terms, tiles),
                        _ => (tiles, terms),
                    };
                    for x in 0..outer {
                        for y in 0..inner {
                            let (t, l0) = match a.opa {
                                Op::None => (y, x * lb),
                                _ => (x, y * lb),
                            };
                            let lb = lb.min(kc - l0);
                            let i0 = ic + t * RT;
                            // The rows of the last tile past C repeat its
                            // last row.
                            let mr = RT.min(ic + mc - i0);
                            // op(A)[i, l] is A[i, l]: column `l` of A down
                            // the rows of the tile, from `base`; otherwise
                            // (conj) A[l, i]: the rows of the tile are
                            // stretches of `RT` columns of A.
                            let base = (pc + l0) * lda + i0;
                            let cols: [&[T]; RT] = match a.opa {
                                Op::None => [&[]; RT],
                                _ => std::array::from_fn(|i| {
                                    &a.a.col(i0 + i.min(mr - 1))[pc + l0..pc + l0 + lb]
                                }),
                            };
                            let conj = a.opa == Op::ConjTrans;
                            for jp in 0..panels {
                                let bp = &b_block[(jp * kc + l0) * p * NR..][..lb * p * NR];
                                let skip = &skip[jp * kc + l0..][..lb];
                                let acc = &mut strip[at(t, jp)..][..tile_len];
                                match a.opa {
                                    Op::None => in_place_kernel::<T, RT, NR>(
                                        avx512,
                                        #[inline(always)]
                                        |l, i| data[base + l * lda..][..mr][i.min(mr - 1)],
                                        conj,
                                        bp,
                                        skip,
                                        acc,
                                    ),
                                    _ => in_place_kernel::<T, RT, NR>(
                                        avx512,
                                        #[inline(always)]
                                        |l, i| cols[i][l],
                                        conj,
                                        bp,
                                        skip,
                                        acc,
                                    ),
                                }
                            }
                        }
                    }
                },
            );
            for t in 0..tiles {
                for jp in 0..panels {
                    let acc = &strip[at(t, jp)..][..tile_len];
                    for j in 0..NR.min(n - jp * NR) {
                        let col = &mut c[(jp * NR + j) * m + ic + t * RT..];
                        for (i, v) in col[..RT.min(mc - t * RT)].iter_mut().enumerate() {
                            *v =
                                T::from_re_im(acc[i * NR + j], acc[(p - 1) * RT * NR + i * NR + j]);
                        }
                    }
                }
            }
        }
    }
}

/// `C += op(A) * s` for the fold's `s` from `op(B)[..k, :]`, `k` the columns
/// of `op(A)`: the loop nest on this thread's pack buffers, with the tile
/// shape of the widest microkernel instantiation this CPU runs.
fn fold_into<T: Scalar>(
    fold: Fold<T>,
    a: &Prepacked<'_, T>,
    opb: Op,
    b: ColsRef<'_, T>,
    mut c: ColsMut<'_, T>,
) {
    let (kb, n) = op_shape(opb, b);
    assert!(a.k <= kb, "fold: op(B) has {kb} rows, fewer than {}", a.k);
    assert_eq!(c.rows(), a.m, "fold: C row mismatch");
    assert_eq!(c.cols(), n, "fold: C col mismatch");
    // Degenerate shapes: a rank can own zero rows/columns under extreme
    // block-cyclic configurations.
    if a.m == 0 || n == 0 {
        return;
    }
    let c = c.as_mut_slice();
    let isa = Isa::current();
    with_scratch::<T::Real, _>(|scratch| {
        with_tile_of!(isa, T, MR, NR => {
            if a.panels.is_none() && fold.tiles == Tiles::All && n.div_ceil(NR) <= IN_PLACE_PANELS {
                // As many rows as the packed tile, at most 8: with 32-bit
                // reals 16 rows of accumulators do not fit the registers.
                const RT: usize = if MR > 8 { 4 } else { MR };
                gemm_in_place::<T, RT, NR>(isa, fold, a, opb, b, c, scratch)
            } else {
                gemm_blocked::<T, MR, NR>(isa, fold, a, opb, b, c, scratch)
            }
        })
    });
}

/// General matrix-matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.
///
/// Dimensions are inferred and checked: `op(A)` is `m x k`, `op(B)` is
/// `k x n`, `C` is `m x n`.
///
/// The result is defined bit for bit, on every machine. Each `C[i, j]`
/// starts at `beta * C[i, j]` (exactly `0` when `beta == 0`, whatever `C`
/// held; untouched when `beta == 1`), then for `l = 0, 1, ..., k-1` in that
/// order, with `s = alpha * op(B)[l, j]` and `a = op(A)[i, l]`:
///
/// * if `s == 0` (either sign, both parts) the term is skipped — so a zero
///   in `alpha * op(B)` shields `C` from an `inf`/`NaN` in the matching
///   column of `op(A)`, and a sum of skipped terms keeps the sign of zero
///   it started with;
/// * otherwise `C[i, j] = mul_acc(C[i, j], s, a)` ([`Scalar::mul_acc`]): for
///   real scalars one fused multiply-add, `s*a + C[i, j]` rounded once; for
///   complex ones `re = fma(-s.im, a.im, fma(s.re, a.re, re))` and
///   `im = fma(s.im, a.re, fma(s.re, a.im, im))`, two chained roundings a
///   component. `s` itself (`alpha * op(B)[l, j]`) is an ordinary rounded
///   product.
pub fn gemm<T: Scalar>(
    opa: Op,
    opb: Op,
    alpha: T,
    a: ColsRef<'_, T>,
    b: ColsRef<'_, T>,
    beta: T,
    c: ColsMut<'_, T>,
) {
    gemm_prepacked(&Prepacked::borrowed(opa, a), opb, alpha, b, beta, c);
}

/// [`gemm`] against an already-packed `op(A)`: bitwise identical to the
/// one-shot call, with the packing cost paid once by the caller.
pub fn gemm_prepacked<T: Scalar>(
    a: &Prepacked<'_, T>,
    opb: Op,
    alpha: T,
    b: ColsRef<'_, T>,
    beta: T,
    mut c: ColsMut<'_, T>,
) {
    let (k, kb) = (a.k, op_shape(opb, b).0);
    assert_eq!(k, kb, "gemm: inner dimensions differ ({k} vs {kb})");
    if beta == T::zero() {
        c.as_mut_slice().fill(T::zero());
    } else if beta != T::one() {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
    let fold = Fold {
        s: Factor::Times(alpha),
        skip_zeros: true,
        tiles: Tiles::All,
    };
    fold_into(fold, a, opb, b, c);
}

/// Convenience: `C = op(A) * op(B)` into a fresh matrix.
pub fn gemm_new<T: Scalar>(opa: Op, opb: Op, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let (m, _) = op_shape(opa, a.as_ref());
    let (_, n) = op_shape(opb, b.as_ref());
    let mut c = Matrix::zeros(m, n);
    gemm(
        opa,
        opb,
        T::one(),
        a.as_ref(),
        b.as_ref(),
        T::zero(),
        c.as_mut(),
    );
    c
}

/// Gram matrix `X^H X` (the SYRK/HERK of Algorithm 3, line 3).
///
/// Bit for bit a dot-product sweep: for `i <= j`, `G[i, j]` starts at `0` and
/// takes the fused term of [`gemm`] with `s = X[l, j]`, `a = conj(X[l, i])`
/// for `l = 0, 1, ...` in that order and *no* term skipped — a
/// `NaN`/`inf` in `X` reaches every entry of its row and column of `G`, zero
/// partner or not, which is what the CholeskyQR finite-Gram guard reads.
/// Computed by the [`gemm`] loop nest as `ConjTrans x None` over the tiles on
/// or above the diagonal; the lower triangle is mirrored (`conj`) so
/// downstream kernels can treat the result as a full matrix, and the diagonal
/// is made exactly real: under the fused term the imaginary part of the sum
/// for `x^H x` is not `0` but the rounding errors of the products
/// `x.re * x.im`, one per row (`fma(x.im, x.re, -(x.re * x.im))`), and `G`
/// is returned exactly Hermitian without it.
pub fn gram<T: Scalar>(x: ColsRef<'_, T>) -> Matrix<T> {
    let n = x.cols();
    let mut g = Matrix::zeros(n, n);
    let fold = Fold {
        s: Factor::Stored,
        skip_zeros: false,
        tiles: Tiles::Upper,
    };
    let xh = Prepacked::borrowed(Op::ConjTrans, x);
    fold_into(fold, &xh, Op::None, x, g.as_mut());
    for j in 0..n {
        for i in 0..j {
            g[(j, i)] = g[(i, j)].conj();
        }
        g[(j, j)] = T::from_real(g[(j, j)].re());
    }
    g
}

/// Width of the column (row) blocks [`trsm_right_upper`] (`potrf_upper`)
/// works in: the terms from outside a block go through the loop nest, the
/// `PANEL^2 / 2` per row (column) inside it stay scalar. A whole number of
/// micro-panels for every scalar type.
pub(crate) const PANEL: usize = 16;

/// Triangular solve from the right with an upper-triangular factor:
/// `X := X * R^{-1}` (the TRSM of Algorithm 3, line 6).
///
/// Bit for bit the column sweep: `X[i, j]` takes the fused term of [`gemm`]
/// with `s = -R[l, j]`, `a = X[i, l]` (that is, `-= R[l, j] * X[i, l]`) for
/// `l = 0, ..., j-1` in that order against the finished columns `l` (terms
/// with `R[l, j] == 0` skipped), then `*= 1 / R[j, j]`. Columns go in blocks
/// of [`PANEL`]: the terms `l` left of a block are one pass of the [`gemm`]
/// loop nest, the few inside it the scalar sweep of the same term, compiled
/// for the same instantiation as the microkernel.
pub fn trsm_right_upper<T: Scalar>(mut x: ColsMut<'_, T>, r: &Matrix<T>) {
    let n = x.cols();
    assert_eq!(r.rows(), n);
    assert_eq!(r.cols(), n);
    let m = x.rows();
    let data = x.as_mut_slice();
    let fold = Fold {
        s: Factor::Negated,
        skip_zeros: true,
        tiles: Tiles::All,
    };
    let isa = Isa::current();
    for j0 in (0..n).step_by(PANEL) {
        let j1 = (j0 + PANEL).min(n);
        let (solved, rest) = data.split_at_mut(j0 * m);
        let solved = Prepacked::borrowed(Op::None, ColsRef::new(solved, m, j0));
        let block = ColsMut::new(&mut rest[..(j1 - j0) * m], m, j1 - j0);
        fold_into(fold, &solved, Op::None, r.cols_ref(j0..j1), block);
        isa.dispatch(
            #[inline(always)]
            |_| {
                for j in j0..j1 {
                    for l in j0..j {
                        let s = -r[(l, j)];
                        if s != T::zero() {
                            let (lo, hi) = data.split_at_mut(j * m);
                            let xl = &lo[l * m..(l + 1) * m];
                            let xj = &mut hi[..m];
                            for (c, a) in xj.iter_mut().zip(xl) {
                                *c = T::mul_acc(*c, s, *a);
                            }
                        }
                    }
                    let d = r[(j, j)];
                    assert_ne!(d, T::zero(), "trsm: singular triangular factor at {j}");
                    let inv = T::one() / d;
                    for a in &mut data[j * m..(j + 1) * m] {
                        *a *= inv;
                    }
                }
            },
        );
    }
}

/// `W -= U[..k0, rows]^H * U[..k0, k0..]` with `k0 = rows.start`, no term
/// skipped: what the finished rows `..k0` of the factor contribute to the
/// row block `rows` in `potrf_upper`, through the [`gemm`] loop nest.
pub(crate) fn sub_finished_rows<T: Scalar>(u: &Matrix<T>, rows: Range<usize>, w: ColsMut<'_, T>) {
    let k0 = rows.start;
    let fold = Fold {
        s: Factor::Negated,
        skip_zeros: false,
        tiles: Tiles::All,
    };
    let uh = Prepacked::borrowed(Op::ConjTrans, u.cols_ref(rows)).first_k(k0);
    fold_into(fold, &uh, Op::None, u.cols_ref(k0..u.cols()), w);
}

/// `C -= A * B^H` on the tiles that hold an entry on or below `C`'s diagonal
/// (the rest of `C` is left stale), no term skipped: the rank-2k update of
/// the trailing matrix in `heevd`'s reduction, through the [`gemm`] loop nest.
pub(crate) fn sub_abh_lower<T: Scalar>(a: ColsRef<'_, T>, b: ColsRef<'_, T>, c: ColsMut<'_, T>) {
    let fold = Fold {
        s: Factor::Negated,
        skip_zeros: false,
        tiles: Tiles::Lower,
    };
    fold_into(fold, &Prepacked::borrowed(Op::None, a), Op::ConjTrans, b, c);
}

/// Matrix-vector product `y = alpha * op(A) * x + beta * y`.
pub fn gemv<T: Scalar>(op: Op, alpha: T, a: &Matrix<T>, x: &[T], beta: T, y: &mut [T]) {
    match op {
        Op::None => {
            assert_eq!(x.len(), a.cols());
            assert_eq!(y.len(), a.rows());
            if beta == T::zero() {
                y.fill(T::zero());
            } else if beta != T::one() {
                crate::blas1::scal(beta, y);
            }
            for (l, &xl) in x.iter().enumerate() {
                let s = alpha * xl;
                if s != T::zero() {
                    crate::blas1::axpy(s, a.col(l), y);
                }
            }
        }
        Op::Trans | Op::ConjTrans => {
            assert_eq!(x.len(), a.rows());
            assert_eq!(y.len(), a.cols());
            for (j, yj) in y.iter_mut().enumerate() {
                let d = if matches!(op, Op::ConjTrans) {
                    crate::blas1::dotc(a.col(j), x)
                } else {
                    crate::blas1::dotu(a.col(j), x)
                };
                *yj = alpha * d + beta * *yj;
            }
        }
    }
}

/// This thread's pack buffers for `R`, in elements allocated (`op(A)` or
/// the strip of `C`, `op(B)`), and the folds that took the in-place
/// orientation on it.
#[cfg(test)]
fn scratch_probe<R: Default + 'static>() -> (usize, usize, usize) {
    with_scratch::<R, _>(|s| (s.a.capacity(), s.b.capacity(), s.in_place))
}

/// Every bit of every entry; NaNs compare equal to each other (Rust leaves
/// their sign and payload unspecified).
#[cfg(test)]
pub(crate) fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<[u64; 2]> {
    use crate::scalar::RealScalar;
    let one = |x: T::Real| {
        let x = x.to_f64(); // exact for f32, keeps the sign of zero
        if x.is_nan() {
            u64::MAX
        } else {
            x.to_bits()
        }
    };
    m.as_slice()
        .iter()
        .map(|v| [one(v.re()), one(v.im())])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::potrf_upper;
    use crate::heevd::heevd;
    use crate::lanes::{on_each_isa, on_each_isa_within, with_isa, ISAS};
    use crate::scalar::{RealScalar, C32, C64};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const OPS: [Op; 3] = [Op::None, Op::Trans, Op::ConjTrans];

    /// The fold contract on [`gemm`], literally: the axpy sweep the blocked
    /// kernel replaced, one column of `C` at a time.
    #[inline(always)]
    fn gemm_reference<T: Scalar>(
        opa: Op,
        opb: Op,
        alpha: T,
        a: &Matrix<T>,
        b: &Matrix<T>,
        beta: T,
        c: &mut Matrix<T>,
    ) {
        let op_at = |op: Op, x: &Matrix<T>, i: usize, j: usize| match op {
            Op::None => x[(i, j)],
            Op::Trans => x[(j, i)],
            Op::ConjTrans => x[(j, i)].conj(),
        };
        let k = match opa {
            Op::None => a.cols(),
            _ => a.rows(),
        };
        for j in 0..c.cols() {
            let c_col = c.col_mut(j);
            if beta == T::zero() {
                c_col.fill(T::zero());
            } else if beta != T::one() {
                for v in c_col.iter_mut() {
                    *v *= beta;
                }
            }
            for l in 0..k {
                let s = alpha * op_at(opb, b, l, j);
                if s != T::zero() {
                    for (i, ci) in c_col.iter_mut().enumerate() {
                        *ci = T::mul_acc(*ci, s, op_at(opa, a, i, l));
                    }
                }
            }
        }
    }

    /// The fold contract on [`gram`], literally: a dot-product sweep of its
    /// own (`blas1::dotc` is BLAS-1 and stays unfused), `s` the entry of the
    /// column `op(B)` holds.
    fn gram_reference<T: Scalar>(x: ColsRef<'_, T>) -> Matrix<T> {
        let n = x.cols();
        let mut g = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..=j {
                let terms = x.col(j).iter().zip(x.col(i));
                let v = terms.fold(T::zero(), |c, (&s, a)| T::mul_acc(c, s, a.conj()));
                g[(i, j)] = v;
                if i != j {
                    g[(j, i)] = v.conj();
                } else {
                    g[(i, j)] = T::from_real(v.re());
                }
            }
        }
        g
    }

    /// The fold contract on [`trsm_right_upper`], literally: the axpy sweep
    /// the blocked kernel replaced, one column of `X` at a time.
    fn trsm_reference<T: Scalar>(mut x: ColsMut<'_, T>, r: &Matrix<T>) {
        let (m, n) = (x.rows(), x.cols());
        let data = x.as_mut_slice();
        for j in 0..n {
            for l in 0..j {
                let s = r[(l, j)];
                if s != T::zero() {
                    let (lo, hi) = data.split_at_mut(j * m);
                    let xl = &lo[l * m..(l + 1) * m];
                    let xj = &mut hi[..m];
                    for (c, a) in xj.iter_mut().zip(xl) {
                        *c = T::mul_acc(*c, -s, *a);
                    }
                }
            }
            let inv = T::one() / r[(j, j)];
            for a in &mut data[j * m..(j + 1) * m] {
                *a *= inv;
            }
        }
    }

    /// `x` as stored so that `op(stored) == x`.
    fn stored_for<T: Scalar>(op: Op, x: &Matrix<T>) -> Matrix<T> {
        match op {
            Op::None => x.clone(),
            Op::Trans => x.transpose(),
            Op::ConjTrans => x.adjoint(),
        }
    }

    /// 0, 1, -1 or a random scalar.
    fn coefficient<T: Scalar>(kind: usize, rng: &mut ChaCha8Rng) -> T {
        match kind {
            0 => T::zero(),
            1 => T::one(),
            2 => -T::one(),
            _ => T::sample_standard(rng),
        }
    }

    /// Operands that exercise every clause of the fold contract: `op(B)`
    /// has scattered `+0.0`/`-0.0` entries, one exact-zero column and
    /// exact-zero rows; `op(A)` holds `inf`/`NaN` in the columns those zero
    /// rows shield, plus (when `leak`) one `inf` that does reach `C`.
    fn contract_operands<T: Scalar>(
        (m, k, n): (usize, usize, usize),
        leak: bool,
        rng: &mut ChaCha8Rng,
    ) -> (Matrix<T>, Matrix<T>) {
        let mut oa = Matrix::<T>::random(m, k, rng);
        let mut ob = Matrix::<T>::random(k, n, rng);
        for j in 0..n {
            for l in 0..k {
                if rng.gen::<f64>() < 0.2 {
                    ob[(l, j)] = signed_zero::<T>(rng);
                }
            }
        }
        if n > 0 {
            let j = rng.gen::<u64>() as usize % n;
            for l in 0..k {
                ob[(l, j)] = signed_zero::<T>(rng);
            }
        }
        let nan = T::Real::from_f64_r(f64::NAN);
        let inf = T::Real::from_f64_r(f64::INFINITY);
        for l in 0..k {
            if rng.gen::<f64>() < 0.15 {
                for j in 0..n {
                    ob[(l, j)] = signed_zero::<T>(rng);
                }
                for i in 0..m {
                    if rng.gen::<f64>() < 0.5 {
                        oa[(i, l)] = T::from_re_im(inf, nan);
                    }
                }
            }
        }
        if leak && m > 0 && k > 0 {
            let (i, l) = (rng.gen::<u64>() as usize % m, rng.gen::<u64>() as usize % k);
            oa[(i, l)] = T::from_re_im(-inf, T::Real::from_f64_r(1.0));
        }
        (oa, ob)
    }

    /// Every microkernel instantiation this CPU runs against the reference
    /// fold, bit for bit, for all nine `(opa, opb)` pairs on one problem.
    fn check_fold_contract<T: Scalar>(
        dims: (usize, usize, usize),
        (alpha_kind, beta_kind): (usize, usize),
        leak: bool,
        seed: u64,
    ) {
        let (m, k, n) = dims;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (oa, ob) = contract_operands::<T>(dims, leak, &mut rng);
        let alpha = coefficient::<T>(alpha_kind, &mut rng);
        let beta = coefficient::<T>(beta_kind, &mut rng);
        let mut c0 = Matrix::<T>::random(m, n, &mut rng);
        if beta == T::zero() && m * n > 0 {
            // beta == 0 overwrites: whatever C held must not leak through.
            c0[(m - 1, n - 1)] = T::from_real(T::Real::from_f64_r(f64::NAN));
        }
        for opa in OPS {
            let a = stored_for(opa, &oa);
            for opb in OPS {
                let b = stored_for(opb, &ob);
                let mut want = c0.clone();
                // With this CPU's own fused multiply-add where it has one: the
                // term is exact either way, and a libm call per term is slow.
                Isa::current().dispatch(
                    #[inline(always)]
                    |_| gemm_reference(opa, opb, alpha, &a, &b, beta, &mut want),
                );
                let what = format!(
                    "{} {opa:?} {opb:?} {dims:?} alpha {alpha} beta {beta}",
                    std::any::type_name::<T>()
                );
                if !leak {
                    assert!(
                        want.as_slice().iter().all(|v| v.is_finite()),
                        "{what}: a shielded inf/NaN reached C"
                    );
                }
                on_each_isa_within(m * k * n, |isa| {
                    let mut got = c0.clone();
                    gemm(opa, opb, alpha, a.as_ref(), b.as_ref(), beta, got.as_mut());
                    assert_eq!(bits(&got), bits(&want), "{what}: gemm on {isa:?}");
                    let mut got = c0.clone();
                    let packed = prepack_a(opa, a.as_ref());
                    gemm_prepacked(&packed, opb, alpha, b.as_ref(), beta, got.as_mut());
                    assert_eq!(bits(&got), bits(&want), "{what}: prepacked on {isa:?}");
                });
            }
        }
    }

    /// `+0.0` or `-0.0` (both parts).
    fn signed_zero<T: Scalar>(rng: &mut ChaCha8Rng) -> T {
        if rng.gen::<f64>() < 0.5 {
            -T::zero()
        } else {
            T::zero()
        }
    }

    /// A random block with scattered signed zeros and some all-zero rows.
    fn block_with_zeros<T: Scalar>(m: usize, n: usize, rng: &mut ChaCha8Rng) -> Matrix<T> {
        let mut x = Matrix::<T>::random(m, n, rng);
        for i in 0..m {
            let zero_row = rng.gen::<f64>() < 0.1;
            for j in 0..n {
                if zero_row || rng.gen::<f64>() < 0.15 {
                    x[(i, j)] = signed_zero(rng);
                }
            }
        }
        x
    }

    /// [`gram`] against the dot-product sweep, bit for bit. With `poison`, a
    /// few `NaN`/`inf` entries of `X` sit in rows where another column holds an
    /// exact zero: the sweep lets them through to that pair's Gram entry,
    /// and so must the kernel (no zero shielding here).
    fn check_gram_contract<T: Scalar>((m, n): (usize, usize), poison: bool, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = block_with_zeros::<T>(m, n, &mut rng);
        let what = format!("{} {m}x{n} seed {seed}", std::any::type_name::<T>());
        let mut reached = Vec::new();
        if poison && m > 0 && n > 1 {
            // Each in a row of its own, so that no later zero lands on an
            // earlier poison.
            let r0 = rng.gen::<u64>() as usize % m;
            let bads = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for (k, bad) in bads.into_iter().enumerate().take(m) {
                let r = (r0 + k) % m;
                let c = rng.gen::<u64>() as usize % n;
                let partner = (c + 1 + rng.gen::<u64>() as usize % (n - 1)) % n;
                x[(r, c)] = T::from_real(T::Real::from_f64_r(bad));
                x[(r, partner)] = signed_zero(&mut rng);
                reached.push((c.min(partner), c.max(partner)));
            }
        }
        let want = gram_reference(x.as_ref());
        for at in reached {
            assert!(!want[at].is_finite(), "{what}: sweep shielded {at:?}");
        }
        on_each_isa(|isa| {
            assert_eq!(
                bits(&gram(x.as_ref())),
                bits(&want),
                "{what}: gram on {isa:?}"
            )
        });
    }

    /// An upper-triangular factor for the TRSM contract: nonzero diagonal,
    /// scattered signed zeros and one all-zero column above it (skipped
    /// terms), `NaN` below it (never read).
    fn contract_factor<T: Scalar>(n: usize, rng: &mut ChaCha8Rng) -> Matrix<T> {
        let mut r = Matrix::<T>::random(n, n, rng);
        let zero_col = rng.gen::<u64>() as usize % n.max(1);
        for j in 0..n {
            for i in 0..n {
                if i > j {
                    r[(i, j)] = T::from_real(T::Real::from_f64_r(f64::NAN));
                } else if i == j {
                    // Away from zero whatever the draw.
                    let push = if r[(i, j)].re() < T::zero().re() {
                        -2.0
                    } else {
                        2.0
                    };
                    r[(i, j)] += T::from_f64(push);
                } else if j == zero_col || rng.gen::<f64>() < 0.2 {
                    r[(i, j)] = signed_zero(rng);
                }
            }
        }
        r
    }

    /// [`trsm_right_upper`] against the axpy sweep, bit for bit. With
    /// `poison`, `X` holds an `inf` and a `NaN` that zeros in `R` shield
    /// from some columns and not from others.
    fn check_trsm_contract<T: Scalar>((m, n): (usize, usize), poison: bool, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let r = contract_factor::<T>(n, &mut rng);
        let mut x = block_with_zeros::<T>(m, n, &mut rng);
        if poison && m * n > 0 {
            for bad in [f64::NAN, f64::INFINITY] {
                let at = (rng.gen::<u64>() as usize % m, rng.gen::<u64>() as usize % n);
                x[at] = T::from_re_im(T::Real::from_f64_r(bad), T::Real::from_f64_r(1.0));
            }
        }
        let mut want = x.clone();
        trsm_reference(want.as_mut(), &r);
        let what = format!("{} {m}x{n} seed {seed}", std::any::type_name::<T>());
        on_each_isa(|isa| {
            let mut got = x.clone();
            trsm_right_upper(got.as_mut(), &r);
            assert_eq!(bits(&got), bits(&want), "{what}: trsm on {isa:?}");
        });
    }

    /// Sizes on both sides of every blocking constant (`MR` 4/8/16, `NR` 8/4,
    /// `MC` 128, `KC` 256; `NC` 256 has its own test below), the degenerate 0
    /// and 1, ragged remainders (`2 MR + 3` among them).
    const M_SIZES: [usize; 19] = [
        0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 19, 33, 35, 127, 128, 129, 133, 150,
    ];
    const K_SIZES: [usize; 10] = [0, 1, 2, 7, 64, 255, 256, 257, 301, 513];
    /// As above, and on both sides of `NR` (4 and 8) and of the widest
    /// product read in place, `IN_PLACE_PANELS * NR`, for either `NR`: the
    /// two orientations of the nest meet there.
    const N_SIZES: [usize; 20] = [
        0,
        1,
        2,
        3,
        4,
        5,
        7,
        8,
        9,
        IN_PLACE_PANELS * 4 - 1,
        IN_PLACE_PANELS * 4,
        IN_PLACE_PANELS * 4 + 1,
        IN_PLACE_PANELS * 8 - 1,
        IN_PLACE_PANELS * 8,
        IN_PLACE_PANELS * 8 + 1,
        37,
        127,
        128,
        129,
        131,
    ];
    /// Column counts of a CholeskyQR block (the Gram matrix's tile rows as
    /// well): around `PANEL` 16 and its multiples too, and past `KC` (the
    /// TRSM's inner dimension).
    const QR_COLS: [usize; 21] = [
        0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 19, 31, 32, 33, 35, 48, 129, 150, 257, 290,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The shipped kernel equals the reference fold bit for bit: four
        /// scalars x nine op pairs per case, over blocking-straddling
        /// shapes, special alpha/beta, signed zeros and shielded inf/NaN.
        #[test]
        fn kernel_equals_reference_fold_bitwise(
            mi in 0usize..M_SIZES.len(),
            ki in 0usize..K_SIZES.len(),
            ni in 0usize..N_SIZES.len(),
            alpha_kind in 0usize..4,
            beta_kind in 0usize..4,
            leak in 0usize..4,
            seed in 0u64..1 << 32,
        ) {
            let dims = (M_SIZES[mi], K_SIZES[ki], N_SIZES[ni]);
            let kinds = (alpha_kind, beta_kind);
            check_fold_contract::<f32>(dims, kinds, leak == 0, seed);
            check_fold_contract::<f64>(dims, kinds, leak == 0, seed);
            check_fold_contract::<C32>(dims, kinds, leak == 0, seed);
            check_fold_contract::<C64>(dims, kinds, leak == 0, seed);
        }

        /// `gram` equals the dot-product sweep of the fused term bit for
        /// bit: rows (the inner dimension, 0 for a rank that owns none)
        /// across `KC`, columns
        /// across the tile, block and panel sizes, signed zeros, and
        /// non-finite entries that a zero partner must not shield.
        #[test]
        fn gram_equals_dotc_fold_bitwise(
            mi in 0usize..K_SIZES.len(),
            ni in 0usize..QR_COLS.len() - 2,
            poison in 0usize..2,
            seed in 0u64..1 << 32,
        ) {
            let dims = (K_SIZES[mi], QR_COLS[ni]);
            check_gram_contract::<f32>(dims, poison == 1, seed);
            check_gram_contract::<f64>(dims, poison == 1, seed);
            check_gram_contract::<C32>(dims, poison == 1, seed);
            check_gram_contract::<C64>(dims, poison == 1, seed);
        }

        /// `trsm_right_upper` equals the axpy sweep bit for bit, zeros of
        /// either sign in `R` skipped and `-0.0` in `X` kept.
        #[test]
        fn trsm_equals_reference_sweep_bitwise(
            mi in 0usize..M_SIZES.len(),
            ni in 0usize..QR_COLS.len(),
            poison in 0usize..3,
            seed in 0u64..1 << 32,
        ) {
            let dims = (M_SIZES[mi], QR_COLS[ni]);
            check_trsm_contract::<f32>(dims, poison == 0, seed);
            check_trsm_contract::<f64>(dims, poison == 0, seed);
            check_trsm_contract::<C32>(dims, poison == 0, seed);
            check_trsm_contract::<C64>(dims, poison == 0, seed);
        }
    }

    /// The fold contract across the `NC` column slices: narrow in `m` and
    /// `k`, so that the widths the proptest would pay for dearly are cheap.
    #[test]
    fn kernel_equals_reference_fold_across_column_slices() {
        for (n, seed) in [(NC - 1, 1), (NC, 2), (NC + 1, 3), (2 * NC + 5, 4)] {
            let dims = (MC + 5, 9, n);
            check_fold_contract::<f32>(dims, (3, 3), true, seed);
            check_fold_contract::<f64>(dims, (3, 3), true, seed);
            check_fold_contract::<C32>(dims, (3, 3), true, seed);
            check_fold_contract::<C64>(dims, (3, 3), true, seed);
        }
    }

    /// Wider lanes, same IEEE operations, same bits: every instantiation of
    /// the microkernel this CPU runs on identical inputs, through `gemm`,
    /// the three CholeskyQR kernels and `heevd`. The narrow shapes take the
    /// in-place orientation under every instantiation (TRSM's passes too),
    /// `n = IN_PLACE_PANELS * 8` under 512-bit lanes only, so that one run
    /// compares the two orientations.
    #[test]
    fn instantiations_agree_bitwise() {
        fn all<T: Scalar>(dims: (usize, usize, usize), seed: u64) {
            let (m, _, n) = dims;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (oa, ob) = contract_operands::<T>(dims, true, &mut rng);
            let alpha = T::sample_standard(&mut rng);
            let beta = T::sample_standard(&mut rng);
            let c0 = Matrix::<T>::random(m, n, &mut rng);
            // The CholeskyQR chain on one block — Gram of op(A) (with its
            // inf), POTRF of a finite Gram, TRSM by its factor — and the
            // eigenpairs of that Gram matrix.
            let x = Matrix::<T>::random(m + 2 * n, n, &mut rng);
            let run = || {
                let mut out = Vec::new();
                for opa in OPS {
                    let a = stored_for(opa, &oa);
                    for opb in OPS {
                        let b = stored_for(opb, &ob);
                        let mut c = c0.clone();
                        gemm(opa, opb, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut());
                        out.push(bits(&c));
                    }
                }
                let g = gram(x.as_ref());
                let u = potrf_upper(&g).expect("Gram of a tall random block");
                let mut q = x.clone();
                trsm_right_upper(q.as_mut(), &u);
                let (vals, v) = heevd(&g).expect("QL converges");
                let vals = Matrix::<T::Real>::from_vec(n, 1, vals);
                out.extend([gram(oa.as_ref()), g, u, q, v].map(|m| bits(&m)));
                out.push(bits(&vals));
                out
            };
            let portable = with_isa(Isa::Portable, run).expect("runs on every CPU");
            for isa in [Isa::Avx2, Isa::Avx512] {
                if let Some(got) = with_isa(isa, run) {
                    let what = format!("{} {dims:?} on {isa:?}", std::any::type_name::<T>());
                    assert!(got == portable, "{what}: bits differ from the portable run");
                }
            }
        }
        for (dims, seed) in [
            ((133, 301, 37), 1),
            ((129, 257, 130), 2),
            ((17, 5, 3), 3),
            ((19, 9, 7), 4),
            ((35, 40, 9), 5),
            ((133, 301, IN_PLACE_PANELS * 4), 6),
            ((150, 64, IN_PLACE_PANELS * 8), 7),
        ] {
            all::<f32>(dims, seed);
            all::<f64>(dims, seed);
            all::<C32>(dims, seed);
            all::<C64>(dims, seed);
        }
    }

    /// A witness on which one rounding per term and two differ, through
    /// `gemm` (adding) and `trsm_right_upper` (subtracting, nest and in-panel
    /// sweep) under every instantiation: a kernel that silently un-fuses, or
    /// a libm whose `fma` is not exact, fails here by name. With
    /// `x = 1 + 2^-h` and `c = -(1 + 2^-(h-1))`, `x*x + c` is `2^-2h` fused
    /// and `0` once the product is rounded on its own (`h` = 30 for f64, 13
    /// for f32); a complex term shows it in each component.
    #[test]
    fn fused_term_rounds_once() {
        fn witness<T: Scalar>(h: i32) {
            let real = |e: i32| T::Real::from_f64_r(2f64.powi(e));
            let one = <T::Real as Scalar>::one();
            let (x, c, tiny) = (one + real(-h), -(one + real(1 - h)), real(-2 * h));
            let zero = <T::Real as Scalar>::zero();
            assert_eq!(x * x + c, zero, "the unfused term loses the witness");
            // (c, s, a, fused result): s*a is x^2 in the real part, then in the
            // imaginary part through either product, then -(x^2) through the
            // product the real part subtracts.
            let mut cases = vec![(
                T::from_re_im(c, zero),
                T::from_real(x),
                T::from_real(x),
                T::from_re_im(tiny, zero),
            )];
            if T::IS_COMPLEX {
                cases.extend([
                    (
                        T::from_re_im(zero, c),
                        T::from_real(x),
                        T::from_re_im(zero, x),
                        T::from_re_im(zero, tiny),
                    ),
                    (
                        T::from_re_im(zero, c),
                        T::from_re_im(zero, x),
                        T::from_real(x),
                        T::from_re_im(zero, tiny),
                    ),
                    (
                        T::from_re_im(-c, zero),
                        T::from_re_im(zero, x),
                        T::from_re_im(zero, x),
                        T::from_re_im(-tiny, zero),
                    ),
                ]);
            }
            let what = std::any::type_name::<T>();
            for (c, s, a, want) in cases {
                assert_eq!(T::mul_acc(c, s, a), want, "{what}: mul_acc({c}, {s}, {a})");
                // `C = 1*C + A*B` with `A` a column of `a` and `B = [s]`; and
                // the solve `X R^-1` whose column `j` takes `-= R[l, j] * X[:, l]`
                // from column `l = 0` — through the nest for `j = PANEL`, in the
                // in-panel sweep for `j = 1` — with `X[:, l] = a`, `R[l, j] = -s`.
                let m = 19;
                let a_col = Matrix::<T>::from_fn(m, 1, |_, _| a);
                let b = Matrix::<T>::from_fn(1, 1, |_, _| s);
                let n = PANEL + 1;
                let mut r = Matrix::<T>::identity(n, n);
                (r[(0, 1)], r[(0, PANEL)]) = (-s, -s);
                let x0 = Matrix::<T>::from_fn(m, n, |_, j| match j {
                    0 => a,
                    1 | PANEL => c,
                    _ => T::zero(),
                });
                on_each_isa(|isa| {
                    let mut got = Matrix::<T>::from_fn(m, 1, |_, _| c);
                    let (one, a_col, b) = (T::one(), a_col.as_ref(), b.as_ref());
                    gemm(Op::None, Op::None, one, a_col, b, one, got.as_mut());
                    assert!(
                        got.as_slice().iter().all(|&v| v == want),
                        "{what}: gemm un-fused {c} + {s}*{a} on {isa:?}"
                    );
                    let mut x = x0.clone();
                    trsm_right_upper(x.as_mut(), &r);
                    for j in [1, PANEL] {
                        assert!(
                            x.col(j).iter().all(|&v| v == want),
                            "{what}: trsm un-fused column {j} on {isa:?}"
                        );
                    }
                });
            }
        }
        witness::<f64>(30);
        witness::<C64>(30);
        witness::<f32>(13);
        witness::<C32>(13);
    }

    /// The half of [`Isa::dispatch`]'s contract that no bitwise test sees:
    /// what is passed to it is compiled for the level — an
    /// `#[inline(always)]` closure, inlined into the trampoline — and not
    /// left at the baseline, where every fused term is a call into libm (the
    /// same bits, an order of magnitude slower). So it is timed: the
    /// microkernel through `gemm` (either orientation), and the in-panel sweeps of
    /// `trsm_right_upper` and `potrf_upper` on inputs one `PANEL` wide (all
    /// sweep, no pass of the nest), each at the widest level against
    /// `Portable`, best of several runs. The two sides alternate run by run,
    /// so a burst of load on the host slows both alike instead of only the
    /// one timed while it lasts. Load that lasts longer (seen on a shared
    /// 2-vCPU host: `potrf_upper`'s ~3 µs dispatched sweep slowed by about
    /// half and its baseline by a sixth, for seconds at a time) is waited
    /// out: the sampling goes on, round after round of the same runs, until
    /// the best times clear the bound or `PATIENCE` has passed. A kernel left
    /// at the baseline never clears it, so it fails after `PATIENCE`. A CPU
    /// with no wider level, or a build whose baseline has FMA itself, has
    /// nothing to tell apart.
    #[test]
    fn dispatched_code_is_compiled_for_its_level() {
        const PATIENCE: std::time::Duration = std::time::Duration::from_secs(3);
        if Isa::detect() == Isa::Portable || cfg!(target_feature = "fma") {
            println!("skipped: the baseline is this CPU's only level, or has FMA in this build");
            return;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = Matrix::<C64>::random(96, 96, &mut rng);
        let narrow = Matrix::<C64>::random(96, 8, &mut rng);
        let x = Matrix::<C64>::random(1024, PANEL, &mut rng);
        let g = gram(x.as_ref());
        let u = potrf_upper(&g).expect("Gram of a tall random block");
        let kernels: [(&str, usize, &dyn Fn()); 4] = [
            ("gemm (the microkernel)", 5, &|| {
                std::hint::black_box(gemm_new(Op::None, Op::None, &a, &a));
            }),
            ("gemm of 8 columns (in place)", 20, &|| {
                std::hint::black_box(gemm_new(Op::ConjTrans, Op::None, &a, &narrow));
            }),
            ("trsm_right_upper's in-panel sweep", 5, &|| {
                let mut q = x.clone();
                trsm_right_upper(q.as_mut(), &u);
                std::hint::black_box(q);
            }),
            ("potrf_upper's in-panel sweep", 200, &|| {
                std::hint::black_box(potrf_upper(&g).expect("as above"));
            }),
        ];
        for (what, runs, kernel) in kernels {
            let one = || {
                let t = std::time::Instant::now();
                kernel();
                t.elapsed()
            };
            let mut at_level = std::time::Duration::MAX;
            let mut at_baseline = std::time::Duration::MAX;
            let started = std::time::Instant::now();
            let mut rounds = 0;
            while rounds == 0 || (at_baseline <= 2 * at_level && started.elapsed() < PATIENCE) {
                for _ in 0..runs {
                    at_level = at_level.min(one());
                    let portable = with_isa(Isa::Portable, one).expect("runs on every CPU");
                    at_baseline = at_baseline.min(portable);
                }
                rounds += 1;
            }
            println!(
                "{what}: {at_level:?} dispatched, {at_baseline:?} at the baseline \
                 (best of {rounds} x {runs} runs each)"
            );
            assert!(
                at_baseline > 2 * at_level,
                "{what}: {at_level:?} on {:?} against {at_baseline:?} at the baseline — its \
                 fused terms are libm calls, so it was not inlined into the trampoline",
                Isa::detect()
            );
        }
    }

    /// The two orientations of the nest agree bit for bit on the local
    /// blocks of `H` the benchmark's four workloads filter (480 x 240,
    /// 320 x 320, 210 x 420, 240 x 240), both filter directions (`H^H X`,
    /// `H X`), at every width up to one micro-panel past the widest product
    /// read in place: `gemm` against `gemm_prepacked`, which always packs.
    /// `B` has scattered signed zeros and two all-zero rows, whose columns
    /// of `op(H)` hold an `inf` and a `NaN` that must not reach `C`.
    #[test]
    fn in_place_equals_packed_on_filter_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let widest = with_tile_of!(Isa::current(), C64, _MR, NR => (IN_PLACE_PANELS + 1) * NR);
        let alpha = C64::new(0.75, -0.5);
        let beta = C64::new(-0.25, 2.0);
        for (rows, cols) in [(480, 240), (320, 320), (210, 420), (240, 240)] {
            for opa in [Op::None, Op::ConjTrans] {
                let (m, k) = match opa {
                    Op::None => (rows, cols),
                    _ => (cols, rows),
                };
                let shielded = [3, k - 2];
                let mut h = Matrix::<C64>::random(rows, cols, &mut rng);
                for (l, bad) in shielded.into_iter().zip([f64::INFINITY, f64::NAN]) {
                    for i in (0..m).step_by(7) {
                        let at = if opa == Op::None { (i, l) } else { (l, i) };
                        h[at] = C64::new(bad, 1.0);
                    }
                }
                let packed = prepack_a(opa, h.as_ref());
                for n in 1..=widest {
                    let mut b = block_with_zeros::<C64>(k, n, &mut rng);
                    for l in shielded {
                        for j in 0..n {
                            b[(l, j)] = signed_zero(&mut rng);
                        }
                    }
                    let c0 = Matrix::<C64>::random(m, n, &mut rng);
                    let mut want = c0.clone();
                    gemm_prepacked(&packed, Op::None, alpha, b.as_ref(), beta, want.as_mut());
                    let mut got = c0;
                    gemm(
                        opa,
                        Op::None,
                        alpha,
                        h.as_ref(),
                        b.as_ref(),
                        beta,
                        got.as_mut(),
                    );
                    let what = format!("{rows}x{cols} {opa:?} n = {n}");
                    assert!(
                        want.as_slice().iter().all(|v| v.is_finite()),
                        "{what}: leak"
                    );
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
            }
        }
    }

    /// A narrow product allocates no copy of `op(A)`: on a 480 x 480 `A`
    /// it leaves the thread's pack buffers within the module's bound,
    /// `MC*KC + KC*NC` elements, far below the `m*k` of a copy — the
    /// measured alternative, caching packed operands, cost 11 to 22 % peak
    /// RSS (EXPERIMENTS.md). On a thread of its own, whose buffers no other
    /// test has grown.
    #[test]
    fn narrow_products_keep_the_pack_scratch_within_bound() {
        std::thread::spawn(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let (m, k) = (480, 480);
            let a = Matrix::<C64>::random(m, k, &mut rng);
            let ops = [Op::None, Op::ConjTrans, Op::Trans];
            for (opa, n) in ops.into_iter().zip([8, 4, 1]) {
                let b = Matrix::<C64>::random(k, n, &mut rng);
                let mut c = Matrix::<C64>::zeros(m, n);
                gemm(
                    opa,
                    Op::None,
                    C64::one(),
                    a.as_ref(),
                    b.as_ref(),
                    C64::zero(),
                    c.as_mut(),
                );
            }
            let (a_len, b_len, in_place) = scratch_probe::<f64>();
            assert_eq!(in_place, ops.len(), "each narrow product was read in place");
            let p = planes::<C64>();
            assert!(
                a_len + b_len <= p * (MC * KC + KC * NC),
                "pack scratch {a_len} + {b_len} reals past the bound"
            );
            assert!(a_len.max(b_len) < p * m * k, "an m x k copy of op(A)");
        })
        .join()
        .expect("the probe thread");
    }

    /// Panels packed for one instantiation's `MR` and consumed by another
    /// must not be read as if they had the consumer's layout.
    #[test]
    fn prepacked_panels_survive_a_change_of_instantiation() {
        fn one<T: Scalar>(seed: u64) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (m, k, n) = (MC + 11, 70, 9);
            let a = Matrix::<T>::random(k, m, &mut rng);
            let b = Matrix::<T>::random(k, n, &mut rng);
            let mut want = Matrix::<T>::zeros(m, n);
            let (one, zero) = (T::one(), T::zero());
            gemm_reference(Op::ConjTrans, Op::None, one, &a, &b, zero, &mut want);
            for packer in ISAS {
                let Some(packed) = with_isa(packer, || prepack_a(Op::ConjTrans, a.as_ref())) else {
                    continue;
                };
                for consumer in ISAS {
                    with_isa(consumer, || {
                        let mut got = Matrix::<T>::zeros(m, n);
                        gemm_prepacked(&packed, Op::None, one, b.as_ref(), zero, got.as_mut());
                        let what = std::any::type_name::<T>();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{what}: packed on {packer:?}, consumed on {consumer:?}"
                        );
                    });
                }
            }
        }
        one::<f32>(1);
        one::<f64>(2);
        one::<C32>(3);
        one::<C64>(4);
    }

    /// The instantiation a solve logs is the widest one the CPU admits, with
    /// the tile shape the nest runs — so neither a detection slip nor a
    /// stale name can go unnoticed.
    #[test]
    fn kernel_isa_names_the_widest_instantiation_and_its_tile() {
        #[cfg(target_arch = "x86_64")]
        let widest = if std::arch::is_x86_feature_detected!("avx512f") {
            (Isa::Avx512, "avx512f")
        } else if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            (Isa::Avx2, "avx2")
        } else {
            (Isa::Portable, "portable")
        };
        #[cfg(not(target_arch = "x86_64"))]
        let widest = (Isa::Portable, "portable");
        assert_eq!(Isa::current(), widest.0);
        fn tile<T: Scalar>() -> String {
            with_tile_of!(Isa::current(), T, MR, NR => format!("{MR}x{NR}"))
        }
        // What a `mul_add` compiled at the baseline is: on x86-64 a call into
        // libm unless the whole build enables FMA.
        let baseline = if cfg!(all(target_arch = "x86_64", not(target_feature = "fma"))) {
            "libm-fma"
        } else {
            "fma"
        };
        for (isa, name, fma) in [
            (Isa::Portable, "portable", baseline),
            (Isa::Avx2, "avx2", "fma"),
            (Isa::Avx512, "avx512f", "fma"),
            (
                widest.0,
                widest.1,
                if widest.0 == Isa::Portable {
                    baseline
                } else {
                    "fma"
                },
            ),
        ] {
            with_isa(isa, || {
                assert_eq!(
                    kernel_isa::<f32>(),
                    format!("{name} {} {fma}", tile::<f32>())
                );
                assert_eq!(
                    kernel_isa::<f64>(),
                    format!("{name} {} {fma}", tile::<f64>())
                );
                assert_eq!(
                    kernel_isa::<C32>(),
                    format!("{name} {} {fma}", tile::<C32>())
                );
                assert_eq!(
                    kernel_isa::<C64>(),
                    format!("{name} {} {fma}", tile::<C64>())
                );
            });
        }
        println!("kernel: {}", kernel_isa::<C64>());
    }

    fn naive_gemm<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = T::zero();
                for l in 0..a.cols() {
                    s += a[(i, l)] * b[(l, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn gemm_empty_dimensions_are_noops() {
        // Zero-row / zero-column operands: legal under extreme block-cyclic
        // rank layouts; must not panic.
        let a0 = Matrix::<f64>::zeros(0, 4);
        let b = Matrix::<f64>::zeros(4, 3);
        let mut c0 = Matrix::<f64>::zeros(0, 3);
        gemm(
            Op::None,
            Op::None,
            1.0,
            a0.as_ref(),
            b.as_ref(),
            0.0,
            c0.as_mut(),
        );
        let a = Matrix::<f64>::zeros(3, 4);
        let bn = Matrix::<f64>::zeros(4, 0);
        let mut cn = Matrix::<f64>::zeros(3, 0);
        gemm(
            Op::None,
            Op::None,
            1.0,
            a.as_ref(),
            bn.as_ref(),
            0.0,
            cn.as_mut(),
        );
        // k == 0: C = beta * C only.
        let ak = Matrix::<f64>::zeros(2, 0);
        let bk = Matrix::<f64>::zeros(0, 2);
        let mut ck = Matrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64);
        gemm(
            Op::None,
            Op::None,
            1.0,
            ak.as_ref(),
            bk.as_ref(),
            2.0,
            ck.as_mut(),
        );
        assert_eq!(ck[(1, 1)], 4.0);
    }

    #[test]
    fn gemm_matches_naive_all_ops() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Matrix::<C64>::random(7, 5, &mut rng);
        let b = Matrix::<C64>::random(5, 6, &mut rng);
        let c = gemm_new(Op::None, Op::None, &a, &b);
        assert!(c.max_abs_diff(&naive_gemm(&a, &b)) < 1e-12);

        // A^H * B with A stored 5x7
        let ah = Matrix::<C64>::random(5, 7, &mut rng);
        let c2 = gemm_new(Op::ConjTrans, Op::None, &ah, &b);
        assert!(c2.max_abs_diff(&naive_gemm(&ah.adjoint(), &b)) < 1e-12);

        // A * B^T with B stored 6x5
        let bt = Matrix::<C64>::random(6, 5, &mut rng);
        let c3 = gemm_new(Op::None, Op::Trans, &a, &bt);
        assert!(c3.max_abs_diff(&naive_gemm(&a, &bt.transpose())) < 1e-12);

        // A^T * B^H
        let c4 = gemm_new(Op::Trans, Op::ConjTrans, &ah, &bt);
        assert!(c4.max_abs_diff(&naive_gemm(&ah.transpose(), &bt.adjoint())) < 1e-12);
    }

    #[test]
    fn gemm_alpha_beta() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = Matrix::<f64>::random(4, 3, &mut rng);
        let b = Matrix::<f64>::random(3, 2, &mut rng);
        let mut c = Matrix::<f64>::random(4, 2, &mut rng);
        let c0 = c.clone();
        gemm(
            Op::None,
            Op::None,
            2.0,
            a.as_ref(),
            b.as_ref(),
            3.0,
            c.as_mut(),
        );
        let mut expect = naive_gemm(&a, &b);
        for j in 0..2 {
            for i in 0..4 {
                let prev = expect[(i, j)];
                expect[(i, j)] = 2.0 * prev + 3.0 * c0[(i, j)];
            }
        }
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn gemm_tiled_crosses_all_block_boundaries() {
        // Shapes strictly larger than MC/NC/KC with ragged remainders, so
        // every tile loop runs more than once and ends on a partial tile.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (m, n, k) = (MC + 37, NC + 13, KC + 61);
        let a = Matrix::<C64>::random(m, k, &mut rng);
        let b = Matrix::<C64>::random(k, n, &mut rng);
        let c = gemm_new(Op::None, Op::None, &a, &b);
        assert!(c.max_abs_diff(&naive_gemm(&a, &b)) < 1e-9);
        // Transposed operands too.
        let ah = Matrix::<C64>::random(k, m, &mut rng);
        let c2 = gemm_new(Op::ConjTrans, Op::None, &ah, &b);
        assert!(c2.max_abs_diff(&naive_gemm(&ah.adjoint(), &b)) < 1e-9);
    }

    #[test]
    fn gemm_column_panels_are_bitwise_identical_to_flat() {
        // The overlapped filter splits C into column panels and issues one
        // GEMM per panel; each panel call must reproduce the flat call's
        // bits exactly, for any panel width.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let (m, k, n) = (150, 170, 41);
        let a = Matrix::<C64>::random(m, k, &mut rng);
        let b = Matrix::<C64>::random(k, n, &mut rng);
        let mut flat = Matrix::<C64>::random(m, n, &mut rng);
        let c0 = flat.clone();
        let alpha = C64::sample_standard(&mut rng);
        let beta = C64::sample_standard(&mut rng);
        gemm(
            Op::None,
            Op::None,
            alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            flat.as_mut(),
        );
        for panel in [1usize, 7, 32, 41] {
            let mut split = c0.clone();
            let mut j0 = 0;
            while j0 < n {
                let w = panel.min(n - j0);
                gemm(
                    Op::None,
                    Op::None,
                    alpha,
                    a.as_ref(),
                    b.cols_ref(j0..j0 + w),
                    beta,
                    split.cols_mut(j0..j0 + w),
                );
                j0 += w;
            }
            assert_eq!(
                flat.as_ref().as_slice(),
                split.as_ref().as_slice(),
                "panel width {panel} changed bits"
            );
        }

        // The filter's odd steps: H^H X with a complex alpha, op(A) packed
        // once by `prepack_a` and reused across the panels.
        let ah = Matrix::<C64>::random(k, m, &mut rng);
        let mut flat = c0.clone();
        gemm(
            Op::ConjTrans,
            Op::None,
            alpha,
            ah.as_ref(),
            b.as_ref(),
            beta,
            flat.as_mut(),
        );
        let packed = prepack_a(Op::ConjTrans, ah.as_ref());
        assert_eq!((packed.m(), packed.k()), (m, k));
        for panel in [1usize, 7, 32, 41] {
            let mut split = c0.clone();
            for j0 in (0..n).step_by(panel) {
                let cols = j0..(j0 + panel).min(n);
                gemm_prepacked(
                    &packed,
                    Op::None,
                    alpha,
                    b.cols_ref(cols.clone()),
                    beta,
                    split.cols_mut(cols),
                );
            }
            assert_eq!(
                flat.as_ref().as_slice(),
                split.as_ref().as_slice(),
                "prepacked ConjTrans, panel width {panel} changed bits"
            );
        }
    }

    /// Exactly Hermitian, diagonal exactly real, under every instantiation —
    /// although the fused diagonal sum is not: with `s = x` and
    /// `a = conj(x)` its imaginary part takes `fma(x.im, x.re, -(x.re*x.im))`
    /// per term, the rounding error of the product, where the unfused term
    /// cancelled to `0`. `gram` drops it when it mirrors.
    #[test]
    fn gram_is_hermitian_psd() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x = Matrix::<C64>::random(30, 6, &mut rng);
        let fused_diagonal = |j: usize| {
            let terms = x.col(j).iter();
            terms.fold(C64::zero(), |c, &s| C64::mul_acc(c, s, s.conj()))
        };
        assert!((0..6).any(|j| fused_diagonal(j).im() != 0.0));
        on_each_isa(|isa| {
            let g = gram(x.as_ref());
            assert_eq!(g.as_slice(), g.adjoint().as_slice(), "{isa:?}");
            let expect = gemm_new(Op::ConjTrans, Op::None, &x, &x);
            assert!(g.max_abs_diff(&expect) < 1e-12);
            for i in 0..6 {
                assert!(g[(i, i)].re() > 0.0);
                assert_eq!(g[(i, i)], C64::from_real(fused_diagonal(i).re()), "{isa:?}");
            }
        });
    }

    #[test]
    fn trsm_inverts_triangular() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Build a well-conditioned upper-triangular R.
        let mut r = Matrix::<C64>::random(5, 5, &mut rng);
        for j in 0..5 {
            for i in j + 1..5 {
                r[(i, j)] = C64::zero();
            }
            r[(j, j)] += C64::from_f64(4.0);
        }
        let x = Matrix::<C64>::random(9, 5, &mut rng);
        let mut y = x.clone();
        trsm_right_upper(y.as_mut(), &r);
        // y * R should reproduce x
        let back = gemm_new(Op::None, Op::None, &y, &r);
        assert!(back.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn gemv_all_ops() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let a = Matrix::<C64>::random(4, 3, &mut rng);
        let x3: Vec<C64> = (0..3).map(|_| C64::sample_standard(&mut rng)).collect();
        let x4: Vec<C64> = (0..4).map(|_| C64::sample_standard(&mut rng)).collect();

        let mut y = vec![C64::zero(); 4];
        gemv(Op::None, C64::one(), &a, &x3, C64::zero(), &mut y);
        let xm = Matrix::from_vec(3, 1, x3.clone());
        let expect = gemm_new(Op::None, Op::None, &a, &xm);
        for i in 0..4 {
            assert!((y[i] - expect[(i, 0)]).abs() < 1e-12);
        }

        let mut z = vec![C64::zero(); 3];
        gemv(Op::ConjTrans, C64::one(), &a, &x4, C64::zero(), &mut z);
        let xm4 = Matrix::from_vec(4, 1, x4.clone());
        let expect2 = gemm_new(Op::ConjTrans, Op::None, &a, &xm4);
        for i in 0..3 {
            assert!((z[i] - expect2[(i, 0)]).abs() < 1e-12);
        }
    }
}
