//! x86-64 lane impls and the `#[target_feature]` wrappers that instantiate
//! [`fill_block`] and the tracker fold at each feature level. An impl is a
//! table of which instruction performs each [`Lanes`] primitive; everything
//! that differs between backends lives here and nothing else does.

use super::fill::{fill_block, BlockIo};
use super::lane_mask;
use super::lanes::{DiagMasks, Lanes};
use crate::block::{BlockCellsT, BlockCtx};
use crate::diag::DiagTracker;
use crate::{BLOCK, MAX_BLOCK, MAX_BLOCK_DIAGS};
#[allow(clippy::wildcard_imports)]
use std::arch::x86_64::*;

/// The one fill body and the one tracker-fold body compiled at a feature
/// level, as the `$fill` / `$fold` pair dispatch enters them through.
macro_rules! feature_level {
    ($features:literal, $fill:ident, $fold:ident, $(#[$doc:meta])+) => {
        /// [`fill_block`] at this level:
        $(#[$doc])+
        #[target_feature(enable = $features)]
        pub(super) unsafe fn $fill<L: Lanes<N>, const N: usize>(
            ctx: &BlockCtx<'_>,
            i0: i64,
            j0: i64,
            io: BlockIo<'_, N>,
        ) {
            fill_block::<L, N>(ctx, i0, j0, io);
        }

        /// [`DiagTracker::fold_block`] at this level:
        $(#[$doc])+
        #[target_feature(enable = $features)]
        pub(super) unsafe fn $fold<L: Lanes<N>, const N: usize>(
            tracker: &mut DiagTracker,
            cells: &BlockCellsT<i16, N>,
        ) {
            tracker.fold_block::<L, N>(cells);
        }
    };
}

feature_level! {
    "sse4.1", fill_sse41, fold_sse41,
    /// SSE4.1 codegen — the minimum level the 8×i16 lanes and `phminposuw`
    /// need, serving pre-AVX2 x86-64 at full vector speed.
    ///
    /// # Safety
    /// Requires SSE4.1 (checked by the caller), and an `L` needing nothing newer.
}

feature_level! {
    "avx2", fill_avx2, fold_avx2,
    /// AVX2 codegen. For the 128-bit [`Sse41I16`] lanes this is the same
    /// algorithm with VEX 3-operand encodings, which save the register-move
    /// traffic the legacy SSE destructive forms pay (measurably faster on
    /// AVX2 hosts).
    ///
    /// # Safety
    /// Requires AVX2 (checked by the caller), and an `L` needing nothing newer.
}

feature_level! {
    "avx512bw,avx512vl", fill_avx512, fold_avx512,
    /// AVX-512BW/VL codegen.
    ///
    /// # Safety
    /// Requires AVX-512BW and AVX-512VL (checked by the caller).
}

/// The primitives that are one instruction each: `name(args) -> V|M = intrinsic;`.
macro_rules! one_instruction {
    ($($name:ident($($arg:ident),+) -> $ret:ident = $intrinsic:ident;)+) => {$(
        #[inline(always)]
        unsafe fn $name($($arg: Self::V),+) -> Self::$ret {
            $intrinsic($($arg),+)
        }
    )+};
}

/// [`Lanes::minpos8`] as the one instruction it is named after, one body for
/// every i16 impl at geometry `$b` (128-bit only, so the wide impls reduce a
/// row half by half too).
macro_rules! minpos8_phminposuw {
    ($b:expr) => {
        #[inline(always)]
        unsafe fn minpos8(row: &[i16; $b], half: usize) -> u32 {
            let y = _mm_sub_epi16(_mm_set1_epi16(i16::MAX), Sse41I16::load(row, 8 * half));
            _mm_cvtsi128_si32(_mm_minpos_epu16(y)) as u32
        }
    };
}

/// Lane `l`'s bit of a mask word, as i16 lanes (the vector-mask impls turn
/// mask bits into a lane mask with one `and` + `cmpeq` against these).
const LANE_BIT: [i16; MAX_BLOCK] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, i16::MIN];

/// 8×i16 in an xmm (B=8). Every instruction is SSE4.1 or older;
/// AVX2-or-wider hosts run it VEX-encoded through [`fill_avx2`] (the 8-lane
/// vector leaves wider registers nothing to fuse).
pub(crate) struct Sse41I16;

impl Lanes<BLOCK> for Sse41I16 {
    type V = __m128i;
    type M = __m128i;

    one_instruction! {
        add(a, b) -> V = _mm_adds_epi16;
        sub(a, b) -> V = _mm_subs_epi16;
        max(a, b) -> V = _mm_max_epi16;
        cmp_eq(a, b) -> M = _mm_cmpeq_epi16;
        cmp_gt(a, b) -> M = _mm_cmpgt_epi16;
    }
    minpos8_phminposuw!(BLOCK);
    #[inline(always)]
    unsafe fn splat(x: i16) -> __m128i {
        _mm_set1_epi16(x)
    }
    #[inline(always)]
    unsafe fn load(src: &[i16], at: usize) -> __m128i {
        debug_assert!(at + BLOCK <= src.len(), "8-lane load past the end");
        // SAFETY: the 16 bytes at `src[at..at + 8]` are in bounds (asserted).
        _mm_loadu_si128(src.as_ptr().add(at).cast())
    }
    #[inline(always)]
    unsafe fn store(dst: &mut [i16; BLOCK], v: __m128i) {
        _mm_storeu_si128(dst.as_mut_ptr().cast(), v);
    }
    /// One `palignr` — a short loop-carried dependency.
    #[inline(always)]
    unsafe fn shift_in(v: __m128i, boundary: i16) -> __m128i {
        _mm_alignr_epi8(v, _mm_set1_epi16(boundary), 14)
    }
    #[inline(always)]
    unsafe fn mask_from_bits(bits: u16) -> __m128i {
        let lane_bit = Self::load(&LANE_BIT, 0);
        _mm_cmpeq_epi16(_mm_and_si128(_mm_set1_epi16(bits as i16), lane_bit), lane_bit)
    }
    #[inline(always)]
    unsafe fn select(m: __m128i, on: __m128i, off: __m128i) -> __m128i {
        _mm_blendv_epi8(off, on, m)
    }
    #[inline(always)]
    unsafe fn rebase_boundary(src: &[i32; BLOCK], base: i32) -> [i16; BLOCK] {
        let b = _mm_set1_epi32(base);
        let lo = _mm_sub_epi32(_mm_loadu_si128(src.as_ptr().cast()), b);
        // SAFETY: elements 4..8 of the 8-element source.
        let hi = _mm_sub_epi32(_mm_loadu_si128(src.as_ptr().add(4).cast()), b);
        let mut out = [0i16; BLOCK];
        Self::store(&mut out, _mm_packs_epi32(lo, hi));
        out
    }
}

/// The 16×i16 ymm operations [`Avx2I16`] and [`Avx512I16`] share: both run
/// one 256-bit vector per diagonal and differ only in how lanes are
/// predicated.
macro_rules! ymm_i16_lanes {
    () => {
        type V = __m256i;

        minpos8_phminposuw!(MAX_BLOCK);
        one_instruction! {
            add(a, b) -> V = _mm256_adds_epi16;
            sub(a, b) -> V = _mm256_subs_epi16;
            max(a, b) -> V = _mm256_max_epi16;
        }
        #[inline(always)]
        unsafe fn splat(x: i16) -> __m256i {
            _mm256_set1_epi16(x)
        }
        #[inline(always)]
        unsafe fn load(src: &[i16], at: usize) -> __m256i {
            debug_assert!(at + MAX_BLOCK <= src.len(), "16-lane load past the end");
            // SAFETY: the 32 bytes at `src[at..at + 16]` are in bounds
            // (asserted).
            _mm256_loadu_si256(src.as_ptr().add(at).cast())
        }
        #[inline(always)]
        unsafe fn store(dst: &mut [i16; MAX_BLOCK], v: __m256i) {
            _mm256_storeu_si256(dst.as_mut_ptr().cast(), v);
        }
        /// `_mm256_alignr_epi8` concatenates per 128-bit half, so the carry
        /// operand must hold — in byte position 14..16 of each half — the
        /// value entering that half's lane 0: `boundary` for the low half,
        /// `v`'s lane 7 for the high half. `permute2x128(set1(boundary), v,
        /// 0x20)` builds exactly that: `[set1(boundary)_lo | v_lo]`.
        ///
        /// AVX-512 keeps this sequence rather than a cross-lane `vpermw`:
        /// the shift sits on the loop-carried chain, and here the boundary
        /// broadcast folds into the carry build off-chain, whereas `vpermw`
        /// plus a lane-0 masked broadcast stacks both on it (measurably
        /// slower per diagonal on Skylake-X/Ice Lake).
        #[inline(always)]
        unsafe fn shift_in(v: __m256i, boundary: i16) -> __m256i {
            let carry = _mm256_permute2x128_si256(_mm256_set1_epi16(boundary), v, 0x20);
            _mm256_alignr_epi8(v, carry, 14)
        }
    };
}

/// 16×i16 in a ymm with vector-mask predicates (B=16 on AVX2).
pub(crate) struct Avx2I16;

impl Lanes<MAX_BLOCK> for Avx2I16 {
    type M = __m256i;
    ymm_i16_lanes!();

    one_instruction! {
        cmp_eq(a, b) -> M = _mm256_cmpeq_epi16;
        cmp_gt(a, b) -> M = _mm256_cmpgt_epi16;
    }
    #[inline(always)]
    unsafe fn mask_from_bits(bits: u16) -> __m256i {
        let lane_bit = Self::load(&LANE_BIT, 0);
        _mm256_cmpeq_epi16(_mm256_and_si256(_mm256_set1_epi16(bits as i16), lane_bit), lane_bit)
    }
    #[inline(always)]
    unsafe fn select(m: __m256i, on: __m256i, off: __m256i) -> __m256i {
        _mm256_blendv_epi8(off, on, m)
    }
    /// `_mm256_packs_epi32(a, b)` interleaves per 128-bit half (qwords come
    /// out as `a0..3, b0..3, a4..7, b4..7`); the `permute4x64` with selector
    /// `0b11011000` (qword order 0,2,1,3) restores source order.
    #[inline(always)]
    unsafe fn rebase_boundary(src: &[i32; MAX_BLOCK], base: i32) -> [i16; MAX_BLOCK] {
        let base = _mm256_set1_epi32(base);
        let a = _mm256_sub_epi32(_mm256_loadu_si256(src.as_ptr().cast()), base);
        // SAFETY: elements 8..16 of the 16-element source.
        let b = _mm256_sub_epi32(_mm256_loadu_si256(src.as_ptr().add(8).cast()), base);
        let mut out = [0i16; MAX_BLOCK];
        Self::store(&mut out, _mm256_permute4x64_epi64(_mm256_packs_epi32(a, b), 0b11011000));
        out
    }
}

/// 16×i16 in a ymm with `__mmask16` predicates (B=16 on AVX-512BW/VL): the
/// staged mask word *is* the mask operand, so no mask vector is ever built,
/// and the north pre-seed is one masked broadcast.
pub(crate) struct Avx512I16;

impl Lanes<MAX_BLOCK> for Avx512I16 {
    type M = __mmask16;
    ymm_i16_lanes!();

    one_instruction! {
        cmp_eq(a, b) -> M = _mm256_cmpeq_epi16_mask;
        cmp_gt(a, b) -> M = _mm256_cmpgt_epi16_mask;
    }
    #[inline(always)]
    unsafe fn mask_from_bits(bits: u16) -> __mmask16 {
        bits
    }
    #[inline(always)]
    unsafe fn select(m: __mmask16, on: __m256i, off: __m256i) -> __m256i {
        _mm256_mask_blend_epi16(m, off, on)
    }
    /// One subtract and a single `vpmovsdw` on the full zmm.
    #[inline(always)]
    unsafe fn rebase_boundary(src: &[i32; MAX_BLOCK], base: i32) -> [i16; MAX_BLOCK] {
        let off = _mm512_sub_epi32(_mm512_loadu_epi32(src.as_ptr()), _mm512_set1_epi32(base));
        let mut out = [0i16; MAX_BLOCK];
        Self::store(&mut out, _mm512_cvtsepi32_epi16(off));
        out
    }
    /// Two finished 16-lane rows are contiguous in the staging buffer, i.e.
    /// exactly one zmm: the staging traffic runs at 512-bit width.
    #[inline(always)]
    unsafe fn store2(
        rows: &mut [[i16; MAX_BLOCK]; MAX_BLOCK_DIAGS],
        d: usize,
        lo: __m256i,
        hi: __m256i,
    ) {
        debug_assert!(d + 1 < MAX_BLOCK_DIAGS, "row pair past the staging buffer");
        let pair = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi);
        // SAFETY: rows `d` and `d + 1` both exist (asserted); the pointer is
        // derived from the whole buffer, so it may span them.
        _mm512_storeu_epi16(rows.as_mut_ptr().add(d).cast(), pair);
    }
    /// All `2B−1` masks in two 16-diagonal vector steps instead of 31 branchy
    /// scalar range computations — the dominant per-block overhead of edge
    /// blocks, and under a short band a large fraction of blocks are edge
    /// blocks.
    ///
    /// [`BlockCtx::lane_range`]'s four lower and four upper bounds are all
    /// affine in `d`, so 16 diagonals evaluate as one `max`/`min` ladder
    /// over an i32 lane vector. The i64 geometry terms are pre-clamped to
    /// `±64` scalars first: every term is only ever compared against the
    /// in-block range `[0, B−1]`, so any value beyond `±64` acts exactly
    /// like `±64` (still never/always binding), keeping the i32 lanes
    /// exact. Empty diagonals (`lo > hi`, including everything the clamps
    /// pushed out of range) zero their mask through the `nonempty`
    /// mask-register; `vpsllvd` yields 0 for any shift count ≥ 32, so the
    /// out-of-range `lo`/`hi` lanes cannot leak bits into live ones.
    #[inline(always)]
    unsafe fn edge_masks(ctx: &BlockCtx<'_>, i0: i64, j0: i64) -> DiagMasks {
        let off = i0 - j0;
        let mq = (ctx.m - 1 - j0).min(63) as i32;
        let ni = (ctx.n - 1 - i0).min(63) as i32;
        // `lo` band term: ceil((d − w − off) / 2) = (d + (1 − w − off)) >> 1.
        let t_lo = (1 - ctx.w - off).clamp(-64, 64) as i32;
        // `hi` band term: floor((d + w − off) / 2) = (d + (w − off)) >> 1.
        let t_hi = (ctx.w - off).clamp(-64, 64) as i32;
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let one = _mm512_set1_epi32(1);
        let last = _mm512_set1_epi32(MAX_BLOCK as i32 - 1);
        let mut out: DiagMasks = [0; MAX_BLOCK_DIAGS + 1];
        for chunk in 0..2usize {
            let d = _mm512_add_epi32(lanes, _mm512_set1_epi32(chunk as i32 * 16));
            let lo = _mm512_max_epi32(
                _mm512_max_epi32(_mm512_setzero_si512(), _mm512_sub_epi32(d, last)),
                _mm512_max_epi32(
                    _mm512_sub_epi32(d, _mm512_set1_epi32(mq)),
                    _mm512_srai_epi32::<1>(_mm512_add_epi32(d, _mm512_set1_epi32(t_lo))),
                ),
            );
            let hi = _mm512_min_epi32(
                _mm512_min_epi32(last, d),
                _mm512_min_epi32(
                    _mm512_set1_epi32(ni),
                    _mm512_srai_epi32::<1>(_mm512_add_epi32(d, _mm512_set1_epi32(t_hi))),
                ),
            );
            let nonempty = _mm512_cmple_epi32_mask(lo, hi);
            // ((1 << (hi+1)) − (1 << lo)) — the contiguous run lo..=hi.
            let bits = _mm512_maskz_sub_epi32(
                nonempty,
                _mm512_sllv_epi32(one, _mm512_add_epi32(hi, one)),
                _mm512_sllv_epi32(one, lo),
            );
            debug_assert!(chunk * 16 + 16 <= out.len(), "mask chunk past the table");
            // SAFETY: the 16 masks at `out[chunk * 16..]` are in bounds (asserted).
            _mm256_storeu_si256(
                out.as_mut_ptr().add(chunk * 16).cast(),
                _mm512_cvtepi32_epi16(bits),
            );
        }
        for (d, &m) in out.iter().enumerate().take(MAX_BLOCK_DIAGS) {
            debug_assert_eq!(m, lane_mask(ctx, i0, j0, d), "edge mask diverged at d = {d}");
        }
        out
    }
}
