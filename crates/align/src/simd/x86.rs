//! x86-64 feature-level tokens, lane impls and the `#[target_feature]`
//! wrappers that instantiate [`fill_segment`] and the tracker fold at each
//! level. An impl is a table of which instruction performs each [`Lanes`]
//! primitive; everything that differs between backends lives here and nothing
//! else does — including every `unsafe` below the dispatch arms (see the
//! [module header](super#safety)): a token is the proof that the CPU has its
//! level, a lane impl holds one, so inside a lane method "`self` exists" is
//! the whole safety argument.

use super::fill::{fill_segment, matrix_sub_rows, SegmentIo};
use super::lanes::Lanes;
use crate::block::{BlockCellsT, BlockCtx};
use crate::diag::{DiagTracker, CHUNK};
use crate::scoring::SubstMatrix;
use crate::{BLOCK, MAX_BLOCK, MAX_STRIP, STAGE_ROWS};
use std::arch::is_x86_feature_detected;
#[allow(clippy::wildcard_imports)]
use std::arch::x86_64::*;

/// A feature-level token: a zero-sized proof that this CPU has every level
/// up to `RANK` of the chain `Portable < Sse41 < Avx2 < Avx512`. The field is
/// private, so the only ways to a value are [`Level::detect`] and a token of
/// a higher level ([`Level::lower`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Level<const RANK: u8>(());

/// SSE4.1 — all the 8×i16 lanes and the fold's `phminposuw` row reduce need.
pub(crate) type Sse41 = Level<1>;
/// AVX2: one 16×i16 ymm per diagonal at B=16, VEX encodings at B=8.
pub(crate) type Avx2 = Level<2>;
/// AVX-512BW (16-bit ops at 512-bit width, `__mmask32` predicates) plus
/// AVX-512VL: the 32-lane zmm strip. AVX2 is part of the probe, so this level
/// runs the AVX2 kernels at every narrower side.
pub(crate) type Avx512 = Level<3>;

impl<const RANK: u8> Level<RANK> {
    /// The token, if runtime detection (cached by `std`) finds the level —
    /// never under Miri, which interprets no vendor intrinsics worth the name.
    pub(crate) fn detect() -> Option<Self> {
        let found = match RANK {
            1 => is_x86_feature_detected!("sse4.1"),
            2 => is_x86_feature_detected!("avx2"),
            3 => {
                is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx2")
            }
            _ => false,
        };
        (!cfg!(miri) && found).then_some(Level(()))
    }

    /// Every level implies the ones below it (checked at compile time).
    pub(crate) fn lower<const TO: u8>(self) -> Level<TO> {
        const { assert!(TO <= RANK, "a level proves only the levels below it") };
        Level(())
    }
}

/// The one segment body (fill, and fold of every staged window) and the one
/// tracker-fold body compiled at a feature level, as the `$segment` / `$fold`
/// pair dispatch enters them through — once per segment, once per block
/// folded on its own (a level no such block reaches has no `$fold`). Safe
/// functions: `_level` proves what `#[target_feature]` assumes, and `L`
/// proves its own instructions — the `unsafe` is at the call, where the
/// compiler asks for the level and the caller shows the token.
macro_rules! feature_level {
    ($features:literal, $token:ident, $segment:ident, $fold:ident, $(#[$doc:meta])+) => {
        feature_level! { $features, $token, $segment, $(#[$doc])+ }

        /// [`DiagTracker::fold_block`] at this level:
        $(#[$doc])+
        #[target_feature(enable = $features)]
        pub(super) fn $fold<L: Lanes<N>, const N: usize>(
            _level: $token,
            lanes: L,
            tracker: &mut DiagTracker,
            cells: &BlockCellsT<i16, N>,
        ) {
            tracker.fold_block(lanes, cells, &mut true);
        }
    };
    ($features:literal, $token:ident, $segment:ident, $(#[$doc:meta])+) => {
        /// [`fill_segment`] at this level:
        $(#[$doc])+
        #[target_feature(enable = $features)]
        pub(super) fn $segment<L: Lanes<N>, const N: usize>(
            _level: $token,
            lanes: L,
            ctx: &BlockCtx<'_>,
            io: SegmentIo<'_, N>,
        ) {
            fill_segment(lanes, ctx, io);
        }
    };
}

feature_level! {
    "sse4.1", Sse41, segment_sse41, fold_sse41,
    /// SSE4.1 codegen — the minimum level the 8×i16 lanes and `phminposuw`
    /// need, serving pre-AVX2 x86-64 at full vector speed.
}

feature_level! {
    "avx2", Avx2, segment_avx2, fold_avx2,
    /// AVX2 codegen. For the 128-bit [`Sse41I16`] lanes this is the same
    /// algorithm with VEX 3-operand encodings, which save the register-move
    /// traffic the legacy SSE destructive forms pay (measurably faster on
    /// AVX2 hosts).
}

feature_level! {
    "avx512bw,avx512vl", Avx512, segment_avx512,
    /// AVX-512BW/VL codegen. Only the 32-lane strip runs here, and it folds
    /// inside its segment: a block folded on its own is at most 16 lanes,
    /// which this level runs at [`Avx2`].
}

/// The methods of an x86 lane impl: `#[inline(always)]`, with the body — the
/// impl's intrinsics, plus the few loads and stores, each sized by an
/// array-typed argument — in the one `unsafe` block a lane impl needs.
macro_rules! lane_methods {
    ($(
        $(#[$doc:meta])*
        fn $name:ident($self:ident $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)? $body:block
    )+) => {$(
        $(#[$doc])*
        #[inline(always)]
        fn $name($self $(, $arg: $ty)*) $(-> $ret)? {
            // SAFETY: `self` exists — it holds a token only `detect()` makes
            // — so the CPU has every instruction of the impl's level.
            unsafe { $body }
        }
    )+};
}

/// The primitives that are one instruction each: `name(args) -> V|M = intrinsic;`.
macro_rules! one_instruction {
    ($($name:ident($($arg:ident),+) -> $ret:ident = $intrinsic:ident;)+) => {
        lane_methods! {$(
            fn $name(self $(, $arg: Self::V)+) -> Self::$ret {
                $intrinsic($($arg),+)
            }
        )+}
    };
}

/// Lane `l`'s bit of a mask word, as i16 lanes (the vector-mask impls turn
/// mask bits into a lane mask with one `and` + `cmpeq` against these).
const LANE_BIT: [i16; MAX_BLOCK] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, i16::MIN];

/// 8×i16 in an xmm (B=8). Every instruction is SSE4.1 or older;
/// AVX2-or-wider hosts run it VEX-encoded through [`segment_avx2`] (the 8-lane
/// vector leaves wider registers nothing to fuse).
#[derive(Clone, Copy)]
pub(crate) struct Sse41I16(pub Sse41);

impl Sse41I16 {
    /// The row reduce as the one instruction it is named after: the
    /// `phminposuw` word `(lane << 16) | y` of the smallest `y = 0x7FFF − h`
    /// over 8 lanes, at its first lane.
    #[inline(always)]
    fn minpos(self, row: &[i16; BLOCK]) -> u32 {
        // SAFETY: `self` holds the SSE4.1 token.
        unsafe {
            let y = _mm_sub_epi16(_mm_set1_epi16(i16::MAX), self.load(row));
            _mm_cvtsi128_si32(_mm_minpos_epu16(y)) as u32
        }
    }
}

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
    /// One `phminposuw` per row ([`Sse41I16::minpos`]), its word turned
    /// into a key in a loop of its own (which vectorises).
    #[inline(always)]
    fn max_keys<const N: usize>(self, rows: &[[i16; BLOCK]; N]) -> [u32; N] {
        let mut keys = [0; N];
        for (key, row) in keys.iter_mut().zip(rows) {
            *key = self.minpos(row);
        }
        for key in &mut keys {
            *key = (*key & 0xFFFF) << 5 | *key >> 16;
        }
        keys
    }
    lane_methods! {
        fn splat(self, x: i16) -> __m128i {
            _mm_set1_epi16(x)
        }
        fn load(self, src: &[i16; BLOCK]) -> __m128i {
            // Reads the 16 bytes of `src`.
            _mm_loadu_si128(src.as_ptr().cast())
        }
        fn store(self, dst: &mut [i16; BLOCK], v: __m128i) {
            // Writes the 16 bytes of `dst`.
            _mm_storeu_si128(dst.as_mut_ptr().cast(), v);
        }
        fn store_low(self, dst: &mut [i16; 2], v: __m128i) {
            // Writes the 4 bytes of `dst`.
            _mm_storeu_si32(dst.as_mut_ptr().cast(), v);
        }
        /// One `palignr` — a short loop-carried dependency — with the load
        /// of `next` as its memory operand.
        fn shift_in(self, v: __m128i, next: &[i16; BLOCK]) -> __m128i {
            _mm_alignr_epi8(self.load(next), v, 2)
        }
        fn mask_from_bits(self, bits: u32) -> __m128i {
            let lane_bit = self.load(LANE_BIT.first_chunk().expect("8 of 16"));
            _mm_cmpeq_epi16(_mm_and_si128(_mm_set1_epi16(bits as i16), lane_bit), lane_bit)
        }
        fn select(self, m: __m128i, on: __m128i, off: __m128i) -> __m128i {
            _mm_blendv_epi8(off, on, m)
        }
        fn rebase_boundary(self, src: &[i32; BLOCK], base: i32) -> [i16; BLOCK] {
            let b = _mm_set1_epi32(base);
            // Elements 0..4 and 4..8 of the 8-element `src`.
            let lo = _mm_sub_epi32(_mm_loadu_si128(src.as_ptr().cast()), b);
            let hi = _mm_sub_epi32(_mm_loadu_si128(src.as_ptr().add(4).cast()), b);
            let mut out = [0i16; BLOCK];
            self.store(&mut out, _mm_packs_epi32(lo, hi));
            out
        }
    }
}

/// 16×i16 in a ymm with vector-mask predicates (B=16 on AVX2 and AVX-512).
#[derive(Clone, Copy)]
pub(crate) struct Avx2I16(pub Avx2);

impl Lanes<MAX_BLOCK> for Avx2I16 {
    type V = __m256i;
    type M = __m256i;

    /// `phminposuw` on each 8-lane half (on the 8-lane impl the level
    /// implies), then the two words of every row merged as keys, the
    /// high half's lanes 8 up, in a loop of its own (which vectorises).
    #[inline(always)]
    fn max_keys<const N: usize>(self, rows: &[[i16; MAX_BLOCK]; N]) -> [u32; N] {
        let half = Sse41I16(self.0.lower());
        let (mut lo, mut hi) = ([0; N], [0; N]);
        for ((lo, hi), row) in lo.iter_mut().zip(&mut hi).zip(rows) {
            *lo = half.minpos(row.first_chunk().expect("the low half"));
            *hi = half.minpos(row.last_chunk().expect("the high half"));
        }
        for (lo, hi) in lo.iter_mut().zip(hi) {
            *lo = ((*lo & 0xFFFF) << 5 | *lo >> 16).min((hi & 0xFFFF) << 5 | ((hi >> 16) + 8));
        }
        lo
    }
    one_instruction! {
        add(a, b) -> V = _mm256_adds_epi16;
        sub(a, b) -> V = _mm256_subs_epi16;
        max(a, b) -> V = _mm256_max_epi16;
        cmp_eq(a, b) -> M = _mm256_cmpeq_epi16;
        cmp_gt(a, b) -> M = _mm256_cmpgt_epi16;
    }
    lane_methods! {
        fn splat(self, x: i16) -> __m256i {
            _mm256_set1_epi16(x)
        }
        fn load(self, src: &[i16; MAX_BLOCK]) -> __m256i {
            // Reads the 32 bytes of `src`.
            _mm256_loadu_si256(src.as_ptr().cast())
        }
        fn store(self, dst: &mut [i16; MAX_BLOCK], v: __m256i) {
            // Writes the 32 bytes of `dst`.
            _mm256_storeu_si256(dst.as_mut_ptr().cast(), v);
        }
        fn store_low(self, dst: &mut [i16; 2], v: __m256i) {
            // Writes the 4 bytes of `dst`.
            _mm_storeu_si32(dst.as_mut_ptr().cast(), _mm256_castsi256_si128(v));
        }
        /// `_mm256_alignr_epi8` concatenates per 128-bit half, so the
        /// carry operand must hold — in byte position 0..2 of each half —
        /// the value entering that half's top lane: `v`'s lane 8 for the
        /// low half, `next[0]` for the high half.
        /// `permute2x128(v, next, 0x21)` builds exactly that, `[v_hi |
        /// next_lo]`, with the load of `next` as its memory operand.
        fn shift_in(self, v: __m256i, next: &[i16; MAX_BLOCK]) -> __m256i {
            let carry = _mm256_permute2x128_si256(v, self.load(next), 0x21);
            _mm256_alignr_epi8(carry, v, 2)
        }
        fn mask_from_bits(self, bits: u32) -> __m256i {
            let (bits, lane_bit) = (_mm256_set1_epi16(bits as i16), self.load(&LANE_BIT));
            _mm256_cmpeq_epi16(_mm256_and_si256(bits, lane_bit), lane_bit)
        }
        fn select(self, m: __m256i, on: __m256i, off: __m256i) -> __m256i {
            _mm256_blendv_epi8(off, on, m)
        }
        /// `_mm256_packs_epi32(a, b)` interleaves per 128-bit half (qwords
        /// come out as `a0..3, b0..3, a4..7, b4..7`); the `permute4x64` with
        /// selector `0b11011000` (qword order 0,2,1,3) restores source order.
        fn rebase_boundary(self, src: &[i32; MAX_BLOCK], base: i32) -> [i16; MAX_BLOCK] {
            let base = _mm256_set1_epi32(base);
            // Elements 0..8 and 8..16 of the 16-element `src`.
            let a = _mm256_sub_epi32(_mm256_loadu_si256(src.as_ptr().cast()), base);
            let b = _mm256_sub_epi32(_mm256_loadu_si256(src.as_ptr().add(8).cast()), base);
            let mut out = [0i16; MAX_BLOCK];
            self.store(&mut out, _mm256_permute4x64_epi64(_mm256_packs_epi32(a, b), 0b11011000));
            out
        }
    }
}

/// Slot `s` of the 32-lane strip's transpose ([`transpose_32x32`]) takes
/// lane `l` = `s` with its five bits reversed, and leaves as step row
/// `ROW_OF_SLOT[s]`: the network's fixed input and output orders, folded
/// into the loads and stores around it.
const LANE_OF_SLOT: [usize; MAX_STRIP] = {
    let mut lanes = [0; MAX_STRIP];
    let mut s = 0;
    while s < MAX_STRIP {
        lanes[s] = s.reverse_bits() >> (usize::BITS - MAX_STRIP.ilog2());
        s += 1;
    }
    lanes
};

/// See [`LANE_OF_SLOT`]: slot `s` of the transpose's output is step row
/// `d` with `d`'s two top bits the two low bits of `s`, swapped, and its
/// three low bits the three top bits of `s`.
const ROW_OF_SLOT: [usize; MAX_STRIP] = {
    let mut rows = [0; MAX_STRIP];
    let mut s = 0;
    while s < MAX_STRIP {
        rows[s] = (s & 1) << 4 | (s & 2) << 2 | s >> 2;
        s += 1;
    }
    rows
};

/// The 32×32 `i16` transpose of the 32-lane strip's window lookups: five
/// rounds of one pattern — slot `k` meets slot `k + 16`, and their two
/// interleavings become slots `2k` and `2k + 1` — at 16, 32 and 64 bits
/// inside each 128-bit quarter (`vpunpck{l,h}{wd,dq,qdq}`), then twice over
/// whole quarters (`vshufi64x2`). Each round moves one bit of the lane index
/// from the slot into the element and one bit of the element index the other
/// way, so with the lanes entering at [`LANE_OF_SLOT`], element `d` of lane
/// `l` leaves as element `l` of the slot whose [`ROW_OF_SLOT`] is `d`.
#[inline(always)]
fn transpose_32x32(_level: Avx512, v: &mut [__m512i; MAX_STRIP]) {
    const HALF: usize = MAX_STRIP / 2;
    macro_rules! round {
        ($lo:path, $hi:path) => {
            let w = *v;
            for k in 0..HALF {
                v[2 * k] = $lo(w[k], w[k + HALF]);
                v[2 * k + 1] = $hi(w[k], w[k + HALF]);
            }
        };
    }
    // SAFETY: `_level` proves AVX-512BW (and with it AVX-512F).
    unsafe {
        round!(_mm512_unpacklo_epi16, _mm512_unpackhi_epi16);
        round!(_mm512_unpacklo_epi32, _mm512_unpackhi_epi32);
        round!(_mm512_unpacklo_epi64, _mm512_unpackhi_epi64);
        round!(_mm512_shuffle_i64x2::<0x88>, _mm512_shuffle_i64x2::<0xDD>);
        round!(_mm512_shuffle_i64x2::<0x88>, _mm512_shuffle_i64x2::<0xDD>);
    }
}

/// Lane `8c + p` of the reduction tree's last vector holds row `4p + c`
/// ([`row_maxima_32x32`]); this gathers row `16h + e` into both words of
/// dword `e` of vector `h`.
const ROW_MAXIMUM_TWICE: [[i16; MAX_STRIP]; 2] = {
    let mut lane = [[0; MAX_STRIP]; 2];
    let mut w = 0;
    while w < 2 * MAX_STRIP {
        let d = w / 2;
        lane[d / 16][w % MAX_STRIP] = (8 * (d % 4) + d / 4) as i16;
        w += 1;
    }
    lane
};

/// The largest lane of each of 32 rows of 32 `i16` lanes: a reduction tree
/// whose every level halves the lanes left per row by pairing two vectors —
/// first their 256-bit halves, then 128-bit chunks, then within chunks by
/// words, dwords and qwords — so that five levels of 16, 8, 4, 2 and 1
/// pairs leave the 32 maxima in one zmm, row `4p + c` in lane `8c + p`. The
/// first level pairs halves as they load (a 256-bit insert from memory, on
/// either vector port); the others take a shuffle pair and a `max` each.
#[inline(always)]
fn row_maxima_32x32(_level: Avx512, rows: &[[i16; MAX_STRIP]; STAGE_ROWS]) -> __m512i {
    const HALF: usize = MAX_STRIP / 2;
    // SAFETY: `_level` proves AVX-512BW/VL; each load reads 32 bytes of a
    // 64-byte row.
    unsafe {
        // Rows 2k, 2k+1 → [2k's 16 | 2k+1's 16].
        let mut v = [_mm512_setzero_si512(); 16];
        for (k, pair) in v.iter_mut().zip(rows.as_chunks::<2>().0) {
            let (a, b) = (pair[0].as_ptr(), pair[1].as_ptr());
            let lo = _mm512_castsi256_si512(_mm256_loadu_si256(a.cast()));
            let lo = _mm512_inserti64x4::<1>(lo, _mm256_loadu_si256(b.cast()));
            let hi = _mm512_castsi256_si512(_mm256_loadu_si256(a.add(HALF).cast()));
            let hi = _mm512_inserti64x4::<1>(hi, _mm256_loadu_si256(b.add(HALF).cast()));
            *k = _mm512_max_epi16(lo, hi);
        }
        // → chunk c of vector k holds row 4k + c's 8.
        let mut w = [_mm512_setzero_si512(); 8];
        for (k, pair) in w.iter_mut().zip(v.as_chunks::<2>().0) {
            let lo = _mm512_shuffle_i64x2::<0b10_00_10_00>(pair[0], pair[1]);
            let hi = _mm512_shuffle_i64x2::<0b11_01_11_01>(pair[0], pair[1]);
            *k = _mm512_max_epi16(lo, hi);
        }
        // Within chunks: 8 → 4 (two rows a chunk, by word), 4 → 2 (four, by
        // dword), 2 → 1 (eight, by qword).
        let mut x = [_mm512_setzero_si512(); 4];
        for (k, pair) in x.iter_mut().zip(w.as_chunks::<2>().0) {
            let (a, b) = (pair[0], pair[1]);
            *k = _mm512_max_epi16(_mm512_unpacklo_epi16(a, b), _mm512_unpackhi_epi16(a, b));
        }
        let mut y = [_mm512_setzero_si512(); 2];
        for (k, pair) in y.iter_mut().zip(x.as_chunks::<2>().0) {
            let (a, b) = (pair[0], pair[1]);
            *k = _mm512_max_epi16(_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b));
        }
        let (a, b) = (y[0], y[1]);
        _mm512_max_epi16(_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b))
    }
}

/// 32×i16 in a zmm with `__mmask32` predicates (B=32 on AVX-512BW): two of
/// the 16-lane strip's block rows in one wavefront, on the same per-step
/// dependency chain.
#[derive(Clone, Copy)]
pub(crate) struct Avx512I16x32(pub Avx512);

impl Lanes<MAX_STRIP> for Avx512I16x32 {
    type V = __m512i;
    type M = __mmask32;

    /// One reduce per row: the zmm's 256-bit and then 128-bit halves fold
    /// with an unsigned `min`, one `phminposuw` takes the value, and the
    /// first lane holding it comes from a compare into a mask register.
    #[inline(always)]
    fn max_keys<const N: usize>(self, rows: &[[i16; MAX_STRIP]; N]) -> [u32; N] {
        let mut keys = [0; N];
        for (key, row) in keys.iter_mut().zip(rows) {
            // SAFETY: `self` holds the AVX-512BW/VL token (which implies AVX2
            // and SSE4.1).
            *key = unsafe {
                let y = _mm512_sub_epi16(_mm512_set1_epi16(i16::MAX), self.load(row));
                let y256 =
                    _mm256_min_epu16(_mm512_castsi512_si256(y), _mm512_extracti64x4_epi64(y, 1));
                let y128 =
                    _mm_min_epu16(_mm256_castsi256_si128(y256), _mm256_extracti128_si256(y256, 1));
                let word = _mm_minpos_epu16(y128);
                let first = _mm512_cmpeq_epi16_mask(y, _mm512_broadcastw_epi16(word));
                (_mm_cvtsi128_si32(word) as u32 & 0xFFFF) << 5 | first.trailing_zeros()
            };
        }
        keys
    }

    /// The window's 32 row maxima at once — a reduction tree over pairs of
    /// rows ([`row_maxima_32x32`]), 3 instructions a row where a reduce per
    /// row takes 10 — gathered twice into a dword per row, which makes each
    /// both an `i32` for the floor compare (a shift) and a compare operand
    /// for its row's first lane (a dword broadcast from memory is a plain
    /// load; a word one takes the shuffle port the tree is busy on). Only
    /// the rows that stay open look for their first lane.
    #[inline(always)]
    fn max_keys_above(
        self,
        rows: &[[i16; MAX_STRIP]; STAGE_ROWS],
        floor: &[i32; STAGE_ROWS],
        base: i32,
        open: u32,
    ) -> ([u32; STAGE_ROWS], u32) {
        let mut twice = [0i32; STAGE_ROWS];
        // SAFETY: `self` holds the AVX-512BW/VL token; the loads and stores
        // of `floor` and `twice` touch 64 bytes of each half.
        let (halves, below) = unsafe {
            let mut halves = [_mm512_setzero_si512(); 2];
            let maxima = row_maxima_32x32(self.0, rows);
            let base = _mm512_set1_epi32(base);
            let mut below = 0u32;
            for (k, half) in halves.iter_mut().enumerate() {
                *half = _mm512_permutexvar_epi16(self.load(&ROW_MAXIMUM_TWICE[k]), maxima);
                _mm512_storeu_epi32(twice[16 * k..].as_mut_ptr(), *half);
                let h = _mm512_add_epi32(_mm512_srai_epi32::<16>(*half), base);
                let floor = _mm512_loadu_epi32(floor[16 * k..].as_ptr());
                below |= u32::from(_mm512_cmplt_epi32_mask(h, floor)) << (16 * k);
            }
            (halves, below)
        };
        let open = open & !below;
        let mut keys = [0; STAGE_ROWS];
        if open == 0 {
            return (keys, 0);
        }
        // The keys' high bits `(0x7FFF − h) << 5`, 16 rows an instruction.
        // SAFETY: as above; the stores write 64 bytes of each half of `keys`.
        unsafe {
            let (top, low) = (_mm512_set1_epi32(i32::from(i16::MAX)), _mm512_set1_epi32(0xFFFF));
            for (k, half) in halves.into_iter().enumerate() {
                let y = _mm512_and_si512(_mm512_sub_epi32(top, _mm512_srai_epi32::<16>(half)), low);
                _mm512_storeu_epi32(keys[16 * k..].as_mut_ptr().cast(), _mm512_slli_epi32::<5>(y));
            }
        }
        // Every row's first lane, a fixed trip count: cheaper than a branch
        // per open row once a few are. (Only the compare reads `twice`, so
        // its broadcast stays a load.)
        for (key, (row, &h)) in keys.iter_mut().zip(rows.iter().zip(&twice)) {
            // SAFETY: as above.
            let at = unsafe { _mm512_cmpeq_epi16_mask(self.load(row), _mm512_set1_epi32(h)) };
            *key |= at.trailing_zeros();
        }
        (keys, open)
    }

    /// Two compares into mask registers.
    #[inline(always)]
    fn nonzero_rows(self, masks: &[u32; STAGE_ROWS]) -> u32 {
        // SAFETY: `self` holds the AVX-512 token; the loads read the two
        // halves of `masks`.
        unsafe {
            let lo = _mm512_loadu_epi32(masks.as_ptr().cast());
            let hi = _mm512_loadu_epi32(masks[16..].as_ptr().cast());
            u32::from(_mm512_test_epi32_mask(lo, lo))
                | u32::from(_mm512_test_epi32_mask(hi, hi)) << 16
        }
    }

    /// The window's largest lane — an element-wise `max` over its rows (no
    /// shuffles), then one reduce — against the smallest live floor.
    #[inline(always)]
    fn window_below(
        self,
        rows: &[[i16; MAX_STRIP]; STAGE_ROWS],
        floor: &[i32; STAGE_ROWS],
        base: i32,
        live: u32,
    ) -> bool {
        // SAFETY: `self` holds the AVX-512BW/VL token; the loads read each
        // row's 64 bytes and the two halves of `floor`.
        unsafe {
            let mut top = self.load(&rows[0]);
            for row in &rows[1..] {
                top = _mm512_max_epi16(top, self.load(row));
            }
            let top =
                _mm256_max_epi16(_mm512_castsi512_si256(top), _mm512_extracti64x4_epi64(top, 1));
            let top = _mm512_reduce_max_epi32(_mm512_cvtepi16_epi32(top)) + base;
            let (lo, hi) = (floor.as_ptr(), floor[16..].as_ptr());
            let lo = _mm512_mask_reduce_min_epi32(live as u16, _mm512_loadu_epi32(lo));
            let hi = _mm512_mask_reduce_min_epi32((live >> 16) as u16, _mm512_loadu_epi32(hi));
            top < lo.min(hi)
        }
    }

    /// One zmm of `i32`s: a reduce.
    #[inline(always)]
    fn chunk_max(self, v: &[i32; CHUNK]) -> i32 {
        // SAFETY: `self` holds the AVX-512 token; the load reads `v`'s 64
        // bytes.
        unsafe { _mm512_reduce_max_epi32(_mm512_loadu_epi32(v.as_ptr())) }
    }

    /// One compare into a mask.
    #[inline(always)]
    fn chunk_any_below(self, v: &[i32; CHUNK], floor: i32) -> bool {
        // SAFETY: as in `chunk_max`.
        unsafe {
            _mm512_cmplt_epi32_mask(_mm512_loadu_epi32(v.as_ptr()), _mm512_set1_epi32(floor)) != 0
        }
    }

    /// One unsigned compare into a mask.
    #[inline(always)]
    fn chunk_short(self, seen: &[u32; CHUNK], expected: &[u32; CHUNK]) -> u32 {
        // SAFETY: as in `chunk_max`, for both arrays.
        unsafe {
            let (seen, expected) = (seen.as_ptr().cast(), expected.as_ptr().cast());
            u32::from(_mm512_cmplt_epu32_mask(
                _mm512_loadu_epi32(seen),
                _mm512_loadu_epi32(expected),
            ))
        }
    }

    /// No profile: lane `l`'s scores over the window's steps are one
    /// `vpermw` of its reference codes from `l` on — clamped to the
    /// alphabet, a full zmm from a padded copy when the window is short —
    /// through the matrix column of its query residue
    /// ([`SubstMatrix::columns`]), `S(codes[d + l], Q[j0 + 31 − l])` at
    /// element `d`; one [`transpose_32x32`] turns the 32 lane streams into
    /// the 32 step rows. Plain loops: a closure here would be compiled
    /// outside the feature wrapper. A matrix without columns (more than 32
    /// residues) unskews the profile as the other impls do.
    #[inline(always)]
    fn sub_rows(
        self,
        ctx: &BlockCtx<'_>,
        m: &'static SubstMatrix,
        j0: i64,
        codes: &[i16],
        qcodes: &[u8; MAX_STRIP],
        out: &mut [[i16; MAX_STRIP]; STAGE_ROWS + MAX_STRIP],
    ) {
        let Some(columns) = &m.columns else {
            return matrix_sub_rows(self, ctx, m, j0, codes, qcodes, out);
        };
        let top = m.dim - 1;
        let mut padded = [0i16; 2 * MAX_STRIP];
        let window = if codes.len() == 2 * MAX_STRIP - 1 {
            codes
        } else {
            padded[..codes.len()].copy_from_slice(codes);
            &padded[..]
        };
        // SAFETY: `self` holds the AVX-512BW/VL token.
        unsafe {
            let top_code = _mm512_set1_epi16(top as i16);
            let mut v = [_mm512_setzero_si512(); MAX_STRIP];
            for (slot, &l) in v.iter_mut().zip(&LANE_OF_SLOT) {
                let column = &columns[usize::from(qcodes[MAX_STRIP - 1 - l]).min(top)];
                let lane_codes = window[l..].first_chunk().expect("a window of slack");
                let r = _mm512_min_epu16(self.load(lane_codes), top_code);
                *slot = _mm512_permutexvar_epi16(r, self.load(column));
            }
            transpose_32x32(self.0, &mut v);
            for (&row, &v) in ROW_OF_SLOT.iter().zip(&v) {
                self.store(&mut out[row], v);
            }
        }
    }

    one_instruction! {
        add(a, b) -> V = _mm512_adds_epi16;
        sub(a, b) -> V = _mm512_subs_epi16;
        max(a, b) -> V = _mm512_max_epi16;
        cmp_eq(a, b) -> M = _mm512_cmpeq_epi16_mask;
        cmp_gt(a, b) -> M = _mm512_cmpgt_epi16_mask;
    }
    #[inline(always)]
    fn mask_from_bits(self, bits: u32) -> __mmask32 {
        bits
    }
    lane_methods! {
        fn splat(self, x: i16) -> __m512i {
            _mm512_set1_epi16(x)
        }
        fn load(self, src: &[i16; MAX_STRIP]) -> __m512i {
            // Reads the 64 bytes of `src`.
            _mm512_loadu_si512(src.as_ptr().cast())
        }
        fn store(self, dst: &mut [i16; MAX_STRIP], v: __m512i) {
            // Writes the 64 bytes of `dst`.
            _mm512_storeu_si512(dst.as_mut_ptr().cast(), v);
        }
        fn store_low(self, dst: &mut [i16; 2], v: __m512i) {
            // Writes the 4 bytes of `dst`.
            _mm_storeu_si32(dst.as_mut_ptr().cast(), _mm512_castsi512_si128(v));
        }
        /// The ymm impls' two-op chain at 512 bits: `_mm512_alignr_epi8`
        /// also concatenates per 128-bit lane, so the carry holds `v`'s
        /// quarters one up and `next`'s lowest quarter on top — `valignq` by
        /// two qwords over `[next | v]`. Only that quarter of `next` is read
        /// (its 16 bytes, which a 2-byte-strided window splits across cache
        /// lines a quarter as often as the whole 64).
        fn shift_in(self, v: __m512i, next: &[i16; MAX_STRIP]) -> __m512i {
            let low = _mm512_castsi128_si512(_mm_loadu_si128(next.as_ptr().cast()));
            _mm512_alignr_epi8(_mm512_alignr_epi64(low, v, 2), v, 2)
        }
        fn select(self, m: __mmask32, on: __m512i, off: __m512i) -> __m512i {
            _mm512_mask_blend_epi16(m, off, on)
        }
        /// A subtract and a `vpmovsdw` per 16 elements (the loads read the
        /// 128 bytes of `src`).
        fn rebase_boundary(self, src: &[i32; MAX_STRIP], base: i32) -> [i16; MAX_STRIP] {
            let base = _mm512_set1_epi32(base);
            let lo = _mm512_sub_epi32(_mm512_loadu_epi32(src.as_ptr()), base);
            let hi = _mm512_sub_epi32(_mm512_loadu_epi32(src.as_ptr().add(16)), base);
            let mut out = [0i16; MAX_STRIP];
            let packed = _mm512_inserti64x4(
                _mm512_castsi256_si512(_mm512_cvtsepi32_epi16(lo)),
                _mm512_cvtsepi32_epi16(hi),
                1,
            );
            self.store(&mut out, packed);
            out
        }
    }
}
