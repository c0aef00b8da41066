//! The lane-primitive layer the one wavefront body ([`super::fill`]) and the
//! one tracker fold ([`crate::diag::DiagTracker::fold_block`]) are written
//! against: the 16-bit lane conversions ([`delta`], [`rebase`], [`unbase`]),
//! a vector trait ([`Lanes`]) with one impl per backend, and the array-backed
//! [`Portable`] impl that runs on any target (and under Miri) and is the
//! semantic reference the x86 impls in [`super::x86`] are compared to.
//!
//! Lanes are `i16` and hold *offsets from a moving base* (a real `H` near the
//! wavefront, see [`ring_base`] and the module header), so the lane width
//! bounds the score spread around the front, never the absolute score.
//! Arithmetic saturates: sentinel-class values pin in the sentinel band
//! instead of wrapping into plausible scores.

use super::fill::matrix_sub_rows;
use super::{to16, SENTINEL_BAND16};
use crate::block::{BlockCtx, I32_REACH_BOUND};
use crate::diag::CHUNK;
use crate::scoring::SubstMatrix;
use crate::{MAX_STRIP, NEG_INF, STAGE_ROWS};

/// A score *difference* (penalty, substitution score) or residue code as a
/// lane value — base-free by nature.
#[inline(always)]
pub(crate) fn delta(v: i32) -> i16 {
    to16(v)
}

/// Entry conversion of an absolute `i32` score to a lane value (exact on
/// every real value under the i16 gate; `-∞`-class inputs land in the
/// sentinel band).
#[inline(always)]
pub(crate) fn rebase(v: i32, base: i32) -> i16 {
    // No overflow: `base` is a real score (`|base| < 2^29`, the reach bound
    // the i16 gate includes) and `v ≥ NEG_INF`.
    to16(v - base)
}

/// Exit conversion back to an absolute `i32` score. Sentinel-class lanes
/// come out as exactly [`NEG_INF`], whatever they drifted to.
#[inline(always)]
pub(crate) fn unbase(x: i16, base: i32) -> i32 {
    if x <= SENTINEL_BAND16 {
        NEG_INF
    } else {
        i32::from(x) + base
    }
}

/// The base a segment starts on: the largest `H` of its entry ring — corner,
/// west column, the north row over its first block. The fold starts at
/// `-I32_REACH_BOUND`, below every real score and above every `-∞`-class
/// one, so sentinels lose the max; a strip with a valid cell in its first
/// block always has a real input (the cell's diagonal predecessor chain
/// reaches the ring in band), and one without has nothing to offset.
#[inline(always)]
pub(crate) fn ring_base(corner: i32, west_h: &[i32], north_h: &[i32]) -> i32 {
    let floor = -(I32_REACH_BOUND as i32);
    west_h.iter().chain(north_h).fold(floor.max(corner), |acc, &v| acc.max(v))
}

/// `B` `i16` lanes in one vector `V`, with lane predicates `M` (a vector mask
/// below AVX-512, a mask register on it). An impl is a `Copy` value whose
/// existence proves its instructions may run — an x86 impl holds its feature
/// level's token, [`Portable`] needs none — so every method is safe. Every
/// method is `#[inline(always)]` with no `target_feature` of its own, so the
/// body compiles at the feature level of the wrapper it is instantiated in.
pub(crate) trait Lanes<const B: usize>: Copy {
    type V: Copy;
    type M: Copy;

    fn splat(self, x: i16) -> Self::V;
    fn load(self, src: &[i16; B]) -> Self::V;
    fn store(self, dst: &mut [i16; B], v: Self::V);
    /// Lanes 0 and 1 into `dst` — how the strip's bottom lane leaves, one
    /// step after another into consecutive slots (the next step's store
    /// overwrites the spare lane).
    fn store_low(self, dst: &mut [i16; 2], v: Self::V);
    /// Lane `l` ← lane `l+1`, lane `B-1` ← `next[0]`: one query row down the
    /// strip, the north row's value entering at the top lane. The rest of
    /// `next` is ignored — a window of the stream the value is read from, so
    /// that a vector impl folds the read into the shift.
    fn shift_in(self, v: Self::V, next: &[i16; B]) -> Self::V;
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    fn max(self, a: Self::V, b: Self::V) -> Self::V;
    fn cmp_eq(self, a: Self::V, b: Self::V) -> Self::M;
    fn cmp_gt(self, a: Self::V, b: Self::V) -> Self::M;
    /// Lane `l` set iff bit `l` of `bits` is.
    fn mask_from_bits(self, bits: u32) -> Self::M;
    /// Per lane: `on` where `m` is set, `off` elsewhere.
    fn select(self, m: Self::M, on: Self::V, off: Self::V) -> Self::V;

    /// Entry conversion of `B` streamed `i32` boundary values.
    #[inline(always)]
    fn rebase_boundary(self, src: &[i32; B], base: i32) -> [i16; B] {
        src.map(|v| rebase(v, base))
    }

    /// The substitution rows of one window under the matrix `m`, into `out`:
    /// `out[d][l] = S(codes[d + l], Q[j0 + B−1 − l])` for each of the
    /// window's `codes.len() + 1 − B` steps `d` (rows past them may hold anything),
    /// `qcodes` the block row's query codes. By default the window unskews
    /// rows of the [`crate::QueryProfile`] in `ctx` ([`matrix_sub_rows`]);
    /// an impl that looks the scores up another way need not read it (see
    /// [`super::ProvenBackend::reads_profile`]).
    #[inline(always)]
    fn sub_rows(
        self,
        ctx: &BlockCtx<'_>,
        m: &'static SubstMatrix,
        j0: i64,
        codes: &[i16],
        qcodes: &[u8; B],
        out: &mut [[i16; B]; STAGE_ROWS + MAX_STRIP],
    ) {
        matrix_sub_rows(self, ctx, m, j0, codes, qcodes, out);
    }

    /// The tracker fold's row reduce, over `N` staged i16 rows: per row,
    /// the key `(y << 5) | lane` of its smallest `y = 0x7FFF − h` (wrapping:
    /// the exact order-reversed u16 pattern over the whole i16 range) at the
    /// first lane attaining it — the maximum `h` at its smallest lane, the
    /// canonical ascending-`i` tie-break, as one number whose order is the
    /// merge's.
    #[inline(always)]
    fn max_keys<const N: usize>(self, rows: &[[i16; B]; N]) -> [u32; N] {
        let mut keys = [u32::MAX; N];
        for (key, row) in keys.iter_mut().zip(rows) {
            for (l, &h) in row.iter().enumerate() {
                *key =
                    (*key).min(u32::from((i16::MAX as u16).wrapping_sub(h as u16)) << 5 | l as u32);
            }
        }
        keys
    }

    /// The row reduce of one staged window, given what the rows merge into:
    /// the keys of [`Lanes::max_keys`] and the rows of `open` that hold one.
    /// An impl may leave out a row whose largest `h + base` lies strictly
    /// below `floor[d]`, the carried maximum of its diagonal — such a row
    /// cannot replace it, and a tie could (its `i` may be the smaller), so
    /// the test is strict — clearing its bit and leaving its key
    /// unspecified. By default every row is reduced.
    #[inline(always)]
    fn max_keys_above(
        self,
        rows: &[[i16; B]; STAGE_ROWS],
        _floor: &[i32; STAGE_ROWS],
        _base: i32,
        open: u32,
    ) -> ([u32; STAGE_ROWS], u32) {
        (self.max_keys(rows), open)
    }

    /// Bit `d` set where `masks[d]` is not zero: a staged window's rows
    /// with a valid lane.
    #[inline(always)]
    fn nonzero_rows(self, masks: &[u32; STAGE_ROWS]) -> u32 {
        let mut rows = 0;
        for (d, &m) in masks.iter().enumerate() {
            rows |= u32::from(m != 0) << d;
        }
        rows
    }

    /// Whether every row of a staged window lies strictly below `floor`,
    /// the maxima carried for its diagonals, on the rows of `live`: then
    /// none is open ([`Lanes::max_keys_above`]). An impl may answer from a
    /// bound — the window's largest `h` against the smallest live floor —
    /// and may always answer `false`, as by default.
    #[inline(always)]
    fn window_below(
        self,
        _rows: &[[i16; B]; STAGE_ROWS],
        _floor: &[i32; STAGE_ROWS],
        _base: i32,
        _live: u32,
    ) -> bool {
        false
    }

    /// The largest of one chunk of the tracker's per-diagonal `i32`s — a
    /// [`DiagTracker::advance`](crate::diag::DiagTracker::advance) step.
    #[inline(always)]
    fn chunk_max(self, v: &[i32; CHUNK]) -> i32 {
        v.iter().fold(i32::MIN, |hi, &x| hi.max(x))
    }

    /// Whether an entry of the chunk lies below `floor`.
    #[inline(always)]
    fn chunk_any_below(self, v: &[i32; CHUNK], floor: i32) -> bool {
        v.iter().any(|&x| x < floor)
    }

    /// Bit `d` set where `seen[d] < expected[d]`: the chunk's incomplete
    /// diagonals.
    #[inline(always)]
    fn chunk_short(self, seen: &[u32; CHUNK], expected: &[u32; CHUNK]) -> u32 {
        let mut short = 0;
        for (d, (&s, &e)) in seen.iter().zip(expected).enumerate() {
            short |= u32::from(s < e) << d;
        }
        short
    }
}

/// `[f(0), …, f(B-1)]`, as a plain indexed loop over a zeroed array:
/// unlike `std::array::from_fn` it always inlines, so LLVM sees every
/// primitive as `B` isomorphic lane operations it can vectorise.
#[inline(always)]
pub(crate) fn each_lane<const B: usize>(f: impl Fn(usize) -> i16) -> [i16; B] {
    let mut out = [0; B];
    for (l, slot) in out.iter_mut().enumerate() {
        *slot = f(l);
    }
    out
}

/// Array-backed lanes: straight-line per-lane arithmetic over `[i16; B]`
/// that LLVM auto-vectorises. Runs wherever no vector impl fits the backend
/// and geometry.
#[derive(Clone, Copy)]
pub(crate) struct Portable;

impl<const B: usize> Lanes<B> for Portable {
    type V = [i16; B];
    type M = [i16; B];

    #[inline(always)]
    fn splat(self, x: i16) -> [i16; B] {
        [x; B]
    }
    #[inline(always)]
    fn load(self, src: &[i16; B]) -> [i16; B] {
        *src
    }
    #[inline(always)]
    fn store(self, dst: &mut [i16; B], v: [i16; B]) {
        *dst = v;
    }
    #[inline(always)]
    fn store_low(self, dst: &mut [i16; 2], v: [i16; B]) {
        *dst = [v[0], v[1]];
    }
    #[inline(always)]
    fn shift_in(self, v: [i16; B], next: &[i16; B]) -> [i16; B] {
        each_lane(|l| if l == B - 1 { next[0] } else { v[l + 1] })
    }
    #[inline(always)]
    fn add(self, a: [i16; B], b: [i16; B]) -> [i16; B] {
        each_lane(|l| a[l].saturating_add(b[l]))
    }
    #[inline(always)]
    fn sub(self, a: [i16; B], b: [i16; B]) -> [i16; B] {
        each_lane(|l| a[l].saturating_sub(b[l]))
    }
    #[inline(always)]
    fn max(self, a: [i16; B], b: [i16; B]) -> [i16; B] {
        each_lane(|l| a[l].max(b[l]))
    }
    #[inline(always)]
    fn cmp_eq(self, a: [i16; B], b: [i16; B]) -> [i16; B] {
        each_lane(|l| if a[l] == b[l] { -1 } else { 0 })
    }
    #[inline(always)]
    fn cmp_gt(self, a: [i16; B], b: [i16; B]) -> [i16; B] {
        each_lane(|l| if a[l] > b[l] { -1 } else { 0 })
    }
    #[inline(always)]
    fn mask_from_bits(self, bits: u32) -> [i16; B] {
        each_lane(|l| if bits & (1 << l) != 0 { -1 } else { 0 })
    }
    #[inline(always)]
    fn select(self, m: [i16; B], on: [i16; B], off: [i16; B]) -> [i16; B] {
        each_lane(|l| (on[l] & m[l]) | (off[l] & !m[l]))
    }
}
