//! The lane-primitive layer the one wavefront body ([`super::fill`]) and the
//! one tracker fold ([`crate::diag::DiagTracker::fold_block`]) are written
//! against: the 16-bit lane conversions ([`delta`], [`rebase`], [`unbase`]),
//! a vector trait ([`Lanes`]) with one impl per backend, and the array-backed
//! [`Portable`] impl that runs on any target (and under Miri) and is the
//! semantic reference the x86 impls in [`super::x86`] are compared to.
//!
//! Lanes are `i16` and hold *offsets from a per-block base* (a real `H` of
//! the block's boundary ring, see [`block_base`]), so the lane width bounds
//! the score spread inside one block, never the absolute score. Arithmetic
//! saturates: sentinel-class values pin in the sentinel band instead of
//! wrapping into plausible scores.

use super::{lane_mask, to16, SENTINEL_BAND16};
use crate::block::{BlockCtx, I32_REACH_BOUND};
use crate::{MAX_BLOCK_DIAGS, NEG_INF};

/// Per-diagonal lane bitmasks of one block, diagonal-indexed (one spare
/// slot so 16-diagonal vector steps can write whole chunks).
pub(crate) type DiagMasks = [u16; MAX_BLOCK_DIAGS + 1];

/// A score *difference* (penalty, substitution score) or residue code as a
/// lane value — base-free by nature.
#[inline(always)]
pub(crate) fn delta(v: i32) -> i16 {
    to16(v)
}

/// Block-entry conversion of an absolute `i32` score to a lane value (exact
/// on every real value under the i16 gate; `-∞`-class inputs land in the
/// sentinel band).
#[inline(always)]
pub(crate) fn rebase(v: i32, base: i32) -> i16 {
    // No overflow: `base` is a real score (`|base| < 2^29`, the reach bound
    // the i16 gate includes) and `v ≥ NEG_INF`.
    to16(v - base)
}

/// Block-exit conversion back to an absolute `i32` score. Sentinel-class
/// lanes come out as exactly [`NEG_INF`], whatever they drifted to.
#[inline(always)]
pub(crate) fn unbase(x: i16, base: i32) -> i32 {
    if x <= SENTINEL_BAND16 {
        NEG_INF
    } else {
        i32::from(x) + base
    }
}

/// The base of a rebased edge block: the largest of its `2B+1` boundary `H`
/// inputs. The fold starts at `-I32_REACH_BOUND`, below every real score and
/// above every `-∞`-class one, so sentinels lose the max; a block with a
/// valid cell always has a real input (the cell's diagonal predecessor chain
/// reaches the ring in band), and one without has nothing to offset.
#[inline(always)]
pub(crate) fn block_base<const B: usize>(
    corner: i32,
    west_h: &[i32; B],
    north_h: &[i32; B],
) -> i32 {
    let floor = -(I32_REACH_BOUND as i32);
    let ring = west_h.iter().zip(north_h).fold(floor, |acc, (&w, &n)| acc.max(w).max(n));
    ring.max(corner)
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
    /// Lane `l` ← lane `l-1`, lane 0 ← `boundary`.
    fn shift_in(self, v: Self::V, boundary: i16) -> Self::V;
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    fn max(self, a: Self::V, b: Self::V) -> Self::V;
    fn cmp_eq(self, a: Self::V, b: Self::V) -> Self::M;
    fn cmp_gt(self, a: Self::V, b: Self::V) -> Self::M;
    /// Lane `l` set iff bit `l` of `bits` is.
    fn mask_from_bits(self, bits: u16) -> Self::M;
    /// Per lane: `on` where `m` is set, `off` elsewhere.
    fn select(self, m: Self::M, on: Self::V, off: Self::V) -> Self::V;

    /// `v` with lane `lane` replaced by `x` (the north pre-seed).
    #[inline(always)]
    fn set_lane(self, v: Self::V, lane: usize, x: i16) -> Self::V {
        self.select(self.mask_from_bits(1 << lane), self.splat(x), v)
    }

    /// Block-entry conversion of one `i32` boundary carry.
    #[inline(always)]
    fn rebase_boundary(self, src: &[i32; B], base: i32) -> [i16; B] {
        src.map(|v| rebase(v, base))
    }

    /// Two finished rows into their adjacent slots of the staging buffer.
    #[inline(always)]
    fn store2(self, rows: &mut [[i16; B]; 2], lo: Self::V, hi: Self::V) {
        self.store(&mut rows[0], lo);
        self.store(&mut rows[1], hi);
    }

    /// The tracker fold's row reduce over one eight-lane half of a staged
    /// i16 row: the `phminposuw`-format word `(lane << 16) | y` of the
    /// smallest `y = 0x7FFF − h` (wrapping: the exact order-reversed u16
    /// pattern over the whole i16 range) at the first lane attaining it —
    /// the maximum `h` at its smallest lane, the canonical ascending-`i`
    /// tie-break.
    #[inline(always)]
    fn minpos8(self, half: &[i16; 8]) -> u32 {
        let mut best = u32::MAX;
        for (l, &h) in half.iter().enumerate() {
            let y = u32::from((i16::MAX as u16).wrapping_sub(h as u16));
            best = best.min(y << 3 | l as u32);
        }
        (best & 7) << 16 | best >> 3
    }

    /// Valid-lane masks of every diagonal of the edge block at `(i0, j0)`.
    #[inline(always)]
    fn edge_masks(self, ctx: &BlockCtx<'_>, i0: i64, j0: i64) -> DiagMasks {
        let mut out = [0; MAX_BLOCK_DIAGS + 1];
        for (d, m) in out.iter_mut().enumerate().take(2 * B - 1) {
            *m = lane_mask(ctx, i0, j0, d);
        }
        out
    }
}

/// `[f(0), …, f(B-1)]`, as a plain indexed loop over a zeroed array:
/// unlike `std::array::from_fn` it always inlines, so LLVM sees every
/// primitive as `B` isomorphic lane operations it can vectorise.
#[inline(always)]
fn each_lane<const B: usize>(f: impl Fn(usize) -> i16) -> [i16; B] {
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
    fn shift_in(self, v: [i16; B], boundary: i16) -> [i16; B] {
        each_lane(|l| if l == 0 { boundary } else { v[l - 1] })
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
    fn mask_from_bits(self, bits: u16) -> [i16; B] {
        each_lane(|l| if bits & (1 << l) != 0 { -1 } else { 0 })
    }
    #[inline(always)]
    fn select(self, m: [i16; B], on: [i16; B], off: [i16; B]) -> [i16; B] {
        each_lane(|l| (on[l] & m[l]) | (off[l] & !m[l]))
    }
}
