//! The lane-primitive layer the one wavefront body ([`super::fill`]) and the
//! one tracker fold ([`crate::diag::DiagTracker::fold_block`]) are written
//! against: a scalar element trait ([`LaneElem`]) carrying each
//! tier's arithmetic, a vector trait ([`Lanes`]) with one impl per backend ×
//! lane type, and the array-backed [`Portable`] impl that runs on any
//! target (and under Miri) and is the semantic reference the x86 impls in
//! [`super::x86`] are compared to.

use super::{lane_mask, to16, SENTINEL_BAND16};
use crate::block::{BlockCtx, CellValue, I32_REACH_BOUND};
use crate::{MAX_BLOCK_DIAGS, NEG_INF};
use std::marker::PhantomData;
use std::ops::{BitAnd, BitOr, Not};

/// Per-diagonal lane bitmasks of one block, diagonal-indexed (one spare
/// slot so 16-diagonal vector steps can write whole chunks).
pub(crate) type DiagMasks = [u16; MAX_BLOCK_DIAGS + 1];

/// Scalar lane element of one precision tier. `add`/`sub` are the tier's
/// arithmetic: wrapping for i32 (exact under `simd_exact`), saturating for
/// i16 (sentinel-class values pin in the sentinel band instead of wrapping
/// into plausible scores).
///
/// Lanes of the i16 tier hold *offsets from a per-block base* (a real `H`
/// of the block's boundary ring, see [`block_base`]), so the lane width
/// bounds the score spread inside one block, never the absolute score; the
/// i32 tier's base is always 0.
pub(crate) trait LaneElem:
    CellValue + Ord + BitAnd<Output = Self> + BitOr<Output = Self> + Not<Output = Self>
{
    const ZERO: Self;
    /// All bits set: a set lane of a [`Portable`] lane mask.
    const ONES: Self;
    /// Whether lanes hold offsets from a per-block base.
    const REBASED: bool;
    /// A score *difference* (penalty, substitution score) or residue code as
    /// a lane value — base-free by nature.
    fn delta(v: i32) -> Self;
    /// Block-entry conversion of an absolute `i32` score to a lane value
    /// (exact on every real value under the tier's gate; `-∞`-class inputs
    /// land in the tier's sentinel band).
    fn rebase(v: i32, base: i32) -> Self;
    /// Block-exit conversion back to an absolute `i32` score. Sentinel-class
    /// lanes come out as exactly [`NEG_INF`], whatever they drifted to.
    fn unbase(self, base: i32) -> i32;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
}

impl LaneElem for i32 {
    const ZERO: i32 = 0;
    const ONES: i32 = -1;
    const REBASED: bool = false;
    #[inline(always)]
    fn delta(v: i32) -> i32 {
        v
    }
    #[inline(always)]
    fn rebase(v: i32, _base: i32) -> i32 {
        v
    }
    #[inline(always)]
    fn unbase(self, _base: i32) -> i32 {
        self
    }
    #[inline(always)]
    fn add(self, o: i32) -> i32 {
        self.wrapping_add(o)
    }
    #[inline(always)]
    fn sub(self, o: i32) -> i32 {
        self.wrapping_sub(o)
    }
}

impl LaneElem for i16 {
    const ZERO: i16 = 0;
    const ONES: i16 = -1;
    const REBASED: bool = true;
    #[inline(always)]
    fn delta(v: i32) -> i16 {
        to16(v)
    }
    #[inline(always)]
    fn rebase(v: i32, base: i32) -> i16 {
        // No overflow: `base` is a real score (`|base| < 2^29` under
        // `simd_exact`, which the i16 gate includes) and `v ≥ NEG_INF`.
        to16(v - base)
    }
    #[inline(always)]
    fn unbase(self, base: i32) -> i32 {
        if self <= SENTINEL_BAND16 {
            NEG_INF
        } else {
            i32::from(self) + base
        }
    }
    #[inline(always)]
    fn add(self, o: i16) -> i16 {
        self.saturating_add(o)
    }
    #[inline(always)]
    fn sub(self, o: i16) -> i16 {
        self.saturating_sub(o)
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

/// `B` lanes of [`Lanes::Elem`] in one vector `V`, with lane predicates `M`
/// (a vector mask below AVX-512, a mask register on it). Every method is
/// `#[inline(always)]` with no `target_feature` of its own, so the body
/// compiles at the feature level of the wrapper it is instantiated in.
///
/// # Safety
/// The methods of an x86 impl execute that impl's instruction set: callers
/// must have verified it at runtime (the `#[target_feature]` wrappers in
/// [`super::x86`] are the only callers, and dispatch checks before entering
/// them). [`Portable`] has no requirement.
pub(crate) trait Lanes<const B: usize> {
    type Elem: LaneElem;
    type V: Copy;
    type M: Copy;

    unsafe fn splat(x: Self::Elem) -> Self::V;
    /// The `B` lanes `src[at..at + B]`.
    unsafe fn load(src: &[Self::Elem], at: usize) -> Self::V;
    unsafe fn store(dst: &mut [Self::Elem; B], v: Self::V);
    /// Lane `l` ← lane `l-1`, lane 0 ← `boundary`.
    unsafe fn shift_in(v: Self::V, boundary: Self::Elem) -> Self::V;
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn cmp_eq(a: Self::V, b: Self::V) -> Self::M;
    unsafe fn cmp_gt(a: Self::V, b: Self::V) -> Self::M;
    /// Lane `l` set iff bit `l` of `bits` is.
    unsafe fn mask_from_bits(bits: u16) -> Self::M;
    /// Per lane: `on` where `m` is set, `off` elsewhere.
    unsafe fn select(m: Self::M, on: Self::V, off: Self::V) -> Self::V;

    /// `v` with lane `lane` replaced by `x` (the north pre-seed).
    #[inline(always)]
    unsafe fn set_lane(v: Self::V, lane: usize, x: Self::Elem) -> Self::V {
        Self::select(Self::mask_from_bits(1 << lane), Self::splat(x), v)
    }

    /// Block-entry conversion of one `i32` boundary carry.
    #[inline(always)]
    unsafe fn rebase_boundary(src: &[i32; B], base: i32) -> [Self::Elem; B] {
        src.map(|v| Self::Elem::rebase(v, base))
    }

    /// One substitution row of [`super::fill::matrix_sub_lanes`] as lanes.
    #[inline(always)]
    unsafe fn widen_sub_row(src: &[i16; B]) -> Self::V {
        Self::load(&src.map(|s| Self::Elem::delta(i32::from(s))), 0)
    }

    /// Finished rows `d` and `d + 1` into the staging buffer.
    #[inline(always)]
    unsafe fn store2(
        rows: &mut [[Self::Elem; B]; MAX_BLOCK_DIAGS],
        d: usize,
        lo: Self::V,
        hi: Self::V,
    ) {
        Self::store(&mut rows[d], lo);
        Self::store(&mut rows[d + 1], hi);
    }

    /// The tracker fold's row reduce over the eight staged i16 lanes
    /// `row[8 * half..][..8]`: the `phminposuw`-format word `(lane << 16) | y`
    /// of the smallest `y = 0x7FFF − h` (wrapping: the exact order-reversed
    /// u16 pattern over the whole i16 range) at the first lane attaining it —
    /// the maximum `h` at its smallest lane, the canonical ascending-`i`
    /// tie-break. Independent of [`Lanes::Elem`]: only i16 staging is folded
    /// through the lanes.
    #[inline(always)]
    unsafe fn minpos8(row: &[i16; B], half: usize) -> u32 {
        let mut best = u32::MAX;
        for (l, &h) in row[8 * half..][..8].iter().enumerate() {
            let y = u32::from((i16::MAX as u16).wrapping_sub(h as u16));
            best = best.min(y << 3 | l as u32);
        }
        (best & 7) << 16 | best >> 3
    }

    /// Valid-lane masks of every diagonal of the edge block at `(i0, j0)`.
    #[inline(always)]
    unsafe fn edge_masks(ctx: &BlockCtx<'_>, i0: i64, j0: i64) -> DiagMasks {
        let mut out = [0; MAX_BLOCK_DIAGS + 1];
        for (d, m) in out.iter_mut().enumerate().take(2 * B - 1) {
            *m = lane_mask(ctx, i0, j0, d);
        }
        out
    }
}

/// `[f(0), …, f(B-1)]`, as a plain indexed loop over a pre-filled array:
/// unlike `std::array::from_fn` it always inlines, so LLVM sees every
/// primitive as `B` isomorphic lane operations it can vectorise.
#[inline(always)]
fn each_lane<U: Copy, const B: usize>(fill: U, f: impl Fn(usize) -> U) -> [U; B] {
    let mut out = [fill; B];
    for (l, slot) in out.iter_mut().enumerate() {
        *slot = f(l);
    }
    out
}

/// Array-backed lanes: straight-line per-lane arithmetic over `[T; B]` that
/// LLVM auto-vectorises. Runs the i32 tier below AVX2, the B=16 i32 tier
/// everywhere, and the i16 tier wherever no vector impl fits the geometry.
pub(crate) struct Portable<T>(PhantomData<T>);

// The `unsafe fn`s below are safe to call; the qualifier is the trait's.
impl<T: LaneElem, const B: usize> Lanes<B> for Portable<T> {
    type Elem = T;
    type V = [T; B];
    type M = [T; B];

    #[inline(always)]
    unsafe fn splat(x: T) -> [T; B] {
        [x; B]
    }
    #[inline(always)]
    unsafe fn load(src: &[T], at: usize) -> [T; B] {
        each_lane(T::ZERO, |l| src[at + l])
    }
    #[inline(always)]
    unsafe fn store(dst: &mut [T; B], v: [T; B]) {
        *dst = v;
    }
    #[inline(always)]
    unsafe fn shift_in(v: [T; B], boundary: T) -> [T; B] {
        each_lane(T::ZERO, |l| if l == 0 { boundary } else { v[l - 1] })
    }
    #[inline(always)]
    unsafe fn add(a: [T; B], b: [T; B]) -> [T; B] {
        each_lane(T::ZERO, |l| a[l].add(b[l]))
    }
    #[inline(always)]
    unsafe fn sub(a: [T; B], b: [T; B]) -> [T; B] {
        each_lane(T::ZERO, |l| a[l].sub(b[l]))
    }
    #[inline(always)]
    unsafe fn max(a: [T; B], b: [T; B]) -> [T; B] {
        each_lane(T::ZERO, |l| a[l].max(b[l]))
    }
    #[inline(always)]
    unsafe fn cmp_eq(a: [T; B], b: [T; B]) -> [T; B] {
        each_lane(T::ZERO, |l| if a[l] == b[l] { T::ONES } else { T::ZERO })
    }
    #[inline(always)]
    unsafe fn cmp_gt(a: [T; B], b: [T; B]) -> [T; B] {
        each_lane(T::ZERO, |l| if a[l] > b[l] { T::ONES } else { T::ZERO })
    }
    #[inline(always)]
    unsafe fn mask_from_bits(bits: u16) -> [T; B] {
        each_lane(T::ZERO, |l| if bits & (1 << l) != 0 { T::ONES } else { T::ZERO })
    }
    #[inline(always)]
    unsafe fn select(m: [T; B], on: [T; B], off: [T; B]) -> [T; B] {
        each_lane(T::ZERO, |l| (on[l] & m[l]) | (off[l] & !m[l]))
    }
}
