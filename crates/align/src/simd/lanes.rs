//! The lane-primitive layer the one wavefront body ([`super::fill`]) is
//! written against: a scalar element trait ([`LaneElem`]) carrying each
//! tier's arithmetic, a vector trait ([`Lanes`]) with one impl per backend ×
//! lane type, and the array-backed [`Portable`] impl that runs on any
//! target (and under Miri) and is the semantic reference the x86 impls in
//! [`super::x86`] are compared to.

use super::lane_mask;
use crate::block::{BlockCtx, CellValue};
use crate::MAX_BLOCK_DIAGS;
use std::marker::PhantomData;
use std::ops::{BitAnd, BitOr, Not};

/// Per-diagonal lane bitmasks of one block, diagonal-indexed (one spare
/// slot so 16-diagonal vector steps can write whole chunks).
pub(crate) type DiagMasks = [u16; MAX_BLOCK_DIAGS + 1];

/// Scalar lane element of one precision tier. `add`/`sub` are the tier's
/// arithmetic: wrapping for i32 (exact under `simd_exact`), saturating for
/// i16 (sentinel-class values pin in the sentinel band instead of wrapping
/// into plausible scores).
pub(crate) trait LaneElem:
    CellValue + Ord + BitAnd<Output = Self> + BitOr<Output = Self> + Not<Output = Self>
{
    const ZERO: Self;
    /// All bits set: a set lane of a [`Portable`] lane mask.
    const ONES: Self;
    /// Block-entry conversion from the `i32` interface (exact on every real
    /// value under the tier's gate).
    fn narrow(v: i32) -> Self;
    /// Block-exit conversion back to the `i32` interface.
    fn widen(self) -> i32;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
}

impl LaneElem for i32 {
    const ZERO: i32 = 0;
    const ONES: i32 = -1;
    #[inline(always)]
    fn narrow(v: i32) -> i32 {
        v
    }
    #[inline(always)]
    fn widen(self) -> i32 {
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
    #[inline(always)]
    fn narrow(v: i32) -> i16 {
        super::to16(v)
    }
    #[inline(always)]
    fn widen(self) -> i32 {
        i32::from(self)
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
    unsafe fn narrow_boundary(src: &[i32; B]) -> [Self::Elem; B] {
        src.map(Self::Elem::narrow)
    }

    /// One substitution row of [`super::fill::matrix_sub_lanes`] as lanes.
    #[inline(always)]
    unsafe fn widen_sub_row(src: &[i16; B]) -> Self::V {
        Self::load(&src.map(|s| Self::Elem::narrow(i32::from(s))), 0)
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
