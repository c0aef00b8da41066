//! The wavefront fill of a row segment, written once over [`Lanes`] — see
//! the layout rules in the [module header](super).

use super::lanes::{delta, each_lane, rebase, ring_base, unbase, Lanes};
use super::{NEG_INF16, SENTINEL_BAND16};
use crate::block::{BlockCellsT, BlockCtx, BoundaryT};
use crate::diag::DiagTracker;
use crate::{MAX_STRIP, STAGE_ROWS};

/// One segment's inputs and in/out state — `cols = north_h.len()` reference
/// positions (whole blocks) from `i0` of the block row at `j0` — bundled so
/// dispatch hands a single value to whichever lane impl runs. A single block
/// ([`crate::block::compute_block_i16`]) is the segment with `cols = B`.
pub(crate) struct SegmentIo<'a, const B: usize> {
    pub i0: i64,
    pub j0: i64,
    /// Residue codes, as lane values, of reference positions
    /// `i0 − (B−1) .. i0 + cols + (B−1)`: lane `l` of step `t` reads
    /// `rcodes[t + l]` (the ends are only ever read by inactive lanes).
    pub rcodes: &'a [i16],
    pub qcodes: &'a [u8; B],
    /// `H(i0−1, j0−1)`.
    pub corner: i32,
    /// In `H/E(i0−1, j0+k)`; out `H/E(i0+cols−1, j0+k)`.
    pub west_h: &'a mut BoundaryT<B>,
    pub west_e: &'a mut BoundaryT<B>,
    /// In `H/F(i0+x, j0−1)`, masked; out `H/F(i0+x, j0+B−1)`.
    pub north_h: &'a mut [i32],
    pub north_f: &'a mut [i32],
    /// Staging of the window in flight (of the whole block when `cols = B`).
    pub cells: &'a mut BlockCellsT<i16, B>,
    /// Folds every staged window when present; `None` fills only.
    pub tracker: Option<&'a mut DiagTracker>,
}

impl<'a, const B: usize> SegmentIo<'a, B> {
    /// The same segment viewed at geometry `N` for a lane impl monomorphic in
    /// its width. Dispatch calls this under a `B == N` match arm, where it
    /// is the identity; any other use panics (the downcast of `cells` fails
    /// unless `B == N`).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    #[inline(always)]
    pub fn at_geometry<const N: usize>(self) -> SegmentIo<'a, N> {
        let wrong = "lane impl dispatched at the wrong geometry";
        SegmentIo {
            i0: self.i0,
            j0: self.j0,
            rcodes: self.rcodes,
            qcodes: self.qcodes.first_chunk().expect(wrong),
            corner: self.corner,
            west_h: self.west_h.first_chunk_mut().expect(wrong),
            west_e: self.west_e.first_chunk_mut().expect(wrong),
            north_h: self.north_h,
            north_f: self.north_f,
            cells: (self.cells as &mut dyn std::any::Any).downcast_mut().expect(wrong),
            tracker: self.tracker,
        }
    }
}

/// Per-step substitution lanes of one window for a matrix score model, into
/// `out`: entry `[d][l] = S(R[d + l], Q[j0 + B−1 − l])` — the default
/// [`Lanes::sub_rows`]. The fill loads one row per step in place of the
/// fixed-model compare/select.
///
/// The scores of reference position `x` against the `B` query rows are one
/// contiguous read of the [`crate::QueryProfile`] the block context carries
/// for this matrix and query — direct matrix lookups otherwise; the two are
/// identical lanes: profile tail slots score the pad residue exactly as
/// `unpack_block`'s pad-clamped `qcodes` do. Laid out one position per row,
/// they are the window unskewed: lane `l` is moved up by `l` rows one binary
/// digit of `l` at a time, a constant-mask blend per row and digit (the
/// lowest and the highest on the way in) — five digits at 32 lanes.
#[inline(always)]
pub(super) fn matrix_sub_rows<L: Lanes<B>, const B: usize>(
    lanes: L,
    ctx: &BlockCtx<'_>,
    m: &'static crate::scoring::SubstMatrix,
    j0: i64,
    rcodes: &[i16],
    qcodes: &[u8; B],
    out: &mut [[i16; B]; STAGE_ROWS + MAX_STRIP],
) {
    let profile = ctx.profile.filter(|p| p.covers(m, ctx.m as usize));
    let scores = |rc: i16| match profile {
        Some(p) => lanes.load(p.strip(rc as u8, j0 as usize)),
        None => lanes.load(&each_lane(|l| m.score(rc as u8, qcodes[B - 1 - l]) as i16)),
    };
    // The lanes whose index has binary digit `k` set.
    let digit_set = |k: usize| {
        lanes.mask_from_bits([0xAAAA_AAAA, 0xCCCC_CCCC, 0xF0F0_F0F0, 0xFF00_FF00, 0xFFFF_0000][k])
    };
    // The lowest and the highest digit on the way in, from a sliding pair
    // of profile rows each; then the rest, the widest first: each later pass
    // reads fewer rows ahead, so each pass only moves the rows the passes
    // after it read — those of the window's `len` steps at the last.
    let (top, half) = (B.ilog2() as usize - 1, B / 2);
    let len = rcodes.len() + 1 - B;
    let (mut lo, mut hi) = (scores(rcodes[0]), scores(rcodes[half]));
    for (x, row) in out[..len + half - 2].iter_mut().enumerate() {
        let (lo_up, hi_up) = (scores(rcodes[x + 1]), scores(rcodes[x + half + 1]));
        let (lo_v, hi_v) =
            (lanes.select(digit_set(0), lo_up, lo), lanes.select(digit_set(0), hi_up, hi));
        lanes.store(row, lanes.select(digit_set(top), hi_v, lo_v));
        (lo, hi) = (lo_up, hi_up);
    }
    for k in (1..top).rev() {
        for x in 0..len + (1 << k) - 2 {
            let v = lanes.select(digit_set(k), lanes.load(&out[x + (1 << k)]), lanes.load(&out[x]));
            lanes.store(&mut out[x], v);
        }
    }
}

/// Fill one row segment as a single skewed wavefront of the lanes `L`,
/// [`STAGE_ROWS`] steps at a time — the only wavefront recurrence in the
/// crate ([`crate::block::fill_scalar`] is its row-major reference) — folding
/// each staged window into the tracker when there is one. `inline(always)`
/// with no `target_feature` of its own: each instantiation compiles inside
/// the feature wrapper (or the portable dispatch arm) that names it.
#[inline(always)]
pub(crate) fn fill_segment<L: Lanes<B>, const B: usize>(
    lanes: L,
    ctx: &BlockCtx<'_>,
    io: SegmentIo<'_, B>,
) {
    let SegmentIo {
        i0,
        j0,
        rcodes,
        qcodes,
        corner,
        west_h,
        west_e,
        north_h,
        north_f,
        cells,
        mut tracker,
    } = io;
    let cols = north_h.len();
    let steps = cols + B - 1;
    assert!(cols >= B && cols % B == 0, "a segment is whole blocks");
    assert_eq!((north_f.len(), rcodes.len()), (cols, steps + B - 1), "segment inputs disagree");

    let sc = ctx.scoring;
    let oe = lanes.splat(delta(sc.gap_open + sc.gap_extend));
    let ext = lanes.splat(delta(sc.gap_extend));
    // Fixed-model compare/select constants (zeroed and unused under a
    // matrix model, where per-step rows replace them).
    let (f_match, f_mis, f_amb) = sc.model.fixed_params().unwrap_or((0, 0, 0));
    let v_match = lanes.splat(delta(f_match));
    let v_mis = lanes.splat(delta(-f_mis));
    let v_amb = lanes.splat(delta(-f_amb));
    let v_acgt_max = lanes.splat(delta(i32::from(crate::Base::N.code()) - 1));
    // (Only a matrix model has per-step rows to fill.)
    let mut sub_rows = sc.model.matrix().map(|m| (m, [[0i16; B]; STAGE_ROWS + MAX_STRIP]));
    let neg_inf = lanes.splat(NEG_INF16);
    let band = lanes.splat(SENTINEL_BAND16);
    // Lane `l` is query row `j0 + B−1 − l`: its code is fixed, the reference
    // slides past.
    let q_vec = lanes.load(&each_lane(|l| delta(i32::from(qcodes[B - 1 - l]))));
    let full = u32::MAX >> (32 - B);
    let (full_from, full_to) = ctx.full_steps(i0, cols, j0);

    // The front runs on offsets from `base`, a real `H` near it (the
    // recurrence is translation-invariant, so nothing below changes): the
    // entry ring's largest to start with, then re-centred window by window.
    let mut base = ring_base(corner, &west_h[..], &north_h[..B]);
    // State of step t−1. Inactive lanes *hold*: a lane whose row has not
    // started carries its west boundary — which is what its first cell reads
    // as left and the lane below it as diagonal — and a lane whose row is
    // done carries its east boundary out.
    let mut h_prev = lanes.load(&each_lane(|l| rebase(west_h[B - 1 - l], base)));
    let mut e_prev = lanes.load(&each_lane(|l| rebase(west_e[B - 1 - l], base)));
    let mut f_prev = neg_inf;
    // The top lane's diagonal input at t is its up input at t−1 (the corner
    // at t = 0), so step t's `diag` is exactly step t−1's up-shifted H:
    // carrying it takes one shift per step off the loop-carried chain.
    let mut dg_next = lanes.shift_in(neg_inf, &[rebase(corner, base); B]);

    for t0 in (0..steps).step_by(STAGE_ROWS) {
        let len = (steps - t0).min(STAGE_ROWS);
        if t0 > 0 {
            // Re-centre on the largest real `H` of the last two staged rows
            // (two, so that a band of one diagonal still has one): masked
            // lanes hold `NEG_INF16` and lose the reduce. Sentinel-class
            // lanes are re-pinned, so they never drift with the base.
            let keys = lanes.max_keys::<2>(cells.h.last_chunk().expect("two staged rows"));
            let y = keys[0].min(keys[1]) >> 5;
            let x = (i16::MAX as u16).wrapping_sub(y as u16) as i16;
            if x > SENTINEL_BAND16 {
                base += i32::from(x);
                let shift = lanes.splat(x);
                for v in [&mut h_prev, &mut e_prev, &mut f_prev, &mut dg_next] {
                    *v = lanes.select(lanes.cmp_gt(*v, band), lanes.sub(*v, shift), neg_inf);
                }
            }
        }
        cells.set_origin(i0 + t0 as i64, j0);
        cells.base = base;

        // The north row streams in at the top lane, one value per step; past
        // the segment's columns the top lane is done and reads nothing.
        let mut nh = [NEG_INF16; STAGE_ROWS + MAX_STRIP];
        let mut nf = [NEG_INF16; STAGE_ROWS + MAX_STRIP];
        let span = t0.min(cols)..(t0 + len).min(cols);
        let blocks = north_h[span.clone()].as_chunks::<B>().0.iter();
        for (k, (h, f)) in blocks.zip(north_f[span].as_chunks::<B>().0).enumerate() {
            nh[k * B..][..B].copy_from_slice(&lanes.rebase_boundary(h, base));
            nf[k * B..][..B].copy_from_slice(&lanes.rebase_boundary(f, base));
        }

        // A window of full steps is a whole one; any other asks the strip,
        // which also has the steps past the segment's last empty.
        cells.mask = [full; STAGE_ROWS];
        if t0 < full_from || full_to < t0 + len {
            let valid = ctx.strip_lanes(i0, cols, j0, t0);
            for (d, m) in cells.mask.iter_mut().enumerate() {
                *m = valid.mask(d as i32);
            }
        }
        // Lane `l` of step `d` reads `codes[d + l]`.
        let codes = &rcodes[t0..t0 + len + B - 1];
        if let Some((m, rows)) = &mut sub_rows {
            lanes.sub_rows(ctx, m, j0, codes, qcodes, rows);
        }

        // The bottom lane's H and F, step by step: the south boundary.
        let mut south_h = [0i16; STAGE_ROWS + 1];
        let mut south_f = [0i16; STAGE_ROWS + 1];
        for d in 0..len {
            let up_h = lanes.shift_in(h_prev, nh[d..].first_chunk().expect("a window of slack"));
            let up_f = lanes.shift_in(f_prev, nf[d..].first_chunk().expect("a window of slack"));
            let dg = dg_next;
            dg_next = up_h;

            // Substitution: matrix rows when present, else the fixed model
            // (ambiguous beats match beats mismatch).
            let sub = if let Some((_, rows)) = &sub_rows {
                lanes.load(&rows[d])
            } else {
                let r_vec = lanes.load(codes[d..].first_chunk().expect("codes cover the ramp"));
                let eq = lanes.cmp_eq(r_vec, q_vec);
                let amb = lanes.cmp_gt(lanes.max(r_vec, q_vec), v_acgt_max);
                lanes.select(amb, v_amb, lanes.select(eq, v_match, v_mis))
            };

            let e = lanes.max(lanes.sub(h_prev, oe), lanes.sub(e_prev, ext));
            let f = lanes.max(lanes.sub(up_h, oe), lanes.sub(up_f, ext));
            let h = lanes.max(lanes.max(e, lanes.add(dg, sub)), f);

            let bits = cells.mask[d];
            let (h_m, f_m) = if bits == full {
                (h_prev, e_prev) = (h, e);
                (h, f)
            } else {
                // Clipping is semantic — a clipped lane must read as -∞ from
                // its in-band neighbour — except on the lanes outside the
                // segment's columns, which hold.
                let t = t0 + d;
                // (In u64: at 32 lanes a shift by the full width is one.)
                let before = (1u64 << (B - 1).saturating_sub(t)) - 1;
                let after = !0u64 << (steps - t).min(B);
                let hold = (before | after) as u32 & full;
                let m = lanes.mask_from_bits(bits);
                let (h_m, e_m) = (lanes.select(m, h, neg_inf), lanes.select(m, e, neg_inf));
                if hold == 0 {
                    (h_prev, e_prev) = (h_m, e_m);
                } else {
                    let hold = lanes.mask_from_bits(hold);
                    h_prev = lanes.select(hold, h_prev, h_m);
                    e_prev = lanes.select(hold, e_prev, e_m);
                }
                (h_m, lanes.select(m, f, neg_inf))
            };
            f_prev = f_m;
            lanes.store(&mut cells.h[d], h_m);
            lanes.store_low(south_h[d..].first_chunk_mut().expect("one spare slot"), h_m);
            lanes.store_low(south_f[d..].first_chunk_mut().expect("one spare slot"), f_m);
        }

        // Step t's bottom lane is the segment's last row at column
        // `t − (B−1)`: at most `B−1` steps behind what the top lane has read.
        let skip = (B - 1).saturating_sub(t0);
        let out = t0 + skip - (B - 1);
        for (dst, &x) in north_h[out..].iter_mut().zip(&south_h[skip..len]) {
            *dst = unbase(x, base);
        }
        for (dst, &x) in north_f[out..].iter_mut().zip(&south_f[skip..len]) {
            *dst = unbase(x, base);
        }

        if let Some(tracker) = tracker.as_deref_mut() {
            tracker.fold_block(lanes, cells);
        }
    }

    let (mut east_h, mut east_e) = ([0i16; B], [0i16; B]);
    lanes.store(&mut east_h, h_prev);
    lanes.store(&mut east_e, e_prev);
    for k in 0..B {
        west_h[k] = unbase(east_h[B - 1 - k], base);
        west_e[k] = unbase(east_e[B - 1 - k], base);
    }
}
