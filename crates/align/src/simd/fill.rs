//! The wavefront block fill, written once over [`Lanes`] — see the layout
//! rules in the [module header](super).

use super::lanes::{block_base, delta, rebase, unbase, DiagMasks, Lanes};
use super::NEG_INF16;
use crate::block::{block_diags, BlockCellsT, BlockCtx, BoundaryT};
use crate::{MAX_BLOCK, MAX_BLOCK_DIAGS};

/// One block's inputs and in/out state, in the
/// [`crate::block::compute_block_i16`] convention, bundled so dispatch hands
/// a single value to whichever lane impl runs.
pub(crate) struct BlockIo<'a, const B: usize> {
    pub rcodes: &'a [u8; B],
    pub qcodes: &'a [u8; B],
    pub corner: i32,
    pub west_h: &'a mut BoundaryT<B>,
    pub west_e: &'a mut BoundaryT<B>,
    pub north_h: &'a mut BoundaryT<B>,
    pub north_f: &'a mut BoundaryT<B>,
    pub cells: &'a mut BlockCellsT<i16, B>,
}

impl<'a, const B: usize> BlockIo<'a, B> {
    /// The same block viewed at geometry `N` for a lane impl monomorphic in
    /// its width. Dispatch calls this under a `B == N` match arm, where it
    /// is the identity; any other use panics (the downcast of `cells` fails
    /// unless `B == N`).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    #[inline(always)]
    pub fn at_geometry<const N: usize>(self) -> BlockIo<'a, N> {
        let wrong = "lane impl dispatched at the wrong geometry";
        BlockIo {
            rcodes: self.rcodes.first_chunk().expect(wrong),
            qcodes: self.qcodes.first_chunk().expect(wrong),
            corner: self.corner,
            west_h: self.west_h.first_chunk_mut().expect(wrong),
            west_e: self.west_e.first_chunk_mut().expect(wrong),
            north_h: self.north_h.first_chunk_mut().expect(wrong),
            north_f: self.north_f.first_chunk_mut().expect(wrong),
            cells: (self.cells as &mut dyn std::any::Any).downcast_mut().expect(wrong),
        }
    }
}

/// Structural lane bitmask of block diagonal `d` at block side `b` (lanes
/// inside the `b×b` shape regardless of band/table).
#[inline]
pub(crate) const fn struct_mask(b: usize, d: usize) -> u16 {
    let lo = if d >= b { d - (b - 1) } else { 0 };
    let hi = if d < b { d } else { b - 1 };
    (((1u32 << (hi + 1)) - (1 << lo)) & 0xFFFF) as u16
}

/// [`struct_mask`] of every diagonal — the masks of an interior block.
struct Shape<const B: usize>;

impl<const B: usize> Shape<B> {
    const MASKS: DiagMasks = {
        let mut out = [0; MAX_BLOCK_DIAGS + 1];
        let mut d = 0;
        while d < block_diags(B) {
            out[d] = struct_mask(B, d);
            d += 1;
        }
        out
    };
}

/// Per-diagonal substitution lanes for a matrix score model: entry
/// `[d][l] = S(R[l], Q[d-l])` for every in-wavefront lane (`l ≤ d < l+B`),
/// zero elsewhere (those lanes are masked off downstream). The fill loads
/// one row per diagonal in place of the fixed-model compare/select.
///
/// When the block context carries a [`crate::QueryProfile`] built for this
/// matrix and query, rows come from its precomputed `S(c, Q[j])` tables
/// (contiguous reads, no two-level gather); otherwise they fall back to
/// direct matrix lookups. Both paths produce identical lanes: profile tail
/// slots score the pad residue exactly as `unpack_block`'s pad-clamped
/// `qcodes` do.
#[inline]
fn matrix_sub_lanes<const B: usize>(
    ctx: &BlockCtx<'_>,
    m: &'static crate::scoring::SubstMatrix,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
) -> [[i16; B]; MAX_BLOCK_DIAGS] {
    let mut out = [[0i16; B]; MAX_BLOCK_DIAGS];
    match ctx.profile {
        Some(p) if p.covers(m, ctx.m as usize) => {
            debug_assert!(j0 >= 0 && j0 < ctx.m, "block starts inside the query");
            for (l, &rc) in rcodes.iter().enumerate() {
                let row = &p.row(rc)[j0 as usize..j0 as usize + B];
                for (k, &s) in row.iter().enumerate() {
                    out[l + k][l] = s;
                }
            }
        }
        _ => {
            for (l, &rc) in rcodes.iter().enumerate() {
                for (k, &qc) in qcodes.iter().enumerate() {
                    out[l + k][l] = m.score(rc, qc) as i16;
                }
            }
        }
    }
    out
}

/// Fill one `B×B` block as `2B−1` anti-diagonal vectors of the lanes `L` —
/// the only wavefront recurrence in the crate ([`crate::block::fill_scalar`]
/// is its row-major reference). `inline(always)` with no `target_feature`
/// of its own: each instantiation compiles inside the feature wrapper (or
/// the portable dispatch arm) that names it.
#[inline(always)]
pub(crate) fn fill_block<L: Lanes<B>, const B: usize>(
    lanes: L,
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    io: BlockIo<'_, B>,
) {
    let BlockIo { rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells } = io;
    let diags = block_diags(B);

    let sc = ctx.scoring;
    let oe = lanes.splat(delta(sc.gap_open + sc.gap_extend));
    let ext = lanes.splat(delta(sc.gap_extend));
    // Fixed-model compare/select constants (zeroed and unused under a
    // matrix model, where per-diagonal rows replace them).
    let (f_match, f_mis, f_amb) = sc.model.fixed_params().unwrap_or((0, 0, 0));
    let v_match = lanes.splat(delta(f_match));
    let v_mis = lanes.splat(delta(-f_mis));
    let v_amb = lanes.splat(delta(-f_amb));
    let v_acgt_max = lanes.splat(delta(i32::from(crate::Base::N.code()) - 1));
    let sub_rows = sc.model.matrix().map(|m| matrix_sub_lanes::<B>(ctx, m, j0, rcodes, qcodes));
    let neg_inf = lanes.splat(NEG_INF16);

    let interior = ctx.block_interior(i0, j0);
    let masks = if interior { Shape::<B>::MASKS } else { lanes.edge_masks(ctx, i0, j0) };

    // The block runs on offsets from a real `H` of its boundary ring (the
    // recurrence is translation-invariant, so nothing below changes). Any
    // real ring value serves — the gate bounds the distance between any two
    // — so interior blocks, whose corner is always a valid cell, take it as
    // is: that keeps the ring reduction off the block-to-block dependency
    // chain of a row sweep, where the west carry arrives last.
    let base = if interior { corner } else { block_base(corner, west_h, north_h) };
    cells.base = base;
    // The boundary arrays double as outputs; snapshot (and rebase) them.
    let wh_in = lanes.rebase_boundary(west_h, base);
    let we_in = lanes.rebase_boundary(west_e, base);
    let nh_in = lanes.rebase_boundary(north_h, base);
    let nf_in = lanes.rebase_boundary(north_f, base);

    // Lane-0 up inputs per diagonal, -∞ past the block shape, so the loop
    // body is branch-free.
    let mut bh_pad = [NEG_INF16; MAX_BLOCK_DIAGS];
    let mut be_pad = [NEG_INF16; MAX_BLOCK_DIAGS];
    bh_pad[..B].copy_from_slice(&wh_in);
    be_pad[..B].copy_from_slice(&we_in);

    let r_vec = lanes.load(&rcodes.map(|c| delta(i32::from(c))));
    // Lane l of diagonal d reads qcodes[d - l] — a window *descending* in
    // memory — so a reversed, zero-padded copy turns the sliding query into
    // one unaligned load per diagonal: qrev[qrev_c - k] = qcodes[k], and
    // diagonal d's lanes start at qrev[qrev_c - d]. The padding reads as
    // code 0; those lanes are out of shape.
    let qrev_c = 2 * B - 2;
    let mut qrev = [0i16; 3 * MAX_BLOCK - 1];
    for (k, &c) in qcodes.iter().enumerate() {
        qrev[qrev_c - k] = delta(i32::from(c));
    }

    // State of diagonal d-1, with "H_{-1}" / "F_{-1}" — the north seed of
    // row 0 — in lane 0.
    let mut h_prev = lanes.shift_in(neg_inf, nh_in[0]);
    let mut f_prev = lanes.shift_in(neg_inf, nf_in[0]);
    let mut e_prev = neg_inf;
    // Lane 0's diagonal input at d is its up input at d-1 (`H(i0-1, j0+d-1)`,
    // the corner at d = 0), so row d's `diag` is exactly row d-1's up-shifted
    // H: carrying it takes one shift per diagonal off the loop-carried chain.
    let mut dg_next = lanes.shift_in(neg_inf, rebase(corner, base));

    let mut e_tmp = [[0i16; B]; B];
    let mut f_tmp = [[0i16; B]; B];

    // The d-1 dependency keeps the arithmetic sequential; finished rows
    // leave in pairs so wide backends can fuse the two stores. `2B−1` is
    // odd, so the last row is always the one left pending.
    let mut pending = neg_inf;
    for d in 0..diags {
        let up_h = lanes.shift_in(h_prev, bh_pad[d]);
        let up_e = lanes.shift_in(e_prev, be_pad[d]);
        let dg = dg_next;
        dg_next = up_h;

        // Substitution: matrix rows when present, else the fixed model
        // (ambiguous beats match beats mismatch).
        let sub = match &sub_rows {
            Some(rows) => lanes.load(&rows[d]),
            None => {
                // In bounds for every `d < 2B − 1`: the window ends at
                // `qrev_c − d + B ≤ 3B − 2`.
                let q_win = qrev[qrev_c - d..].first_chunk().expect("window inside qrev");
                let q_vec = lanes.load(q_win);
                let eq = lanes.cmp_eq(r_vec, q_vec);
                let amb = lanes.cmp_gt(lanes.max(r_vec, q_vec), v_acgt_max);
                lanes.select(amb, v_amb, lanes.select(eq, v_match, v_mis))
            }
        };

        let e = lanes.max(lanes.sub(up_h, oe), lanes.sub(up_e, ext));
        let f = lanes.max(lanes.sub(h_prev, oe), lanes.sub(f_prev, ext));
        let h = lanes.max(e, lanes.max(f, lanes.add(dg, sub)));

        cells.mask[d] = masks[d];
        let m = lanes.mask_from_bits(masks[d]);
        let h_m = lanes.select(m, h, neg_inf);
        if d % 2 == 0 {
            pending = h_m;
        } else {
            let pair = cells.h[d - 1..].first_chunk_mut().expect("rows d − 1 and d exist");
            lanes.store2(pair, pending, h_m);
        }
        // Interior blocks mask only the stored row: the shape grows one
        // lane per diagonal, so an out-of-shape lane never shifts into a
        // valid one and the boundary stages are read at in-shape lanes
        // only. On edge blocks clipping is semantic — a clipped lane must
        // read as -∞ from its in-band neighbour.
        let (e_s, h_s, f_s) = if interior {
            (e, h, f)
        } else {
            (lanes.select(m, e, neg_inf), h_m, lanes.select(m, f, neg_inf))
        };
        if d >= B - 1 {
            lanes.store(&mut e_tmp[d - (B - 1)], e_s);
            lanes.store(&mut f_tmp[d - (B - 1)], f_s);
        }
        // Pre-seed the north boundary of row d+1 into the out-of-shape
        // lane d+1, where the next diagonals read it as left/diag.
        (h_prev, f_prev) = if d + 1 < B {
            (lanes.set_lane(h_s, d + 1, nh_in[d + 1]), lanes.set_lane(f_s, d + 1, nf_in[d + 1]))
        } else {
            (h_s, f_s)
        };
        e_prev = e_s;
    }
    lanes.store(&mut cells.h[diags - 1], pending);

    // Boundary outputs, once the stores have drained (a scalar read straight
    // after a vector store costs a store-forward round trip): lane B-1 of
    // diagonal B-1+k is the block's last row (west output for column k);
    // lane k of the same diagonal is its last column (north output, row k).
    for k in 0..B {
        west_h[k] = unbase(cells.h[k + B - 1][B - 1], base);
        west_e[k] = unbase(e_tmp[k][B - 1], base);
        north_h[k] = unbase(cells.h[k + B - 1][k], base);
        north_f[k] = unbase(f_tmp[k][k], base);
    }
}
