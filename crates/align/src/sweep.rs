//! The block-row sweep: the boundary-passing protocol of the block grid
//! (§2.2), written once.
//!
//! A query-block row `bj` is swept as **one segment**: the blocks of its
//! band range ([`BlockCtx::row_block_range`]), executed west to east. The
//! row reads its west boundary and corner from the table edge or the band
//! edge ([`west_init`], [`corner_read`]) and its north boundary from the
//! rows stored by the block row above, and leaves its own south boundary in
//! those rows for the row below — the only state that passes between rows.
//! No corner or west column is carried from one segment to another: the
//! §4.2 slices that cut a row into several exist only on the simulated
//! device (`agatha_core::trace`), which the host never executes.
//!
//! On the i16 tier a row is **one wavefront**
//! ([`crate::simd::segment_wavefront_i16`]): the `B` lanes are the block
//! row's query rows and a step is one table anti-diagonal cut to them, so
//! `k` blocks take `kB + B − 1` vector steps (≥ 95 % full lanes on a band
//! row) with one ramp, one dispatch and one feature boundary. Per step the
//! north row's `H`/`F` at the next column enter at the strip's top lane and
//! the bottom lane's `H`/`F` leave as the south boundary, `B − 1` columns
//! behind — both through [`NorthRows`], read and overwritten in place; the
//! west column is seeded into the lanes during the ramp-up, which is why a
//! row still starts on an `i32` column. Staged anti-diagonals fold into the
//! tracker a fixed window at a time. The scalar tier runs the same row
//! block by block.
//!
//! [`Sweep::row`] is the one copy of that loop, and [`Sweep::row_major`]
//! the one schedule over it — every row top-down, a termination check after
//! each. The AGAThA kernel (`agatha_core::kernel`) runs it on its reused
//! workspace, [`grid_align`] is the same on buffers of its own (the
//! reference driver [`crate::block::block_grid_align`] is its 8×8 case), and
//! the benches and tests drive rows rather than the per-block functions.

use std::ops::Range;

use crate::block::{corner_read, fill_scalar, west_init};
use crate::block::{BlockCellsT, BlockCtx, FillTier};
use crate::diag::DiagTracker;
use crate::pack::PackedSeq;
use crate::result::{GuidedResult, StopReason};
use crate::simd::{segment_wavefront_i16, SegmentIo};
use crate::{MAX_BLOCK, NEG_INF};

/// A sweep's per-reference-position state, padded to whole blocks: the
/// south boundary (`H`, `F`) of the block rows swept so far — what a row
/// reads as its north boundary and overwrites with its own south boundary —
/// and the reference's residue codes as the wavefront's lanes read them.
/// Grow-only and geometry-agnostic, so callers keep one across tasks;
/// [`Sweep::new`] resizes and refills it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NorthRows {
    h: Vec<i32>,
    f: Vec<i32>,
    /// `B − 1` slots, the padded reference, `B − 1` slots: a strip's lanes
    /// slide over one window of it per step, ramps included.
    rcodes: Vec<i16>,
}

impl NorthRows {
    /// Capacity currently held, in cells per row (steady-state reuse must
    /// stop growing it).
    pub fn capacity(&self) -> usize {
        self.h.capacity()
    }
}

/// The staging buffer of the task's fill tier — one per sweep, whichever
/// tier was resolved.
#[derive(Debug)]
enum Staging<const B: usize> {
    /// [`FillTier::I16`]: one window of a row's wavefront at a time.
    I16(BlockCellsT<i16, B>),
    /// [`FillTier::Scalar`]: filled by [`fill_scalar`], the scalar
    /// reference, block by block ([`scalar_segment`]).
    Scalar(BlockCellsT<i32, B>),
}

/// One task's block grid, open for sweeping at geometry `B`.
#[derive(Debug)]
pub struct Sweep<'a, const B: usize> {
    ctx: BlockCtx<'a>,
    query: &'a PackedSeq,
    rows: &'a mut NorthRows,
    tracker: Option<&'a mut DiagTracker>,
    staging: Staging<B>,
}

/// Turn the stored rows over `span` into the north boundary of the block row
/// at `j0`, in place: the DP border when `j0 == 0`, otherwise what the row
/// above stored wherever `(i, j0−1)` is a cell of the band and the table —
/// the rest of `span` holds older rows' leftovers and reads as `-∞`.
fn north_in_place(ctx: &BlockCtx<'_>, j0: i64, span: Range<usize>, h: &mut [i32], f: &mut [i32]) {
    if j0 == 0 {
        for i in span.clone() {
            h[i] = ctx.scoring.border(i as i32);
        }
        f[span].fill(NEG_INF);
        return;
    }
    let inside = |i: i64| i.clamp(span.start as i64, span.end as i64) as usize;
    let from = inside(j0 - 1 - ctx.w);
    let to = inside((j0 + ctx.w).min(ctx.n)).max(from);
    for row in [h, f] {
        row[span.start..from].fill(NEG_INF);
        row[to..span.end].fill(NEG_INF);
    }
}

impl<'a, const B: usize> Sweep<'a, B> {
    /// Open the grid of `reference × query`: `ctx` is the task's context with
    /// backend and profile already applied, `tier` the fill tier resolved for
    /// it ([`BlockCtx::fill_tier`]), `tracker` a tracker already reset for
    /// the task — or `None` to fill only (what a fold-by-difference timing
    /// needs; the boundaries left in `rows` are the same either way).
    pub fn new(
        ctx: BlockCtx<'a>,
        tier: FillTier,
        reference: &'a PackedSeq,
        query: &'a PackedSeq,
        rows: &'a mut NorthRows,
        tracker: Option<&'a mut DiagTracker>,
    ) -> Sweep<'a, B> {
        assert_eq!(ctx.b, B as i64, "ctx geometry must match the sweep geometry");
        let dims = (reference.len() as i64, query.len() as i64);
        assert_eq!((ctx.n, ctx.m), dims, "ctx dimensions must be the sequences' lengths");
        let padded_n = ctx.ref_blocks() as usize * B;
        for row in [&mut rows.h, &mut rows.f] {
            row.clear();
            row.resize(padded_n, NEG_INF);
        }
        rows.rcodes.clear();
        rows.rcodes.resize(B - 1, 0);
        reference.extend_lane_codes(&mut rows.rcodes);
        rows.rcodes.resize(padded_n + 2 * (B - 1), i16::from(reference.pad()));
        let staging = match tier {
            FillTier::I16 => {
                assert!(
                    ctx.i16_exact,
                    "i16 sweep opened without the i16 exactness gate; \
                     use BlockCtx::fill_tier to resolve the tier"
                );
                Staging::I16(BlockCellsT::new())
            }
            // `I32` is a shell `BlockCtx::fill_tier` never produces.
            FillTier::Scalar | FillTier::I32 => Staging::Scalar(BlockCellsT::new()),
        };
        Sweep { ctx, query, rows, tracker, staging }
    }

    /// Execute query-block row `bj` as one segment — the blocks of its band
    /// range, west to east, from the table or band edge: stage the row's
    /// cells, fold them into the tracker, store its south boundary. Returns
    /// the blocks executed (none for a row the band misses).
    pub fn row(&mut self, bj: i64) -> u64 {
        let ctx = &self.ctx;
        let Some((bi_from, bi_to)) = ctx.row_block_range(bj) else { return 0 };
        let (i0, j0) = (bi_from * B as i64, bj * B as i64);
        let span = i0 as usize..(bi_to + 1) as usize * B;
        let NorthRows { h: row_h, f: row_f, rcodes } = &mut *self.rows;
        let mut qblock = [0u8; B];
        self.query.unpack_block(j0 as usize, &mut qblock);
        let (mut west_h, mut west_e) = west_init::<B>(ctx, i0, j0);
        let corner = corner_read(ctx, i0, j0, row_h);
        north_in_place(ctx, j0, span.clone(), row_h, row_f);
        // Lane codes from `B − 1` columns before the row to as many after.
        let rcodes = &rcodes[span.start..span.end + 2 * (B - 1)];
        let (north_h, north_f) = (&mut row_h[span.clone()], &mut row_f[span]);
        let tracker = self.tracker.as_deref_mut();
        match &mut self.staging {
            Staging::I16(cells) => segment_wavefront_i16(
                ctx,
                SegmentIo {
                    i0,
                    j0,
                    rcodes,
                    qcodes: &qblock,
                    corner,
                    west_h: &mut west_h,
                    west_e: &mut west_e,
                    north_h,
                    north_f,
                    cells,
                    tracker,
                },
            ),
            Staging::Scalar(cells) => {
                let cols = &rcodes[B - 1..];
                let (row, west) = ((i0, j0), (&mut west_h[..], &mut west_e[..]));
                if B <= MAX_BLOCK {
                    scalar_segment(
                        ctx, row, cols, &qblock, corner, west, north_h, north_f, cells, tracker,
                    );
                } else {
                    let cells = &mut BlockCellsT::<i32, MAX_BLOCK>::new();
                    scalar_segment(
                        ctx, row, cols, &qblock, corner, west, north_h, north_f, cells, tracker,
                    );
                }
            }
        }
        (bi_to - bi_from + 1) as u64
    }

    /// The row-major schedule: every block row, top-down, [`Sweep::advance`]
    /// after each, until the tracker decides. Returns the blocks executed.
    pub fn row_major(&mut self) -> u64 {
        let mut blocks = 0;
        for bj in 0..self.ctx.query_blocks() {
            blocks += self.row(bj);
            if self.advance().is_some() {
                break;
            }
        }
        blocks
    }

    /// [`DiagTracker::advance`] over the rows fed so far. A fill-only
    /// sweep never stops.
    pub fn advance(&mut self) -> Option<StopReason> {
        self.tracker.as_deref_mut().and_then(DiagTracker::advance)
    }
}

/// The scalar tier of one segment — `rcodes` its columns' codes, `qcodes`,
/// `west` and `corner` its rows' — in blocks of `S` query rows, each filled
/// by [`fill_scalar`] and folded on its own. A block of more than
/// [`MAX_BLOCK`] rows has more anti-diagonals than one staging buffer holds,
/// so such a segment runs as sub-rows of `S = MAX_BLOCK` rows, top-down: each
/// a segment of its own on its slice of the west column, over the north rows
/// the sub-row above left. Otherwise `S` is the segment's side and there is
/// one sub-row.
#[allow(clippy::too_many_arguments)]
fn scalar_segment<const S: usize>(
    ctx: &BlockCtx<'_>,
    (i0, j0): (i64, i64),
    rcodes: &[i16],
    qcodes: &[u8],
    mut corner: i32,
    (west_h, west_e): (&mut [i32], &mut [i32]),
    north_h: &mut [i32],
    north_f: &mut [i32],
    cells: &mut BlockCellsT<i32, S>,
    mut tracker: Option<&mut DiagTracker>,
) {
    let west = west_h.as_chunks_mut::<S>().0.iter_mut().zip(west_e.as_chunks_mut::<S>().0);
    for (q, ((wh, we), qblock)) in west.zip(qcodes.as_chunks::<S>().0).enumerate() {
        // The next sub-row's corner is this one's last west value, read
        // before the fill turns the column into its east boundary.
        let next_row = wh[S - 1];
        let blocks = north_h.as_chunks_mut::<S>().0.iter_mut().zip(north_f.as_chunks_mut::<S>().0);
        for (k, (nh, nf)) in blocks.enumerate() {
            let rblock = std::array::from_fn(|l| rcodes[k * S + l] as u8);
            let next = nh[S - 1];
            let (i, j) = (i0 + (k * S) as i64, j0 + (q * S) as i64);
            cells.set_origin(i, j);
            fill_scalar(ctx, i, j, &rblock, qblock, corner, wh, we, nh, nf, cells);
            if let Some(tracker) = tracker.as_deref_mut() {
                tracker.on_block(cells);
            }
            corner = next;
        }
        corner = next_row;
    }
}

/// [`Sweep::row_major`] on a tracker and north rows of its own. `ctx` and
/// `tier` are as for [`Sweep::new`].
pub fn grid_align<const B: usize>(
    ctx: BlockCtx<'_>,
    tier: FillTier,
    reference: &PackedSeq,
    query: &PackedSeq,
) -> GuidedResult {
    let mut tracker = DiagTracker::new(reference.len(), query.len(), ctx.scoring);
    let mut rows = NorthRows::default();
    Sweep::<B>::new(ctx, tier, reference, query, &mut rows, Some(&mut tracker)).row_major();
    tracker.result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guided::guided_align;
    use crate::profile::QueryProfile;
    use crate::scoring::{Scoring, BLOSUM62};
    use crate::simd::WavefrontBackend;
    use crate::{BLOCK, MAX_BLOCK, MAX_STRIP};

    /// Sweep the grid row-major, folded on `tracker` until it decides or —
    /// with none — filled whole. Returns the north rows left behind and the
    /// blocks executed.
    fn swept<const B: usize>(
        ctx: BlockCtx<'_>,
        tier: FillTier,
        (r, q): (&PackedSeq, &PackedSeq),
        tracker: Option<&mut DiagTracker>,
    ) -> (NorthRows, u64) {
        let mut rows = NorthRows::default();
        let blocks = Sweep::<B>::new(ctx, tier, r, q, &mut rows, tracker).row_major();
        (rows, blocks)
    }

    /// The row protocol on one task at geometry `B`, on every tier the gates
    /// admit: the row-major sweep matches the scalar guided reference and
    /// the tiers agree on the result, a fill-only sweep executes every block
    /// of the band, and folding changes nothing the fill leaves. Returns why
    /// the task stopped.
    fn check_rows<const B: usize>(ctx: BlockCtx<'_>, pair: (&PackedSeq, &PackedSeq)) -> StopReason {
        let (r, q) = pair;
        let what = format!("{}×{} B={B} w={}", r.len(), q.len(), ctx.w);
        let want = guided_align(r, q, ctx.scoring);
        let band_blocks: u64 = (0..ctx.query_blocks())
            .filter_map(|bj| ctx.row_block_range(bj))
            .map(|(lo, hi)| (hi - lo + 1) as u64)
            .sum();
        let mut scalar_tier = None;
        let tiers = [(FillTier::Scalar, true), (FillTier::I16, ctx.i16_exact)];
        for (tier, _) in tiers.into_iter().filter(|&(_, admitted)| admitted) {
            let what = format!("{what} {}", tier.name());
            let mut tracker = DiagTracker::new(r.len(), q.len(), ctx.scoring);
            let (folded, _) = swept::<B>(ctx, tier, pair, Some(&mut tracker));
            let got = tracker.result();
            assert!(got.same_alignment(&want), "{what}: {got:?} vs {want:?}");
            assert_eq!(got.cells, want.cells, "{what}");

            let (filled, blocks) = swept::<B>(ctx, tier, pair, None);
            assert_eq!(blocks, band_blocks, "{what}: a fill-only sweep runs the whole band");
            if got.stop == StopReason::Completed {
                assert_eq!(folded, filled, "{what}: north rows with and without the fold");
            }
            let first = scalar_tier.get_or_insert_with(|| got.clone());
            assert_eq!(got, *first, "{what}: result against the scalar tier");
        }
        want.stop
    }

    /// One long task on every backend that runs lanes of its own at
    /// geometry `B`: the i16 sweep's result and the north rows it leaves
    /// are the scalar tier's (whose result matches `reference`), and — when
    /// `long_rows` — the last block row alone spreads further than an i16
    /// lane reaches from one base.
    fn check_long_rows<const B: usize>(
        ctx: BlockCtx<'_>,
        (r, q): (&PackedSeq, &PackedSeq),
        reference: &GuidedResult,
        long_rows: bool,
    ) {
        let what = format!("{}×{} B={B}", r.len(), q.len());
        assert!(ctx.i16_exact, "{what}: the task runs the wavefront");
        let run = |ctx: BlockCtx<'_>, tier| {
            let mut rows = NorthRows::default();
            let mut tracker = DiagTracker::new(r.len(), q.len(), ctx.scoring);
            Sweep::<B>::new(ctx, tier, r, q, &mut rows, Some(&mut tracker)).row_major();
            (tracker.result(), rows)
        };
        let (want, scalar_rows) = run(ctx, FillTier::Scalar);
        assert!(want.same_alignment(reference), "{what}: {want:?} vs {reference:?}");
        assert_eq!(want.cells, reference.cells, "{what}");
        let real = || scalar_rows.h.iter().filter(|&&h| h > NEG_INF / 2).map(|&h| i64::from(h));
        let spread = real().max().expect("a real H") - real().min().expect("a real H");
        assert_eq!(
            spread > crate::block::I16_OFFSET_BOUND,
            long_rows,
            "{what}: the last block row spreads {spread}"
        );
        // (Past its vector width a backend runs the portable lanes, which
        // the portable backend covers.)
        let own_lanes = |b: &WavefrontBackend| match b {
            WavefrontBackend::Sse41 => B <= BLOCK,
            WavefrontBackend::Avx2 => B <= MAX_BLOCK,
            _ => true,
        };
        for backend in crate::simd::supported_backends().into_iter().filter(own_lanes) {
            let ctx = ctx.with_backend(crate::simd::BackendChoice::Fixed(backend));
            // (In debug builds the range sentinel checks every staged row
            // against its window's base on the way.)
            let (got, rows) = run(ctx, FillTier::I16);
            assert_eq!(got, want, "{what} {}: result", backend.name());
            assert!(rows == scalar_rows, "{what} {}: north rows", backend.name());
        }
    }

    #[test]
    fn a_long_row_recentres_its_base() {
        // Unbanded rows thousands of columns long: along one the scores fall
        // (or, on an identical pair, climb) further than ±2^13, so a single
        // base per segment could not hold them — the window-by-window
        // re-centring has to. A long query over a short reference moves the
        // base as far without a long row. (Steeper gaps, still inside the
        // i16 gate at 32, reach the same spread over a fraction of the cells:
        // the protein shapes' always, the DNA shapes' under Miri; a steep
        // match score takes the identical pair up as far over 224 bases.
        // Whole blocks at every side, so that the stored boundary is a row
        // of the table.)
        let (len, dna): (usize, _) =
            if cfg!(miri) { (224, (2, 4, 2, 56)) } else { (6_016, (2, 4, 4, 2)) };
        let dna = Scoring::new(dna.0, dna.1, dna.2, dna.3, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let climb = Scoring::new(56, 4, 2, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let protein_len = 11 * MAX_STRIP;
        let mut x = 0x10_46_u64;
        let mut codes = |len: usize, alphabet: u64| -> Vec<u8> {
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) % alphabet) as u8
            };
            (0..len).map(|_| next()).collect()
        };
        let (long, short) = (codes(len, 4), codes(64, 4));
        let (long, short) = (PackedSeq::from_codes(&long), PackedSeq::from_codes(&short));
        let head = long.slice(0, 224);
        let mut shapes = vec![(&long, &short, true, &dna), (&short, &long, false, &dna)];
        if !cfg!(miri) {
            // Identical sequences: `H` climbs past 12,000 down the diagonal.
            let top = guided_align(&head, &head, &climb).score;
            assert!(top > 12_000, "the identical pair climbs to {top}");
            shapes.push((&head, &head, true, &climb));
        }
        for (r, q, long_rows, scoring) in shapes {
            let ctx = |b| BlockCtx::with_block_dim(r.len(), q.len(), scoring, b);
            let want = guided_align(r, q, scoring);
            check_long_rows::<BLOCK>(ctx(BLOCK), (r, q), &want, long_rows);
            check_long_rows::<MAX_BLOCK>(ctx(MAX_BLOCK), (r, q), &want, long_rows);
            check_long_rows::<MAX_STRIP>(ctx(MAX_STRIP), (r, q), &want, long_rows);
        }

        let matrix = Scoring::with_matrix(&BLOSUM62, 8, 44, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let (long, short) = (codes(protein_len, 21), codes(64, 21));
        let long = PackedSeq::from_protein_codes(&long, &BLOSUM62);
        let short = PackedSeq::from_protein_codes(&short, &BLOSUM62);
        let mut profile = QueryProfile::new();
        for (r, q, long_rows) in [(&long, &short, true), (&short, &long, false)] {
            profile.prepare(q, &matrix);
            let want = guided_align(r, q, &matrix);
            for profile in [None, Some(&profile)] {
                let ctx = |b| {
                    BlockCtx::with_block_dim(r.len(), q.len(), &matrix, b).with_profile(profile)
                };
                check_long_rows::<BLOCK>(ctx(BLOCK), (r, q), &want, long_rows);
                check_long_rows::<MAX_BLOCK>(ctx(MAX_BLOCK), (r, q), &want, long_rows);
                check_long_rows::<MAX_STRIP>(ctx(MAX_STRIP), (r, q), &want, long_rows);
            }
        }
    }

    #[test]
    fn the_row_sweep_is_exact_on_every_tier() {
        let mut x = 0x5EE9_u64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let (cases, max_len) = if cfg!(miri) { (1, 40) } else { (8, 120) };
        let bands: &[i32] = if cfg!(miri) {
            &[1, 16, Scoring::NO_BAND]
        } else {
            &[0, 1, 15, 16, 17, Scoring::NO_BAND]
        };
        let (mut z_dropped, mut completed) = (0, 0);
        for case in 0..cases {
            // A mutated copy up to `shared`, then tails over disjoint
            // alphabets (every cell a mismatch): the alignment extends, then
            // — under a z-drop threshold — terminates mid-table. Lengths are
            // near each other on most cases so narrow bands reach the end.
            let n = 1 + (next() % max_len) as usize;
            let m = match next() % 4 {
                0 => 1 + (next() % max_len) as usize,
                _ => (n + (next() % 17) as usize).saturating_sub(8).max(1),
            };
            let shared = n.min(m) * (next() % 4) as usize / 3;
            let rcodes: Vec<u8> = (0..n).map(|_| (next() % 4) as u8).collect();
            let qcodes: Vec<u8> = (0..m)
                .map(|k| match k < shared {
                    true if next() % 9 != 0 => rcodes[k],
                    true => (next() % 4) as u8,
                    false => 2 + (next() % 2) as u8,
                })
                .collect();
            let rcodes: Vec<u8> = rcodes
                .iter()
                .enumerate()
                .map(|(k, &c)| if k < shared { c } else { c % 2 })
                .collect();
            let dna = (PackedSeq::from_codes(&rcodes), PackedSeq::from_codes(&qcodes));
            // The same streams spread over the residue alphabet.
            let spread = |codes: &[u8]| -> Vec<u8> {
                codes.iter().enumerate().map(|(k, &c)| c * 5 + (k % 5) as u8).collect()
            };
            let protein = (
                PackedSeq::from_protein_codes(&spread(&rcodes), &BLOSUM62),
                PackedSeq::from_protein_codes(&spread(&qcodes), &BLOSUM62),
            );
            let zdrop = if case % 2 == 0 { 20 } else { Scoring::NO_ZDROP };
            let mut profile = QueryProfile::new();
            for &w in bands {
                let fixed = Scoring::new(2, 4, 4, 2, zdrop, w);
                let matrix = Scoring::preset_blosum62().with_zdrop(zdrop).with_band(w);
                profile.prepare(&protein.1, &matrix);
                for (sc, (r, q), profile) in [
                    (&fixed, &dna, None),
                    (&matrix, &protein, None),
                    (&matrix, &protein, Some(&profile)),
                ] {
                    let ctx = |b| BlockCtx::with_block_dim(n, m, sc, b).with_profile(profile);
                    let stop = check_rows::<BLOCK>(ctx(BLOCK), (r, q));
                    let wide = check_rows::<MAX_BLOCK>(ctx(MAX_BLOCK), (r, q));
                    let strip = check_rows::<MAX_STRIP>(ctx(MAX_STRIP), (r, q));
                    assert_eq!((wide, strip), (stop, stop));
                    z_dropped += u32::from(stop.z_dropped());
                    completed += u32::from(stop == StopReason::Completed);
                }
            }
        }
        assert!(
            cfg!(miri) || (z_dropped > 10 && completed > 10),
            "the tasks stopped exercising termination: {z_dropped} z-drops, {completed} completions"
        );
    }
}
