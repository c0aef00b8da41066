use super::lanes::{unbase, Lanes};
use super::*;
use crate::block::{fill_scalar, BlockCells, BoundaryT};
use crate::diag::DiagTracker;
use crate::pack::PackedSeq;
use crate::{Scoring, NEG_INF, STAGE_ROWS};
#[cfg(not(target_arch = "x86_64"))]
use crate::{BLOCK, MAX_BLOCK, MAX_STRIP};

/// Deterministic xorshift-ish stream for test inputs.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
    fn code(&mut self) -> u8 {
        (self.next() % 5) as u8 // includes N
    }
    /// A real score within 1000 of `bias`.
    fn real(&mut self, bias: i32) -> i32 {
        bias + (self.next() % 2000) as i32 - 1000
    }
    /// A boundary `E`/`F` input: real, or `-∞` one time in four.
    fn val(&mut self, bias: i32) -> i32 {
        match self.next() % 4 {
            0 => NEG_INF,
            _ => self.real(bias),
        }
    }
    /// A boundary `H` input for ring cell `(i, j)`: always real where the
    /// kernel guarantees it (DP borders and in-band cells — which is what
    /// makes every valid cell's `H` real), arbitrary elsewhere.
    fn ring_h(&mut self, ctx: &BlockCtx<'_>, i: i64, j: i64, bias: i32) -> i32 {
        if i < 0 || j < 0 || ctx.valid(i, j) {
            self.real(bias)
        } else {
            self.val(bias)
        }
    }
    /// Random inputs of the block at `(i0, j0)`: the corner and the
    /// `[west_h, west_e, north_h, north_f]` carries.
    fn boundaries<const B: usize>(
        &mut self,
        ctx: &BlockCtx<'_>,
        i0: i64,
        j0: i64,
        bias: i32,
    ) -> (i32, [[i32; B]; 4]) {
        let west_h = std::array::from_fn(|k| self.ring_h(ctx, i0 - 1, j0 + k as i64, bias));
        let west_e = std::array::from_fn(|_| self.val(bias));
        let north_h = std::array::from_fn(|l| self.ring_h(ctx, i0 + l as i64, j0 - 1, bias));
        let north_f = std::array::from_fn(|_| self.val(bias));
        (self.ring_h(ctx, i0 - 1, j0 - 1, bias), [west_h, west_e, north_h, north_f])
    }
}

/// One lane impl at one feature level, or the dispatcher.
type Fill<const B: usize> = Box<dyn Fn(&BlockCtx<'_>, SegmentIo<'_, B>)>;

/// `$wrapper` entered with the token `$level` and the lanes `$lanes`, as a
/// [`Fill`] at the enclosing function's `B`.
#[cfg(target_arch = "x86_64")]
macro_rules! lane_fill {
    ($wrapper:ident, $level:expr, $lanes:expr) => {{
        let (level, lanes) = ($level, $lanes);
        Box::new(move |ctx: &BlockCtx<'_>, io: SegmentIo<'_, B>| {
            // SAFETY: `level` came from `detect()` and proves the wrapper's level.
            unsafe { $wrapper(level, lanes, ctx, io.at_geometry()) }
        })
    }};
}

/// Every lane impl × feature level the host supports at geometry `B`,
/// portable first.
fn i16_lanes<const B: usize>() -> Vec<(&'static str, Fill<B>)> {
    #[allow(unused_mut)]
    let mut fills: Vec<(&'static str, Fill<B>)> =
        vec![("portable", Box::new(|ctx, io| fill_segment(Portable, ctx, io)))];
    #[cfg(target_arch = "x86_64")]
    {
        if let (BLOCK, Some(t)) = (B, x86::Sse41::detect()) {
            fills.push(("sse41", lane_fill!(segment_sse41, t, Sse41I16(t))));
        }
        if let (BLOCK, Some(t)) = (B, x86::Avx2::detect()) {
            fills.push(("sse41@avx2", lane_fill!(segment_avx2, t, Sse41I16(t.lower()))));
        }
        if let (MAX_BLOCK, Some(t)) = (B, x86::Avx2::detect()) {
            fills.push(("avx2", lane_fill!(segment_avx2, t, Avx2I16(t))));
        }
        if let (MAX_STRIP, Some(t)) = (B, x86::Avx512::detect()) {
            fills.push(("avx512x32", lane_fill!(segment_avx512, t, Avx512I16x32(t))));
        }
    }
    fills
}

/// The lane codes of a single block's columns, as
/// [`crate::block::compute_block_i16`] lays them out for its one-block segment.
fn lane_codes<const B: usize>(rcodes: &[u8; B]) -> Vec<i16> {
    let mut codes = vec![0i16; 3 * B - 2];
    for (slot, &c) in codes[B - 1..].iter_mut().zip(rcodes) {
        *slot = i16::from(c);
    }
    codes
}

/// Run one block through the scalar fill and through every lane impl the
/// host supports (plus the dispatcher) and assert identical masks, valid-lane
/// `H` and boundary outputs. Real values must match the scalar reference bit
/// for bit; `-∞`-class values (boundary `E`/`F` of cells whose neighbour is
/// masked, and everything of masked cells) differ in encoding — the rebased
/// lanes write exactly `NEG_INF` — but must be `-∞`-class on both sides. The
/// impls must also agree with each other on whole staging rows, masked lanes
/// included.
#[allow(clippy::too_many_arguments)]
fn check_block<const B: usize>(
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
    corner: i32,
    west_h: BoundaryT<B>,
    west_e: BoundaryT<B>,
    north_h: BoundaryT<B>,
    north_f: BoundaryT<B>,
) {
    assert!(ctx.i16_exact, "the lanes are only ever driven inside the gate");
    let mut cells_s = BlockCellsT::<i32, B>::new();
    let (mut wh_s, mut we_s, mut nh_s, mut nf_s) = (west_h, west_e, north_h, north_f);
    fill_scalar(
        ctx,
        i0,
        j0,
        rcodes,
        qcodes,
        corner,
        &mut wh_s,
        &mut we_s,
        &mut nh_s,
        &mut nf_s,
        &mut cells_s,
    );

    let same = |got: i32, want32: i32, what: &str| {
        if i64::from(want32) > -crate::block::I32_REACH_BOUND {
            assert_eq!(got, want32, "i16: {what} at ({i0},{j0})");
        } else {
            assert_eq!(got, NEG_INF, "i16: {what} class at ({i0},{j0})");
        }
    };
    let mut runs = Vec::new();
    let dispatch: Fill<B> = Box::new(segment_wavefront_i16::<B>);
    for (name, fill) in i16_lanes::<B>().into_iter().chain([("dispatch", dispatch)]) {
        let mut cells_n = BlockCellsT::<i16, B>::new();
        cells_n.set_origin(i0, j0);
        let (mut wh_n, mut we_n, mut nh_n, mut nf_n) = (west_h, west_e, north_h, north_f);
        let io = SegmentIo {
            i0,
            j0,
            rcodes: &lane_codes(rcodes),
            qcodes,
            corner,
            west_h: &mut wh_n,
            west_e: &mut we_n,
            north_h: &mut nh_n,
            north_f: &mut nf_n,
            cells: &mut cells_n,
            tracker: None,
        };
        fill(ctx, io);
        assert_eq!(cells_n.mask, cells_s.mask, "{name}: masks at ({i0},{j0})");
        for d in 0..2 * B - 1 {
            for l in 0..B {
                if cells_s.mask[d] & (1 << l) != 0 {
                    same(unbase(cells_n.h[d][l], cells_n.base), cells_s.h[d][l], "H");
                }
            }
        }
        for k in 0..B {
            same(wh_n[k], wh_s[k], "west H");
            same(we_n[k], we_s[k], "west E");
            same(nh_n[k], nh_s[k], "north H");
            same(nf_n[k], nf_s[k], "north F");
        }
        runs.push((name, (cells_n.h, cells_n.base, wh_n, we_n, nh_n, nf_n)));
    }
    // Every impl must agree with the portable lanes exactly, sentinel
    // encodings included (they are the vector impls' reference).
    for (name, run) in &runs[1..] {
        assert_eq!(run, &runs[0].1, "{name} vs portable at ({i0},{j0})");
    }
}

/// Sweep every block of each scoring (over a shape of its own, never a
/// block multiple, so the last row and column of blocks are table-edge
/// partials) at geometry `B`, feeding random codes and boundaries around
/// `bias` (the score level the rebased tier has to offset away).
fn fixed_blocks_sweep<const B: usize>(seed: u64, scorings: &[Scoring], bias: i32) {
    let mut rng = Rng(seed);
    for (si, sc) in scorings.iter().enumerate() {
        let (n, m) = (40 + si % 4 * 7, 33 + si % 4 * 5);
        let ctx = BlockCtx::with_block_dim(n, m, sc, B);
        for bi in 0..ctx.ref_blocks() {
            for bj in 0..ctx.query_blocks() {
                let (i0, j0) = (bi * B as i64, bj * B as i64);
                let rcodes = [0u8; B].map(|_| rng.code());
                let qcodes = [0u8; B].map(|_| rng.code());
                let (corner, [wh, we, nh, nf]) = rng.boundaries::<B>(&ctx, i0, j0, bias);
                check_block(&ctx, i0, j0, &rcodes, &qcodes, corner, wh, we, nh, nf);
            }
        }
    }
}

/// The historical four scorings: unbanded, narrow bands, z-drop.
fn random_blocks_sweep<const B: usize>(seed: u64, bias: i32) {
    fixed_blocks_sweep::<B>(
        seed,
        &[
            Scoring::figure1(),
            Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 3),
            Scoring::new(1, 9, 0, 1, 40, 11),
            Scoring::new(5, 1, 7, 3, Scoring::NO_ZDROP, Scoring::NO_BAND),
        ],
        bias,
    );
}

#[test]
fn wavefront_matches_scalar_on_random_blocks() {
    random_blocks_sweep::<BLOCK>(0x5EED, 0);
}

#[test]
fn wavefront_matches_scalar_on_random_blocks_wide() {
    random_blocks_sweep::<MAX_BLOCK>(0x51DE, 0);
}

/// Sweep every block of a substitution-matrix scoring at geometry `B`:
/// every lane impl against the scalar fill, with the matrix path exercised
/// both through direct lookups and through a prepared query profile
/// (the two must be bit-identical by construction).
fn matrix_blocks_sweep<const B: usize>(seed: u64, sc: &Scoring, bias: i32) {
    use crate::profile::QueryProfile;
    use crate::scoring::BLOSUM62;

    let mut rng = Rng(seed);
    let (n, m) = (53usize, 47usize);
    // A real packed query, so the profile rows and the unpacked block
    // codes describe the same residues.
    let qfull: Vec<u8> = (0..m).map(|_| (rng.next() % 21) as u8).collect();
    let q = PackedSeq::from_protein_codes(&qfull, &BLOSUM62);
    let mut prof = QueryProfile::new();
    prof.prepare(&q, sc);
    for use_profile in [false, true] {
        let ctx = BlockCtx::with_block_dim(n, m, sc, B).with_profile(use_profile.then_some(&prof));
        assert!(ctx.i16_exact, "blosum62 at {n}×{m} fits the gate");
        for bi in 0..ctx.ref_blocks() {
            for bj in 0..ctx.query_blocks() {
                let (i0, j0) = (bi * B as i64, bj * B as i64);
                let rcodes = [0u8; B].map(|_| (rng.next() % 21) as u8);
                let mut qb = [0u8; B];
                q.unpack_block(j0 as usize, &mut qb);
                let (corner, [wh, we, nh, nf]) = rng.boundaries::<B>(&ctx, i0, j0, bias);
                check_block(&ctx, i0, j0, &rcodes, &qb, corner, wh, we, nh, nf);
            }
        }
    }
}

#[test]
fn matrix_model_matches_scalar_on_random_blocks() {
    matrix_blocks_sweep::<BLOCK>(0xB105, &Scoring::preset_blosum62(), 0);
}

#[test]
fn matrix_model_matches_scalar_on_random_blocks_wide() {
    matrix_blocks_sweep::<MAX_BLOCK>(0xB162, &Scoring::preset_blosum62(), 0);
}

/// The whole block grid through the shared sweep ([`crate::sweep::grid_align`])
/// on the scalar reference fill.
fn grid_run_scalar<const B: usize>(
    r: &PackedSeq,
    q: &PackedSeq,
    sc: &Scoring,
) -> crate::result::GuidedResult {
    let ctx = BlockCtx::with_block_dim(r.len(), q.len(), sc, B);
    crate::sweep::grid_align::<B>(ctx, crate::block::FillTier::Scalar, r, q)
}

/// [`grid_run_scalar`] on the i16 wavefront, detected backend.
fn grid_run_i16<const B: usize>(
    r: &PackedSeq,
    q: &PackedSeq,
    sc: &Scoring,
) -> crate::result::GuidedResult {
    grid_run_i16_on::<B>(detected_backend(), r, q, sc)
}

/// [`grid_run_i16`] dispatching as `backend`.
fn grid_run_i16_on<const B: usize>(
    backend: WavefrontBackend,
    r: &PackedSeq,
    q: &PackedSeq,
    sc: &Scoring,
) -> crate::result::GuidedResult {
    let ctx = BlockCtx::with_block_dim(r.len(), q.len(), sc, B)
        .with_backend(BackendChoice::Fixed(backend));
    assert!(ctx.i16_exact, "grid_run_i16 callers must pick gate-admitted tasks");
    crate::sweep::grid_align::<B>(ctx, crate::block::FillTier::I16, r, q)
}

#[test]
fn wavefront_matches_scalar_via_block_grid() {
    // End-to-end: run the block grid (the shared sweep) on each fill tier
    // at each geometry and compare complete guided results.
    use crate::guided::guided_align;

    let mut rng = Rng(0xA11E);
    for case in 0..if cfg!(miri) { 3 } else { 12 } {
        let len_r = 16 + (rng.next() % 120) as usize;
        let len_q = 16 + (rng.next() % 120) as usize;
        let rcodes: Vec<u8> = (0..len_r).map(|_| rng.code()).collect();
        let qcodes: Vec<u8> = (0..len_q).map(|_| rng.code()).collect();
        let (rp, qp) = (PackedSeq::from_codes(&rcodes), PackedSeq::from_codes(&qcodes));
        let sc = match case % 4 {
            0 => Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND),
            1 => Scoring::new(2, 4, 4, 2, 20, 9),
            2 => Scoring::new(1, 6, 2, 1, Scoring::NO_ZDROP, 5),
            _ => Scoring::new(3, 2, 5, 2, 15, Scoring::NO_BAND),
        };
        let want = guided_align(&rp, &qp, &sc);
        let scalar = grid_run_scalar::<BLOCK>(&rp, &qp, &sc);
        let narrow = grid_run_i16::<BLOCK>(&rp, &qp, &sc);
        assert_eq!(scalar, narrow, "case {case}: scalar vs i16 fill");
        // The wide geometry tiles the same table differently but must
        // produce the identical guided result on both tiers.
        let wide = grid_run_scalar::<MAX_BLOCK>(&rp, &qp, &sc);
        let wide16 = grid_run_i16::<MAX_BLOCK>(&rp, &qp, &sc);
        assert_eq!(scalar, wide, "case {case}: scalar vs wide scalar fill");
        assert_eq!(scalar, wide16, "case {case}: scalar vs wide i16 fill");
        assert!(scalar.same_alignment(&want), "case {case}: {scalar:?} vs {want:?}");
        assert_eq!(scalar.cells, want.cells, "case {case}");
    }
}

#[test]
fn matrix_model_matches_scalar_via_block_grid() {
    // End-to-end under BLOSUM62: every fill tier at both geometries
    // must reproduce the scalar guided result on protein tasks.
    use crate::guided::guided_align;
    use crate::scoring::BLOSUM62;

    let mut rng = Rng(0xB10C);
    for case in 0..if cfg!(miri) { 2 } else { 6 } {
        let len_r = 16 + (rng.next() % 100) as usize;
        let len_q = 16 + (rng.next() % 100) as usize;
        let rcodes: Vec<u8> = (0..len_r).map(|_| (rng.next() % 21) as u8).collect();
        let qcodes: Vec<u8> = (0..len_q).map(|_| (rng.next() % 21) as u8).collect();
        let rp = PackedSeq::from_protein_codes(&rcodes, &BLOSUM62);
        let qp = PackedSeq::from_protein_codes(&qcodes, &BLOSUM62);
        let sc = if case % 2 == 0 {
            Scoring::preset_blosum62()
        } else {
            Scoring::preset_blosum62().with_zdrop(Scoring::NO_ZDROP).with_band(Scoring::NO_BAND)
        };
        let want = guided_align(&rp, &qp, &sc);
        let scalar = grid_run_scalar::<BLOCK>(&rp, &qp, &sc);
        let narrow = grid_run_i16::<BLOCK>(&rp, &qp, &sc);
        let wide = grid_run_scalar::<MAX_BLOCK>(&rp, &qp, &sc);
        let wide16 = grid_run_i16::<MAX_BLOCK>(&rp, &qp, &sc);
        assert_eq!(scalar, narrow, "case {case}: scalar vs i16 fill");
        assert_eq!(scalar, wide, "case {case}: scalar vs wide scalar fill");
        assert_eq!(scalar, wide16, "case {case}: scalar vs wide i16 fill");
        assert!(scalar.same_alignment(&want), "case {case}: {scalar:?} vs {want:?}");
        assert_eq!(scalar.cells, want.cells, "case {case}");
    }
}

#[test]
fn oversized_scoring_falls_back_to_scalar() {
    // A scoring whose per-step increment is too large for the wavefront
    // exactness proof (even the i32 carries' reach fails) resolves to the
    // scalar tier, and `compute_block_mode` fills scalar whatever mode it is
    // handed.
    use crate::block::{compute_block_mode, FillMode, FillPrecision, FillTier};

    let sc = Scoring::new(1 << 28, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
    let ctx = BlockCtx::new(64, 64, &sc);
    assert!(!ctx.i16_exact);
    assert_eq!(ctx.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::Scalar);
    let small = Scoring::figure1();
    assert!(BlockCtx::new(64, 64, &small).i16_exact);

    // Craft a block whose DP actually saturates: all-match codes add
    // 2^28 per diagonal step starting from a corner near i32::MAX, so
    // the scalar fill's saturating_add pins at i32::MAX where wrapping
    // lanes would come back as plausible scores.
    let rcodes = [0u8; BLOCK];
    let qcodes = [0u8; BLOCK];
    let corner = i32::MAX - 100;
    let west_h = [i32::MAX - 200; BLOCK];
    let west_e = [NEG_INF; BLOCK];
    let north_h = [i32::MAX - 200; BLOCK];
    let north_f = [NEG_INF; BLOCK];

    let run = |mode: FillMode| {
        let mut cells = BlockCells::new();
        let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
        compute_block_mode(
            mode, &ctx, 8, 8, &rcodes, &qcodes, corner, &mut wh, &mut we, &mut nh, &mut nf,
            &mut cells,
        );
        (cells.h, cells.mask, wh, we, nh, nf)
    };
    let scalar = run(FillMode::Scalar);
    let simd = run(FillMode::Simd);
    assert_eq!(scalar, simd, "the mode argument is inert: every mode fills scalar");
    // The crafted inputs really do reach saturation (the discriminating
    // regime for the two add semantics).
    assert!(scalar.0.iter().any(|row| row.contains(&i32::MAX)), "expected saturated cells");
}

/// `span + drift` of the i16 gate for the fixed model `(a, b, o, e)` at
/// block side `bdim`, spelled out from the derivation on
/// [`BlockCtx::with_block_dim`].
fn gate_sum(a: i64, b: i64, o: i64, e: i64, bdim: i64) -> i64 {
    let rows = STAGE_ROWS as i64;
    (rows + 2 * bdim + 1) * (a + o + e + b) + a.max(b).max(o + e) * rows
}

/// A match score, a mismatch and a gap open (`gap_extend` 1).
type GateCase = (i32, i32, i32);

/// The i16 gate battery at geometry `B`: `inside`/`at`/`past` are scorings
/// whose `span + drift` lands on `inside_sum` (the largest sum below `2^13`
/// the geometry reaches), `2^13` and `2^13 + 1`.
fn gate_boundary_battery<const B: usize>(
    inside_sum: i64,
    inside: GateCase,
    at: GateCase,
    past: GateCase,
) {
    use crate::block::{FillMode, FillPrecision, FillTier};
    use crate::guided::guided_align;

    let scoring = |(a, b, o): GateCase| Scoring::new(a, b, o, 1, Scoring::NO_ZDROP, 24);
    let sum = |(a, b, o): GateCase| gate_sum(a.into(), b.into(), o.into(), 1, B as i64);
    assert_eq!((sum(inside), sum(at), sum(past)), (inside_sum, 8192, 8193));

    // The gate no longer looks at the task: a 40 bp and a 40 kb pair resolve
    // alike on either side of it.
    for (n, m) in [(40, 33), (40_000, 38_000)] {
        let sc = scoring(inside);
        let ctx = BlockCtx::with_block_dim(n, m, &sc, B);
        assert!(ctx.i16_exact, "{n}×{m}: one inside the i16 gate");
        assert_eq!(ctx.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I16);
        assert_eq!(ctx.fill_tier(FillMode::Scalar, FillPrecision::Auto), FillTier::Scalar);
        for outside in [at, past] {
            let sc = scoring(outside);
            let ctx = BlockCtx::with_block_dim(n, m, &sc, B);
            assert!(!ctx.i16_exact, "{n}×{m}: must demote to the scalar fill");
            assert_eq!(ctx.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::Scalar);
        }
    }

    // Inside the gate the i16 tier must equal the scalar fill on the two
    // extremes the span bounds: an all-match run (every diagonal step climbs
    // by the full match score, to far beyond i16) and a run into junk (every
    // step falls by the mismatch, or rides a gap).
    let mut rng = Rng(0x6A7E + B as u64);
    // Long enough for the all-match score to leave i16 — `(len − 10)·a >
    // i16::MAX` — at the case's match score `a`.
    let climb = i16::MAX as usize / inside.0 as usize + 12;
    let len = if cfg!(miri) { climb } else { climb.max(700) };
    let all_match = vec![0u8; len];
    let mut junk_r = vec![0u8; len / 6];
    let mut junk_q = junk_r.clone();
    junk_r.extend((0..len * 5 / 7).map(|_| rng.code() % 2));
    junk_q.extend((0..len * 5 / 7 - 20).map(|_| 2 + rng.code() % 2));
    let sc = scoring(inside);
    for (rc, qc) in [(&all_match, &all_match[..len - 10]), (&junk_r, &junk_q[..])] {
        let (r, q) = (PackedSeq::from_codes(rc), PackedSeq::from_codes(qc));
        let want = guided_align(&r, &q, &sc);
        let scalar = grid_run_scalar::<B>(&r, &q, &sc);
        assert!(scalar.same_alignment(&want), "{scalar:?} vs {want:?}");
        for b in supported_backends() {
            let narrow = grid_run_i16_on::<B>(b, &r, &q, &sc);
            assert_eq!(scalar, narrow, "{}: i16 tier one inside the gate", b.name());
        }
    }
    let (r, q) = (PackedSeq::from_codes(&all_match), PackedSeq::from_codes(&all_match[..len - 10]));
    let top = guided_align(&r, &q, &sc);
    assert_eq!(top.score, (len as i32 - 10) * inside.0);
    assert!(top.score > i32::from(i16::MAX), "all-match task must leave the i16 range");

    // At the gate, the tier the default fill resolves (scalar) scores the
    // task exactly.
    let sc = scoring(at);
    let ctx = BlockCtx::with_block_dim(r.len(), q.len(), &sc, B);
    let tier = ctx.fill_tier(FillMode::Simd, FillPrecision::Auto);
    let demoted = crate::sweep::grid_align::<B>(ctx, tier, &r, &q);
    assert!(demoted.same_alignment(&guided_align(&r, &q, &sc)), "demoted task must stay exact");
    assert_eq!(demoted.score, (len as i32 - 10) * at.0);
}

#[test]
fn i16_gate_boundary_is_exact() {
    // B = 8: span + drift = 49(a + b + o + 1) + 32·max(a, b).
    gate_boundary_battery::<BLOCK>(8191, (86, 24, 0), (60, 60, 7), (83, 29, 0));
}

#[test]
fn rebased_i16_scores_far_from_zero_exactly() {
    // A 9 kb identical pair climbs to 18,000 — more than twice the old
    // gate's reach and past `i16::MAX / 2` — yet no block's values spread
    // more than a few dozen around its base.
    use crate::block::{FillMode, FillPrecision, FillTier};
    // (Under Miri a 360 bp pair at 50 per match — inside the gate at 32 —
    // reaches the same score on a twenty-fifth of the cells.)
    let (len, a) = if cfg!(miri) { (360, 50) } else { (9_000, 2) };
    let sc = Scoring::new(a, 4, 4, 2, 400, if cfg!(miri) { 20 } else { 100 });
    let codes: Vec<u8> =
        (0..len as u32).map(|k| (k.wrapping_mul(2_654_435_761) >> 13) as u8 % 4).collect();
    let seq = PackedSeq::from_codes(&codes);
    for bdim in [BLOCK, MAX_BLOCK, MAX_STRIP] {
        let ctx = BlockCtx::with_block_dim(len, len, &sc, bdim);
        assert_eq!(ctx.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I16, "b={bdim}");
    }
    for b in supported_backends() {
        let narrow = grid_run_i16_on::<BLOCK>(b, &seq, &seq, &sc);
        let wide = grid_run_i16_on::<MAX_BLOCK>(b, &seq, &seq, &sc);
        let strip = grid_run_i16_on::<MAX_STRIP>(b, &seq, &seq, &sc);
        assert_eq!(narrow.score, 18_000, "{}", b.name());
        assert_eq!(narrow, wide, "{}", b.name());
        assert_eq!(narrow, strip, "{}: at 32", b.name());
        assert_eq!(narrow.qend_score, Some(18_000), "{}: qend carries the base too", b.name());
    }
}

/// Bypass the tier gate and drive every raw i16 lane impl on a block whose
/// DP genuinely leaves the i16 range *around its base*: the saturating
/// arithmetic must pin at the rails (never wrap into plausible scores), all
/// impls must agree, and the scalar fill keeps the exact values — which is
/// precisely why `fill_tier` demotes such tasks.
fn saturation_probe<const B: usize>() {
    let sc = Scoring::new(4800, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
    let ctx = BlockCtx::with_block_dim(64, 64, &sc, B);
    assert!(!ctx.i16_exact, "step 4800 must fail the i16 gate");

    // All-match codes climb 4800 per diagonal step from a ring at ≈ 1.2 M:
    // the far corner sits B × 4800 ≥ 38,400 above the base.
    let origin = B as i64;
    let rcodes = [0u8; B];
    let qcodes = [0u8; B];
    let corner = 1_200_000;
    let west_h = [1_199_000; B];
    let west_e = [NEG_INF; B];
    let north_h = [1_199_000; B];
    let north_f = [NEG_INF; B];

    let mut cells_s = BlockCellsT::<i32, B>::new();
    let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
    fill_scalar(
        &ctx,
        origin,
        origin,
        &rcodes,
        &qcodes,
        corner,
        &mut wh,
        &mut we,
        &mut nh,
        &mut nf,
        &mut cells_s,
    );
    assert!(
        cells_s.h.iter().any(|row| row.iter().any(|&h| h - corner > i32::from(i16::MAX))),
        "crafted block must exceed i16 range around its base in the exact fill"
    );

    let mut runs = Vec::new();
    for (name, fill) in i16_lanes::<B>() {
        let mut cells_n = BlockCellsT::<i16, B>::new();
        let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
        let io = SegmentIo {
            i0: origin,
            j0: origin,
            rcodes: &lane_codes(&rcodes),
            qcodes: &qcodes,
            corner,
            west_h: &mut wh,
            west_e: &mut we,
            north_h: &mut nh,
            north_f: &mut nf,
            cells: &mut cells_n,
            tracker: None,
        };
        fill(&ctx, io);
        assert_eq!(cells_n.base, corner, "{name}: the base is the largest boundary H");
        let mut saw_rail = false;
        for d in 0..2 * B - 1 {
            for l in 0..B {
                if cells_n.mask[d] & (1 << l) != 0 {
                    let h = cells_n.h[d][l];
                    let exact = cells_s.h[d][l];
                    if i32::from(h) + cells_n.base != exact {
                        // Divergence is only ever rail-pinning, never wrap.
                        assert_eq!(h, i16::MAX, "{name}: saturation must pin, not wrap");
                        saw_rail = true;
                    }
                }
            }
        }
        assert!(saw_rail, "{name}: crafted block must actually hit the i16 rail");
        runs.push((name, (cells_n.h, wh, we, nh, nf)));
    }
    for (name, run) in &runs[1..] {
        assert_eq!(run, &runs[0].1, "{name} vs portable past the gate");
    }

    // The per-block range sentinel catches exactly this regime in debug
    // builds when the dispatch is (wrongly) driven past the gate.
    #[cfg(debug_assertions)]
    {
        let result = std::panic::catch_unwind(|| {
            let mut cells = BlockCellsT::<i16, B>::new();
            let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
            let io = SegmentIo {
                i0: origin,
                j0: origin,
                rcodes: &lane_codes(&rcodes),
                qcodes: &qcodes,
                corner,
                west_h: &mut wh,
                west_e: &mut we,
                north_h: &mut nh,
                north_f: &mut nf,
                cells: &mut cells,
                tracker: None,
            };
            segment_wavefront_i16(&ctx, io);
        });
        assert!(result.is_err(), "range sentinel must trip on a saturated block");
    }
}

#[test]
fn i16_saturates_rather_than_wraps_beyond_the_gate() {
    saturation_probe::<BLOCK>();
}

#[test]
fn wide_i16_saturates_rather_than_wraps_beyond_the_gate() {
    saturation_probe::<MAX_BLOCK>();
}

#[test]
fn lane_impl_sweep_matches_scalar() {
    // Every lane impl this host supports (`check_block` instantiates the one
    // generic fill for each of them, at every feature level it is compiled
    // at) × both geometries × {fixed model, BLOSUM62 with and without a
    // query profile}, over interior, band-clipped and table-edge partial
    // blocks — so each impl is held to the scalar reference, and to its
    // same-width siblings on whole staging rows, regardless of what the
    // dispatcher would have picked on this host. Each sweep runs at score
    // levels on both sides of zero and far outside the i16 range, so every
    // impl's rebasing (boundary subtract, staged base, exit add) is driven
    // with bases it cannot get away with ignoring.
    let biases: &[i32] = if cfg!(miri) { &[-70_000] } else { &[0, 50_000, -70_000, 3_000_000] };
    // Band half-widths around the lane counts (a diagonal of the band edge
    // crosses every lane position) down to the degenerate main diagonal.
    let widths: &[i32] = if cfg!(miri) { &[0, 3, 17] } else { &[0, 1, 3, 15, 16, 17] };
    let banded: Vec<Scoring> =
        widths.iter().map(|&w| Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, w)).collect();
    for (k, &bias) in biases.iter().enumerate() {
        let k = k as u64 * 0x1_0000;
        random_blocks_sweep::<BLOCK>(0xF0CE + k, bias);
        random_blocks_sweep::<MAX_BLOCK>(0xF1DE + k, bias);
        matrix_blocks_sweep::<MAX_BLOCK>(0xFACE + k, &Scoring::preset_blosum62(), bias);
        fixed_blocks_sweep::<BLOCK>(0xBA2D + k, &banded, bias);
        fixed_blocks_sweep::<MAX_BLOCK>(0xBA3D + k, &banded, bias);
        for &w in widths {
            let sc = Scoring::preset_blosum62().with_band(w);
            matrix_blocks_sweep::<BLOCK>(0xB1A5 + k + w as u64, &sc, bias);
            matrix_blocks_sweep::<MAX_BLOCK>(0xB1B5 + k + w as u64, &sc, bias);
        }
    }
}

/// One fold instantiation (or the dispatcher on one stamped backend).
type Fold<const B: usize> = Box<dyn Fn(&mut DiagTracker, &BlockCellsT<i16, B>)>;

/// `$wrapper` entered with the token `$level` and the lanes `$lanes`, as a
/// [`Fold`] at the enclosing function's `B`.
#[cfg(target_arch = "x86_64")]
macro_rules! lane_fold {
    ($wrapper:ident, $level:expr, $lanes:expr) => {{
        let (level, lanes) = ($level, $lanes);
        Box::new(move |tracker: &mut DiagTracker, cells: &BlockCellsT<i16, B>| {
            // SAFETY: `level` came from `detect()` and proves the wrapper's level.
            unsafe { $wrapper(level, lanes, tracker, cells.at_geometry()) }
        })
    }};
}

/// Every instantiation of the one fold the host supports at geometry `B` —
/// the wrapper × lane impl pairs of [`i16_lanes`] — plus the dispatcher on
/// staging stamped by each supported backend.
fn i16_folds<const B: usize>() -> Vec<(String, Fold<B>)> {
    let mut folds: Vec<(String, Fold<B>)> = vec![(
        "portable".into(),
        Box::new(|tracker, cells| tracker.fold_block(Portable, cells, &mut true)),
    )];
    #[cfg(target_arch = "x86_64")]
    {
        if let (BLOCK, Some(t)) = (B, x86::Sse41::detect()) {
            folds.push(("sse41".into(), lane_fold!(fold_sse41, t, Sse41I16(t))));
        }
        if let (BLOCK, Some(t)) = (B, x86::Avx2::detect()) {
            folds.push(("sse41@avx2".into(), lane_fold!(fold_avx2, t, Sse41I16(t.lower()))));
        }
        if let (MAX_BLOCK, Some(t)) = (B, x86::Avx2::detect()) {
            folds.push(("avx2".into(), lane_fold!(fold_avx2, t, Avx2I16(t))));
        }
    }
    for backend in supported_backends() {
        folds.push((
            format!("dispatch as {}", backend.name()),
            Box::new(move |tracker: &mut DiagTracker, cells: &BlockCellsT<i16, B>| {
                let mut stamped = cells.clone();
                stamped.backend = ProvenBackend::detect().capped(BackendChoice::Fixed(backend));
                tracker.on_block_i16(&stamped);
            }),
        ));
    }
    folds
}

/// Stage every block of the `r × q` grid and fold each through every fold
/// the host supports, through the scalar reference fold
/// ([`DiagTracker::on_block`], on the scalar fill's i32 staging of the same
/// block) and — the reference for all of them — cell by cell through
/// [`DiagTracker::on_cell`], comparing the *whole tracker* after every
/// block. Every `advance_every` blocks all trackers advance, mid-row. The
/// grid is fed to the end whatever the trackers decide, and then once more:
/// a diagonal is only ever finalized with all its cells seen, so a row on a
/// finalized diagonal (`c < next`, to be skipped) can only be a revisit.
/// `bias` shifts every staged score, so the fold sees bases far from the
/// lanes' own range.
fn fold_sweep_case<const B: usize>(
    r: &[u8],
    q: &[u8],
    sc: &Scoring,
    bias: i32,
    advance_every: u64,
) {
    use crate::block::{compute_block_i16, compute_block_mode, FillMode};
    let what = format!("{}×{} B={B} w={} bias={bias}", r.len(), q.len(), sc.band_width);
    let (rp, qp) = (PackedSeq::from_codes(r), PackedSeq::from_codes(q));
    let ctx = BlockCtx::with_block_dim(r.len(), q.len(), sc, B);
    assert!(ctx.i16_exact, "{what}: the sweep stages on the i16 tier");
    let b = B as i64;
    let padded_n = (ctx.ref_blocks() * b) as usize;
    let (mut row_h, mut row_f) = (vec![NEG_INF; padded_n], vec![NEG_INF; padded_n]);
    let (mut rb, mut qb) = ([0u8; B], [0u8; B]);
    let mut cells16 = BlockCellsT::<i16, B>::new();
    let mut cells32 = BlockCellsT::<i32, B>::new();

    let mut staged = Vec::new();
    for bj in 0..ctx.query_blocks() {
        let j0 = bj * b;
        let Some((lo, hi)) = ctx.row_block_range(bj) else { continue };
        qp.unpack_block(j0 as usize, &mut qb);
        let (mut wh, mut we) = crate::block::west_init::<B>(&ctx, lo * b, j0);
        let mut corner = crate::block::corner_read(&ctx, lo * b, j0, &row_h);
        for bi in lo..=hi {
            let i0 = bi * b;
            rp.unpack_block(i0 as usize, &mut rb);
            let (mut nh, mut nf) = crate::block::north_read::<B>(&ctx, i0, j0, &row_h, &row_f);
            let next_corner = nh[B - 1];
            let (mut wh32, mut we32, mut nh32, mut nf32) = (wh, we, nh, nf);
            compute_block_mode(
                FillMode::Scalar,
                &ctx,
                i0,
                j0,
                &rb,
                &qb,
                corner,
                &mut wh32,
                &mut we32,
                &mut nh32,
                &mut nf32,
                &mut cells32,
            );
            compute_block_i16(
                &ctx,
                i0,
                j0,
                &rb,
                &qb,
                corner,
                &mut wh,
                &mut we,
                &mut nh,
                &mut nf,
                &mut cells16,
            );
            cells16.base += bias;
            cells32.h.iter_mut().flatten().for_each(|h| *h = h.wrapping_add(bias));
            staged.push((cells16.clone(), cells32.clone()));
            row_h[i0 as usize..i0 as usize + B].copy_from_slice(&nh);
            row_f[i0 as usize..i0 as usize + B].copy_from_slice(&nf);
            corner = next_corner;
        }
    }

    let folds = i16_folds::<B>();
    let mut per_cell = DiagTracker::new(r.len(), q.len(), sc);
    let mut per_block = per_cell.clone();
    let mut folded = vec![per_cell.clone(); folds.len()];
    let mut blocks = 0u64;
    // Feeds one block to every tracker; returns how many of its live rows
    // were run-ahead (to be skipped) and how many were not.
    let mut feed = |cells16: &BlockCellsT<i16, B>, cells32: &BlockCellsT<i32, B>, last: bool| {
        let (i0, j0) = (cells16.i0(), cells16.j0());
        let c0 = i0 as usize + j0 as usize;
        let live = (0..STAGE_ROWS).filter(|&d| cells16.mask[d] != 0);
        let skipped = live.clone().filter(|d| c0 + d < per_cell.frontier()).count();
        let merged = live.count() - skipped;
        for d in 0..STAGE_ROWS {
            assert_eq!(cells16.mask[d], cells32.mask[d], "{what}: staged masks");
            for l in (0..B).filter(|l| cells16.mask[d] & (1 << l) != 0) {
                let h = i32::from(cells16.h[d][l]) + cells16.base;
                assert_eq!(h, cells32.h[d][l], "{what}: the tiers stage one score");
                let i = cells16.lane0() + (d + l) as i32;
                per_cell.on_cell(i, j0 + (B - 1 - l) as i32, h);
            }
        }
        per_block.on_block(cells32);
        assert_eq!(per_block, per_cell, "{what}: on_block after block ({i0},{j0})");
        for ((name, fold), tracker) in folds.iter().zip(&mut folded) {
            fold(tracker, cells16);
            assert_eq!(*tracker, per_cell, "{what}: {name} fold after block ({i0},{j0})");
        }
        blocks += 1;
        if last || blocks.is_multiple_of(advance_every) {
            let stop = per_cell.advance();
            assert_eq!(per_block.advance(), stop, "{what}: on_block stop reason");
            assert_eq!(per_block, per_cell, "{what}: on_block after advance");
            for ((name, _), tracker) in folds.iter().zip(&mut folded) {
                assert_eq!(tracker.advance(), stop, "{what}: {name} stop reason");
                assert_eq!(*tracker, per_cell, "{what}: {name} fold after advance");
            }
        }
        (skipped, merged)
    };
    for (k, (cells16, cells32)) in staged.iter().enumerate() {
        let (skipped, _) = feed(cells16, cells32, k + 1 == staged.len());
        assert_eq!(skipped, 0, "{what}: a first visit found its diagonal finalized");
    }
    let revisits: Vec<_> =
        staged.iter().map(|(cells16, cells32)| feed(cells16, cells32, false)).collect();
    assert!(
        revisits.iter().any(|&(skipped, _)| skipped > 0),
        "{what}: the revisit skipped nothing"
    );
    let want = per_cell.take_result();
    if bias == 0 {
        assert!(want.same_alignment(&crate::guided::guided_align(&rp, &qp, sc)), "{what}");
    }
    if want.stop.z_dropped() {
        let straddles = |&(skipped, merged): &(usize, usize)| skipped > 0 && merged > 0;
        assert!(
            revisits.iter().any(straddles),
            "{what}: no revisited block straddled the frontier"
        );
    }
    for ((name, _), tracker) in folds.iter().zip(&mut folded) {
        // Dead lanes of the corner blocks' windows wrote nothing past the table.
        tracker.assert_slack_pristine();
        assert_eq!(tracker.take_result(), want, "{what}: {name} result");
    }
}

#[test]
fn fold_impl_sweep_matches_per_cell_feed() {
    // The fold's twin of `lane_impl_sweep_matches_scalar`: every
    // instantiation of the one vector fold this host supports (each feature
    // wrapper × lane impl, the portable one, and the dispatcher as every
    // backend) × both geometries, held to the per-cell feed on whole tracker
    // state, together with the scalar reference fold.
    fn both(r: &[u8], q: &[u8], sc: &Scoring, bias: i32, advance_every: u64) {
        fold_sweep_case::<BLOCK>(r, q, sc, bias, advance_every);
        fold_sweep_case::<MAX_BLOCK>(r, q, sc, bias, advance_every);
    }
    let mut rng = Rng(0xF01D);
    let mut dna = |len: usize| (0..len).map(|_| rng.code()).collect::<Vec<u8>>();
    let poly_a = [0u8; 45];
    // A shared prefix, then unrelated tails: z-drops a third of the way in.
    let (mut zr, mut zq) = (dna(30), dna(70));
    zr.splice(0..0, zq[..30].iter().copied());
    zq.extend(dna(3));
    let (pr, pq) = (dna(if cfg!(miri) { 37 } else { 83 }), dna(if cfg!(miri) { 29 } else { 61 }));
    let unbanded = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
    let biases: &[i32] = if cfg!(miri) { &[-70_000] } else { &[0, 70_000, -70_000, 3_000_000] };
    for &bias in biases {
        // Score ties everywhere: the smallest `i` must win on every diagonal.
        both(&poly_a, &poly_a[..41], &Scoring::figure1(), bias, 3);
        // Termination mid-grid, then run-ahead rows to skip (whole blocks
        // and, where a block straddles the frontier, leading rows).
        both(&zr, &zq, &Scoring::new(2, 4, 4, 2, 12, Scoring::NO_BAND), bias, 2);
        both(&zr, &zq, &Scoring::new(2, 4, 4, 2, 12, 9), bias, 1);
        // The last partial block at the table corner, degenerate tables.
        both(&pr, &pq, &unbanded, bias, 5);
        both(&pr[..1], &pq[..1], &unbanded, bias, 1);
        both(&pr[..1], &pq, &unbanded, bias, 1);
        both(&pr, &pq[..1], &unbanded, bias, 1);
    }
    // The cases of the i32, B = 8 test this sweep generalises.
    let codes = |s: &str| PackedSeq::from_str_seq(s).to_codes();
    both(&codes("AGATAGATAGA"), &codes("AGACTATCA"), &Scoring::figure1(), 0, 2);
    let banded_zdrop = Scoring::new(2, 4, 4, 2, 10, 3);
    both(&codes("ACGTACGTACGTACGTACGT"), &codes("ACGTACGTTCGTACGTACGA"), &banded_zdrop, 0, 2);
    // Bands from the bare main diagonal (every other staged row empty) to
    // around the lane counts.
    let widths: &[i32] = if cfg!(miri) { &[0, 8] } else { &[0, 1, 3, 7, 8, 9, 15, 16, 17] };
    for &w in widths {
        both(&pr, &pr[..pq.len()], &Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, w), -70_000, 4);
        both(&pr, &pq, &Scoring::new(2, 4, 4, 2, 30, w), 0, 4);
    }
}

#[test]
fn avx512_gate_boundary_is_exact_at_wide_geometry() {
    // The gate battery at the wide block geometry, dispatched as every
    // backend this host supports in turn (every host exercises its own
    // 16-lane arm — the contract is identical).
    // B = 16: span + drift = 65(a + b + 1) + 32a = 97a + 65(b + 1).
    gate_boundary_battery::<MAX_BLOCK>(8191, (63, 31, 0), (61, 34, 0), (59, 37, 0));
}

#[test]
fn gate_boundary_is_exact_at_the_32_lane_strip() {
    // The tile AVX-512 hosts run, on every backend this host supports (the
    // others run their portable lanes at 32).
    // B = 32: span + drift = 97(a + b + o + 1) + 32·max, i.e. 129·max + 97·rest:
    // 8,191 would need max ≡ 65 (mod 97), past the 63 that 129·max ≤ 8,191
    // allows, so the largest sum inside the gate is 8,171.
    gate_boundary_battery::<MAX_STRIP>(8171, (28, 28, 18), (62, 1, 0), (59, 5, 0));
}

/// The masks [`fill_segment`] stages for the window at step `t0` of the strip
/// of `cols` columns from `(i0, j0)`, against per-cell validity.
fn check_window_masks<const B: usize>(
    ctx: &BlockCtx<'_>,
    i0: i64,
    cols: usize,
    j0: i64,
    t0: usize,
) {
    let lanes = ctx.strip_lanes(i0, cols, j0, t0);
    let (full_from, full_to) = ctx.full_steps(i0, cols, j0);
    let (live_from, live_to) = ctx.live_steps(i0, cols, j0);
    for d in 0..STAGE_ROWS {
        let t = (t0 + d) as i64;
        let mut want = 0u32;
        for l in 0..B as i64 {
            let (i, j) = (i0 - (B as i64 - 1) + t + l, j0 + B as i64 - 1 - l);
            if (i0..i0 + cols as i64).contains(&i) && ctx.valid(i, j) {
                want |= 1 << l;
            }
        }
        let what = format!("{}×{} w={} strip ({i0},{j0}) × {cols} step {t}", ctx.n, ctx.m, ctx.w);
        assert_eq!(lanes.mask(d as i32), want, "{what}");
        assert_eq!(ctx.strip_lanes(i0, cols, j0, t0 + d).mask(0), want, "{what}: rebuilt there");
        let full = want == u32::MAX >> (32 - B);
        assert_eq!((full_from..full_to).contains(&(t0 + d)), full, "{what}: full steps");
        let live = (live_from..live_to).contains(&(t0 + d));
        assert!(want == 0 || live, "{what}: a valid lane outside the live steps");
        if live_from < live_to && (t0 + d == live_from || t0 + d + 1 == live_to) {
            assert_ne!(want, 0, "{what}: an end of the live steps without a valid lane");
        }
    }
}

#[test]
fn edge_masks_equal_lane_mask() {
    // The clamped window masks of the strip against per-cell validity, as a
    // test of their own: they decide what every staged row holds. The sweep
    // covers the clamp regime the i32 bounds rely on — lengths at
    // `MAX_SEQ_LEN`, origins far off the main diagonal, degenerate and huge
    // bands, the last partial block, windows deep into a long segment.
    fn sweep<const B: usize>() -> u32 {
        let sc = Scoring::figure1();
        let big = crate::MAX_SEQ_LEN;
        let b = B as i64;
        let mut checked = 0u32;
        for (n, m) in [(40, 33), (33, 40), (big, big), (big, 17), (17, big), (big - 5, big - 3)] {
            let (last_i, last_j) = ((n as i64 - 1) / b * b, (m as i64 - 1) / b * b);
            let origins = |last: i64| [0, b, 4 * b, 5 * b, last / 2 / b * b, last - b, last];
            for w in [0, 1, 2, 3, 15, 16, 17, 63, 64, 65, 1 << 30, (n + m) as i64] {
                let mut ctx = BlockCtx::with_block_dim(n, m, &sc, B);
                ctx.w = w;
                for i0 in origins(last_i) {
                    for j0 in origins(last_j) {
                        if !(0..n as i64).contains(&i0) || !(0..m as i64).contains(&j0) {
                            continue;
                        }
                        for blocks in [1, 3, 9] {
                            let cols = (blocks * B).min((last_i - i0) as usize + B);
                            for t0 in (0..cols + B - 1).step_by(STAGE_ROWS) {
                                check_window_masks::<B>(&ctx, i0, cols, j0, t0);
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        checked
    }
    let checked = sweep::<BLOCK>() + sweep::<MAX_BLOCK>() + sweep::<MAX_STRIP>();
    assert!(checked > 4000, "sweep shrank to {checked} windows");
}

/// `shift_in` and `store_low` of the lanes `L` against the portable lanes'
/// on random vectors.
fn check_strip_moves<L: Lanes<B>, const B: usize>(lanes: L, name: &str) {
    let mut rng = Rng(0x5B1F7 + B as u64);
    let mut random = || -> [i16; B] { [0; B].map(|_| rng.next() as i16) };
    for _ in 0..64 {
        let (v, next) = (random(), random());
        let (mut got, mut want) = ([0i16; B], [0i16; B]);
        lanes.store(&mut got, lanes.shift_in(lanes.load(&v), &next));
        Portable.store(&mut want, Portable.shift_in(v, &next));
        assert_eq!(got, want, "{name}: shift_in of {v:?} with {next:?}");
        // One query row down: every lane takes its upper neighbour's value
        // and only `next[0]` enters.
        assert_eq!((&want[..B - 1], want[B - 1]), (&v[1..], next[0]));
        let mut low = [0i16; 2];
        lanes.store_low(&mut low, lanes.load(&v));
        assert_eq!(low, [v[0], v[1]], "{name}: store_low");
    }
}

#[test]
fn strip_moves_match_the_portable_lanes() {
    // The re-directed shift on every x86 impl — the ymm carry build
    // (`permute2x128` + `alignr`) is the part that is easy to get wrong
    // across the 128-bit halves — and the two-lane store the south boundary
    // leaves through.
    check_strip_moves::<_, BLOCK>(Portable, "portable");
    check_strip_moves::<_, MAX_BLOCK>(Portable, "portable");
    check_strip_moves::<_, MAX_STRIP>(Portable, "portable");
    #[cfg(target_arch = "x86_64")]
    {
        if let Some(t) = x86::Sse41::detect() {
            check_strip_moves(Sse41I16(t), "sse41");
        }
        if let Some(t) = x86::Avx2::detect() {
            check_strip_moves(Avx2I16(t), "avx2");
        }
        if let Some(t) = x86::Avx512::detect() {
            check_strip_moves(Avx512I16x32(t), "avx512x32");
        }
    }
}

/// [`Lanes::max_keys`] of the lanes `L` against the portable lanes' on
/// random rows — ties planted at random lanes, masked lanes, the i16 rails —
/// and against its definition: the largest `h`, at its first lane.
fn check_row_reduce<L: Lanes<B>, const B: usize>(lanes: L, name: &str) {
    let mut rng = Rng(0x3E0 + B as u64);
    for case in 0..if cfg!(miri) { 8 } else { 512 } {
        let rows = [[0i16; B]; STAGE_ROWS].map(|row| {
            let mut row = row.map(|_| match rng.next() % 4 {
                0 => NEG_INF16,
                _ => (rng.next() % 64) as i16 - 32,
            });
            let top = match (case + rng.next()) % 4 {
                0 => i16::MAX,
                1 => i16::MIN,
                _ => (rng.next() % 128) as i16 - 64,
            };
            for _ in 0..rng.next() % 3 {
                row[(rng.next() % B as u64) as usize] = top;
            }
            row
        });
        let got = lanes.max_keys(&rows);
        assert_eq!(got, Portable.max_keys(&rows), "{name}: case {case}");
        for (row, key) in rows.iter().zip(got) {
            let best = *row.iter().max().expect("lanes");
            let first = row.iter().position(|&h| h == best).expect("the max") as u32;
            let y = u32::from((i16::MAX as u16).wrapping_sub(best as u16));
            assert_eq!(key, y << 5 | first, "{name}: {row:?}");
        }
    }
}

#[test]
fn row_reduce_matches_the_portable_lanes() {
    // The fold's row reduce on every impl and width: one `phminposuw` per
    // 8-lane half below 32 lanes, one per row at 32 (the halves folded with
    // an unsigned min, the first lane from a compare) — ties included.
    check_row_reduce::<_, BLOCK>(Portable, "portable");
    check_row_reduce::<_, MAX_BLOCK>(Portable, "portable");
    check_row_reduce::<_, MAX_STRIP>(Portable, "portable");
    #[cfg(target_arch = "x86_64")]
    {
        if let Some(t) = x86::Sse41::detect() {
            check_row_reduce(Sse41I16(t), "sse41");
        }
        if let Some(t) = x86::Avx2::detect() {
            check_row_reduce(Avx2I16(t), "avx2");
        }
        if let Some(t) = x86::Avx512::detect() {
            check_row_reduce(Avx512I16x32(t), "avx512x32");
        }
    }
}

/// The tracker's helpers on the lanes `L` against their definitions (the
/// portable defaults): the open rows of [`Lanes::max_keys_above`] and their
/// keys, [`Lanes::window_below`] (a `true` must be right; `false` is always
/// allowed), the live-row mask and the finalize's chunk reductions — on
/// random rows with ties, masked lanes and rails, floors around the rows'
/// maxima, random live sets and bases.
fn check_tracker_helpers<L: Lanes<B>, const B: usize>(lanes: L, name: &str) {
    use crate::diag::CHUNK;
    let mut rng = Rng(0x7AC + B as u64);
    for case in 0..if cfg!(miri) { 8 } else { 512 } {
        let rows = [[0i16; B]; STAGE_ROWS].map(|row| {
            let mut row = row.map(|_| match rng.next() % 4 {
                0 => NEG_INF16,
                _ => (rng.next() % 64) as i16 - 32,
            });
            for _ in 0..rng.next() % 3 {
                row[(rng.next() % B as u64) as usize] = (rng.next() % 96) as i16 - 48;
            }
            row
        });
        let base = (rng.next() % 2_000) as i32 - 1_000;
        let keys = Lanes::<B>::max_keys(Portable, &rows);
        let top = |d: usize| i32::from(*rows[d].iter().max().expect("lanes")) + base;
        let floor: [i32; STAGE_ROWS] = std::array::from_fn(|d| match rng.next() % 4 {
            0 => NEG_INF,
            1 => top(d),
            _ => top(d) + (rng.next() % 9) as i32 - 4,
        });
        let live = (rng.next() as u32) & (rng.next() as u32 | rng.next() as u32);
        let (got, open) = lanes.max_keys_above(&rows, &floor, base, live);
        for d in 0..STAGE_ROWS {
            let must = live >> d & 1 != 0 && top(d) >= floor[d];
            let may = live >> d & 1 != 0;
            let is = open >> d & 1 != 0;
            assert!(
                !must || is,
                "{name}: case {case} row {d} closed at {} vs floor {}",
                top(d),
                floor[d]
            );
            assert!(!is || may, "{name}: case {case} row {d} open but not live");
            if is {
                assert_eq!(got[d], keys[d], "{name}: case {case} row {d} key");
            }
        }
        let below = (0..STAGE_ROWS).all(|d| live >> d & 1 == 0 || top(d) < floor[d]);
        assert!(
            !lanes.window_below(&rows, &floor, base, live) || below,
            "{name}: case {case} window called below"
        );
        let masks: [u32; STAGE_ROWS] = std::array::from_fn(|_| match rng.next() % 3 {
            0 => 0,
            _ => rng.next() as u32 >> (rng.next() % 32),
        });
        assert_eq!(
            lanes.nonzero_rows(&masks),
            Lanes::<B>::nonzero_rows(Portable, &masks),
            "{name}: case {case}"
        );
        let chunk: [i32; CHUNK] = std::array::from_fn(|_| (rng.next() % 200) as i32 - 100);
        let other: [u32; CHUNK] = std::array::from_fn(|_| (rng.next() % 5) as u32);
        let seen: [u32; CHUNK] =
            std::array::from_fn(|d| other[d] - (rng.next() % 2) as u32 * other[d].min(1));
        let cut = (rng.next() % 220) as i32 - 110;
        assert_eq!(lanes.chunk_max(&chunk), *chunk.iter().max().expect("a chunk"), "{name}");
        assert_eq!(lanes.chunk_any_below(&chunk, cut), chunk.iter().any(|&x| x < cut), "{name}");
        assert_eq!(
            lanes.chunk_short(&seen, &other),
            Lanes::<B>::chunk_short(Portable, &seen, &other),
            "{name}"
        );
    }
}

#[test]
fn tracker_helpers_match_their_definitions() {
    // Every impl that overrides a tracker helper, held to the default.
    check_tracker_helpers::<_, MAX_STRIP>(Portable, "portable");
    #[cfg(target_arch = "x86_64")]
    if let Some(t) = x86::Avx512::detect() {
        check_tracker_helpers(Avx512I16x32(t), "avx512x32");
    }
}

/// One block of a `B × 2B` table of `1`s with `peaks` raised to `9`, staged
/// by hand at `(0, j0)` on both tiers (the i16 one on a base of its own).
fn staged_peaks<const B: usize>(
    j0: usize,
    peaks: &[(usize, usize)],
) -> (BlockCellsT<i16, B>, BlockCellsT<i32, B>) {
    let (mut cells16, mut cells32) = (BlockCellsT::<i16, B>::new(), BlockCellsT::<i32, B>::new());
    cells16.set_origin(0, j0 as i64);
    cells32.set_origin(0, j0 as i64);
    cells16.base = 1_000;
    for i in 0..B {
        for k in 0..B {
            let h = if peaks.contains(&(i, j0 + k)) { 9 } else { 1 };
            let (d, l) = (i + k, B - 1 - k);
            cells32.h[d][l] = h;
            cells16.h[d][l] = (h - cells16.base) as i16;
            cells32.mask[d] |= 1 << l;
        }
    }
    cells16.mask = cells32.mask;
    (cells16, cells32)
}

/// Equal maxima on one anti-diagonal resolve to the smallest `i` through
/// every fold, whatever rows and strips they sit in.
fn tie_case<const B: usize>(peaks: &[(usize, usize)]) {
    let sc = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
    let blocks = [staged_peaks::<B>(0, peaks), staged_peaks::<B>(B, peaks)];
    let mut per_cell = DiagTracker::new(B, 2 * B, &sc);
    let mut per_block = per_cell.clone();
    let folds = i16_folds::<B>();
    let mut folded = vec![per_cell.clone(); folds.len()];
    // Strips in both orders: the carried maximum must lose a tie to a
    // smaller `i` arriving later, and keep it against a larger one.
    for order in [[0, 1], [1, 0]] {
        for (cells16, cells32) in order.map(|k| &blocks[k]) {
            let j0 = cells32.j0();
            for (i, j) in (0..B as i32).flat_map(|i| (j0..j0 + B as i32).map(move |j| (i, j))) {
                let peak = peaks.contains(&(i as usize, j as usize));
                per_cell.on_cell(i, j, if peak { 9 } else { 1 });
            }
            per_block.on_block(cells32);
            assert_eq!(per_block, per_cell, "on_block, strip at {j0}");
            for ((name, fold), tracker) in folds.iter().zip(&mut folded) {
                fold(tracker, cells16);
                assert_eq!(*tracker, per_cell, "{name}, strip at {j0}");
            }
        }
        let want = peaks.iter().min().expect("a peak");
        let got = per_cell.take_result().max;
        assert_eq!((got.score, got.i as usize, got.j as usize), (9, want.0, want.1), "{peaks:?}");
        assert_eq!(per_block.take_result().max, got);
        for tracker in &mut folded {
            assert_eq!(tracker.take_result().max, got);
            tracker.reset(B, 2 * B, &sc);
        }
        per_cell.reset(B, 2 * B, &sc);
        per_block.reset(B, 2 * B, &sc);
    }
}

#[test]
fn ties_resolve_to_the_smallest_i() {
    fn both(peaks: impl Fn(usize) -> Vec<(usize, usize)>) {
        tie_case::<BLOCK>(&peaks(BLOCK));
        tie_case::<MAX_BLOCK>(&peaks(MAX_BLOCK));
    }
    // Two rows of one strip, on anti-diagonal b: lanes 3 and 5 of a row.
    both(|b| vec![(3, b - 3), (5, b - 5)]);
    both(|b| vec![(b - 1, 1), (1, b - 1)]);
    // Across the two strips: the second strip's cell has the smaller `i`.
    both(|b| vec![(3, b - 3), (5, b - 5), (0, b)]);
    both(|b| vec![(b - 1, 2), (1, b)]);
}

/// The whole grid swept row by row in segments of `k` blocks (`None`: whole
/// rows) as `backend`: the tracker, decided, and the north rows left behind.
fn swept_in_segments<const B: usize>(
    ctx: BlockCtx<'_>,
    (r, q): (&PackedSeq, &PackedSeq),
    k: Option<i64>,
) -> (DiagTracker, crate::sweep::NorthRows) {
    use crate::sweep::{NorthRows, RowCarry, Sweep};
    let mut tracker = DiagTracker::new(r.len(), q.len(), ctx.scoring);
    let mut rows = NorthRows::default();
    let tier = crate::block::FillTier::I16;
    let mut sweep = Sweep::<B>::new(ctx, tier, r, q, &mut rows, Some(&mut tracker));
    for bj in 0..ctx.query_blocks() {
        let Some((lo, hi)) = ctx.row_block_range(bj) else { continue };
        let mut carry = RowCarry::fresh();
        let mut from = lo;
        while from <= hi {
            let to = k.map_or(hi, |k| (from + k - 1).min(hi));
            sweep.segment(&mut carry, bj, from, to);
            from = to + 1;
        }
        if sweep.advance().is_some() {
            break;
        }
    }
    (tracker, rows)
}

#[test]
fn segment_length_changes_nothing() {
    // A row cut into segments of 1, 2, 3 or 8 blocks or swept whole leaves
    // the same tracker and the same north rows, on every backend: ramps,
    // window boundaries and re-centrings move with the cuts, values do not.
    use crate::profile::QueryProfile;
    use crate::scoring::BLOSUM62;
    fn check<const B: usize>(ctx: BlockCtx<'_>, pair: (&PackedSeq, &PackedSeq)) {
        let want = swept_in_segments::<B>(ctx, pair, None);
        for backend in supported_backends() {
            let ctx = ctx.with_backend(BackendChoice::Fixed(backend));
            for k in [None, Some(1), Some(2), Some(3), Some(8)] {
                let got = swept_in_segments::<B>(ctx, pair, k);
                let what = format!("B={B} w={} {} k={k:?}", ctx.w, backend.name());
                assert_eq!(got.0, want.0, "{what}: tracker");
                assert!(got.1 == want.1, "{what}: north rows");
            }
        }
    }
    let mut rng = Rng(0x5E65);
    let (n, m) = if cfg!(miri) { (70, 45) } else { (300, 210) };
    let rcodes: Vec<u8> = (0..n).map(|_| rng.code()).collect();
    let qcodes: Vec<u8> =
        (0..m).map(|k| if rng.next().is_multiple_of(7) { rng.code() } else { rcodes[k] }).collect();
    let dna = (PackedSeq::from_codes(&rcodes), PackedSeq::from_codes(&qcodes));
    let spread = |codes: &[u8]| -> Vec<u8> {
        codes.iter().enumerate().map(|(k, &c)| c * 4 + (k % 5) as u8).collect()
    };
    let protein = (
        PackedSeq::from_protein_codes(&spread(&rcodes), &BLOSUM62),
        PackedSeq::from_protein_codes(&spread(&qcodes), &BLOSUM62),
    );
    let mut profile = QueryProfile::new();
    for w in [40, Scoring::NO_BAND] {
        let fixed = Scoring::new(2, 4, 4, 2, 60, w);
        let matrix = Scoring::preset_blosum62().with_zdrop(Scoring::NO_ZDROP).with_band(w);
        profile.prepare(&protein.1, &matrix);
        let cases = [(&fixed, &dna, None), (&matrix, &protein, Some(&profile))];
        for (sc, (r, q), profile) in cases {
            let ctx = |b| BlockCtx::with_block_dim(n, m, sc, b).with_profile(profile);
            check::<BLOCK>(ctx(BLOCK), (r, q));
            check::<MAX_BLOCK>(ctx(MAX_BLOCK), (r, q));
            check::<MAX_STRIP>(ctx(MAX_STRIP), (r, q));
        }
    }
}

#[test]
fn the_32_lane_ramps_match_the_scalar_tier() {
    // At 32 lanes a one-block segment is ramps only — 31 steps up, 31 down
    // — and its hold masks run up to lane 31, where a 32-bit shift by the
    // full width overflows. One- and two-block segments on every backend,
    // under bands whose edge crosses the ramps, against the scalar tier.
    use crate::block::FillTier;
    let mut rng = Rng(0x3232);
    let (n, m) = if cfg!(miri) { (70, 66) } else { (150, 140) };
    let rcodes: Vec<u8> = (0..n).map(|_| rng.code()).collect();
    let qcodes: Vec<u8> =
        (0..m).map(|k| if rng.next().is_multiple_of(9) { rng.code() } else { rcodes[k] }).collect();
    let (r, q) = (PackedSeq::from_codes(&rcodes), PackedSeq::from_codes(&qcodes));
    for w in [0, 5, 31, 32, 33, Scoring::NO_BAND] {
        let sc = Scoring::new(2, 4, 4, 2, 40, w);
        let ctx = BlockCtx::with_block_dim(n, m, &sc, MAX_STRIP);
        let want = crate::sweep::grid_align::<MAX_STRIP>(ctx, FillTier::Scalar, &r, &q);
        assert!(want.same_alignment(&crate::guided::guided_align(&r, &q, &sc)), "w={w}");
        for backend in supported_backends() {
            let ctx = ctx.with_backend(BackendChoice::Fixed(backend));
            for k in [Some(1), Some(2), None] {
                let got = swept_in_segments::<MAX_STRIP>(ctx, (&r, &q), k).0.take_result();
                assert_eq!(got, want, "w={w} {} k={k:?}", backend.name());
            }
        }
    }
}

#[test]
fn level_tokens_are_detect_only_proofs() {
    // A token carries a fact, not data: zero-sized and `Copy`, like the lane
    // impls built from one, so threading the proof through the fill and the
    // fold costs nothing.
    fn zero_sized<T: Copy>() -> bool {
        std::mem::size_of::<T>() == 0
    }
    assert!(zero_sized::<Portable>());
    let supported = supported_backends();
    #[cfg(target_arch = "x86_64")]
    {
        assert!(zero_sized::<x86::Sse41>() && zero_sized::<Sse41I16>());
        assert!(zero_sized::<x86::Avx2>() && zero_sized::<Avx2I16>());
        assert!(zero_sized::<x86::Avx512>() && zero_sized::<Avx512I16x32>());
        // `detect()` is the public capability list, level by level.
        let has = |b| supported.contains(&b);
        assert_eq!(x86::Sse41::detect().is_some(), has(WavefrontBackend::Sse41));
        assert_eq!(x86::Avx2::detect().is_some(), has(WavefrontBackend::Avx2));
        assert_eq!(x86::Avx512::detect().is_some(), has(WavefrontBackend::Avx512));
    }
    let best = ProvenBackend::detect();
    assert_eq!(best.name(), detected_backend());
    assert_eq!(supported[0], detected_backend());
    if cfg!(miri) {
        assert_eq!(best.name(), WavefrontBackend::Portable);
    }
    // A proof only lowers: capping follows the pure clamp over names, so a
    // request above the host resolves to a level detection found.
    for name in ["avx512", "avx2", "sse41", "portable"] {
        let choice = BackendChoice::parse(name).unwrap();
        let capped = best.capped(choice);
        assert_eq!(capped.name(), choice.cap(best.name()));
        assert!(supported.contains(&capped.name()), "{name} resolved above the host");
        assert_eq!(capped.capped(BackendChoice::Auto).name(), capped.name());
    }
}

/// [`Lanes::sub_rows`] of the lanes `L` at geometry `B` against its
/// definition, `S(codes[d + l], Q[j0 + B−1 − l])` by direct lookup, and
/// against the default (the profile's rows unskewed, and the same with no
/// profile), on random windows of every length at every `j0` of a query
/// that ends inside a block row: the window codes and the query span every
/// 8-bit code, in-alphabet, the pad and past the alphabet (clamped).
fn check_sub_rows<L: Lanes<B>, const B: usize>(lanes: L, name: &str) {
    use crate::profile::QueryProfile;
    use crate::scoring::BLOSUM62;
    let sc = Scoring::preset_blosum62();
    let mut rng = Rng(0xB62 + B as u64);
    // Mostly residues, with the pad and foreign codes among them.
    let mut code = || match rng.next() % 8 {
        0 => (rng.next() % 256) as u8,
        _ => (rng.next() % BLOSUM62.dim as u64) as u8,
    };
    let qlen = if cfg!(miri) { B + 3 } else { 3 * B + 5 };
    let qcodes: Vec<u8> = (0..qlen).map(|_| code()).collect();
    let q = PackedSeq::from_codes_wide(&qcodes, 8, BLOSUM62.pad_code());
    let mut profile = QueryProfile::new();
    profile.prepare(&q, &sc);
    let ctx = BlockCtx::with_block_dim(qlen, qlen, &sc, B);
    let profiled = ctx.with_profile(Some(&profile));
    let lens: &[usize] =
        if cfg!(miri) { &[1, STAGE_ROWS] } else { &[1, 2, 7, B - 1, B, STAGE_ROWS] };
    // Every eighth window code counts through all 8-bit codes.
    let (mut seen, mut count) = ([false; 256], 0u8);
    for j0 in 0..qlen {
        // Rows past the query end hold the pad, as `unpack_block` lays them.
        let rows: [u8; B] =
            std::array::from_fn(|k| qcodes.get(j0 + k).copied().unwrap_or(BLOSUM62.pad_code()));
        for &len in lens {
            let codes: Vec<i16> = (0..len + B - 1)
                .map(|k| {
                    let c = if k % 8 == 0 { count } else { code() };
                    count = count.wrapping_add(u8::from(k % 8 == 0));
                    seen[usize::from(c)] = true;
                    i16::from(c)
                })
                .collect();
            let mut got = [[0i16; B]; STAGE_ROWS + MAX_STRIP];
            lanes.sub_rows(&ctx, &BLOSUM62, j0 as i64, &codes, &rows, &mut got);
            for (d, row) in got[..len].iter().enumerate() {
                for (l, &s) in row.iter().enumerate() {
                    let want = BLOSUM62.score(codes[d + l] as u8, rows[B - 1 - l]);
                    assert_eq!(i32::from(s), want, "{name}: j0={j0} len={len} step {d} lane {l}");
                }
            }
            for ctx in [&ctx, &profiled] {
                let mut default = [[0i16; B]; STAGE_ROWS + MAX_STRIP];
                fill::matrix_sub_rows(
                    Portable,
                    ctx,
                    &BLOSUM62,
                    j0 as i64,
                    &codes,
                    &rows,
                    &mut default,
                );
                assert_eq!(got[..len], default[..len], "{name}: j0={j0} len={len}");
            }
        }
    }
    if !cfg!(miri) {
        assert!(seen.iter().all(|&s| s), "{name}: every 8-bit code in some window");
    }
}

#[test]
fn matrix_windows_match_the_direct_lookup() {
    // The default primitive at every side, and the 32-lane strip's one
    // `vpermw` per lane plus transpose where the host has AVX-512.
    check_sub_rows::<_, BLOCK>(Portable, "portable");
    check_sub_rows::<_, MAX_BLOCK>(Portable, "portable");
    check_sub_rows::<_, MAX_STRIP>(Portable, "portable");
    #[cfg(target_arch = "x86_64")]
    {
        if let Some(t) = x86::Avx2::detect() {
            check_sub_rows(Avx2I16(t), "avx2");
        }
        if let Some(t) = x86::Avx512::detect() {
            check_sub_rows(Avx512I16x32(t), "avx512x32");
        }
    }
}

#[test]
fn only_the_32_lane_strip_skips_the_profile() {
    use crate::scoring::BLOSUM62;
    let (sc, dna) = (Scoring::preset_blosum62(), Scoring::preset_clr());
    // A matrix without a column table unskews the profile everywhere.
    let no_columns = crate::scoring::SubstMatrix { columns: None, ..BLOSUM62 };
    for backend in supported_backends() {
        let choice = BackendChoice::Fixed(backend);
        for b in [BLOCK, MAX_BLOCK, MAX_STRIP] {
            let strip = backend == WavefrontBackend::Avx512 && b == MAX_STRIP;
            let ctx = |sc| BlockCtx::with_block_dim(100, 100, sc, b).with_backend(choice);
            assert_eq!(ctx(&sc).reads_profile(), !strip, "{} b{b}", backend.name());
            assert!(!ctx(&dna).reads_profile(), "the fixed model has no profile");
            assert!(ctx(&sc).wavefront_backend.reads_profile(b, &no_columns));
        }
    }
}
