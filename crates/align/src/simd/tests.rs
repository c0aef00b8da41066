use super::fill::struct_mask;
use super::lanes::{DiagMasks, Lanes};
use super::*;
use crate::block::{fill_scalar, BlockCells};
use crate::pack::PackedSeq;
use crate::{Scoring, MAX_BLOCK_DIAGS, NEG_INF};
#[cfg(not(target_arch = "x86_64"))]
use crate::{BLOCK, MAX_BLOCK};

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
    fn val(&mut self) -> i32 {
        match self.next() % 4 {
            0 => NEG_INF,
            _ => (self.next() % 2000) as i32 - 1000,
        }
    }
}

/// One lane impl (or a dispatcher) as a plain safe function.
type Fill<T, const B: usize> = for<'a, 'b, 'c> fn(&'a BlockCtx<'b>, i64, i64, BlockIo<'c, T, B>);

/// `$wrapper::<$lanes, $n>` as a [`Fill`] at the enclosing function's `B`.
/// Callers list a vector impl only after [`has`] confirmed its backend.
macro_rules! lane_fill {
    ($wrapper:ident, $lanes:ty, $n:expr) => {{
        fn run<const B: usize>(
            ctx: &BlockCtx<'_>,
            i0: i64,
            j0: i64,
            io: BlockIo<'_, <$lanes as Lanes<{ $n }>>::Elem, B>,
        ) {
            // SAFETY: only listed when the host supports the wrapper's level.
            unsafe { $wrapper::<$lanes, { $n }>(ctx, i0, j0, io.at_geometry()) }
        }
        run::<B>
    }};
}

/// Whether this host can run `backend`'s lanes (`Portable` only under Miri).
#[cfg(target_arch = "x86_64")]
fn has(backend: WavefrontBackend) -> bool {
    supported_backends().contains(&backend)
}

/// Every i32 lane impl the host supports at geometry `B`, portable first.
fn i32_lanes<const B: usize>() -> Vec<(&'static str, Fill<i32, B>)> {
    #[allow(unused_mut)]
    let mut fills = vec![("portable", lane_fill!(fill_block, Portable<i32>, B) as Fill<i32, B>)];
    #[cfg(target_arch = "x86_64")]
    if B == BLOCK && has(WavefrontBackend::Avx2) {
        fills.push(("avx2", lane_fill!(fill_avx2, Avx2I32, BLOCK)));
    }
    fills
}

/// Every i16 lane impl × feature level the host supports at geometry `B`,
/// portable first.
fn i16_lanes<const B: usize>() -> Vec<(&'static str, Fill<i16, B>)> {
    #[allow(unused_mut)]
    let mut fills = vec![("portable", lane_fill!(fill_block, Portable<i16>, B) as Fill<i16, B>)];
    #[cfg(target_arch = "x86_64")]
    {
        if B == BLOCK && has(WavefrontBackend::Sse41) {
            fills.push(("sse41", lane_fill!(fill_sse41, Sse41I16, BLOCK)));
        }
        if B == BLOCK && has(WavefrontBackend::Avx2) {
            fills.push(("sse41@avx2", lane_fill!(fill_avx2, Sse41I16, BLOCK)));
        }
        if B == MAX_BLOCK && has(WavefrontBackend::Avx2) {
            fills.push(("avx2", lane_fill!(fill_avx2, Avx2I16, MAX_BLOCK)));
        }
        if B == MAX_BLOCK && has(WavefrontBackend::Avx512) {
            fills.push(("avx512", lane_fill!(fill_avx512, Avx512I16, MAX_BLOCK)));
        }
    }
    fills
}

/// [`fill_wavefront`] (whatever the process-wide backend resolves to) as a
/// [`Fill`].
fn dispatch32<const B: usize>(ctx: &BlockCtx<'_>, i0: i64, j0: i64, io: BlockIo<'_, i32, B>) {
    let BlockIo { rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells } = io;
    fill_wavefront(ctx, i0, j0, rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells);
}

/// [`fill_wavefront_i16`] as a [`Fill`].
fn dispatch16<const B: usize>(ctx: &BlockCtx<'_>, i0: i64, j0: i64, io: BlockIo<'_, i16, B>) {
    let BlockIo { rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells } = io;
    fill_wavefront_i16(
        ctx, i0, j0, rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells,
    );
}

/// Run one block through the scalar fill and through every lane impl the
/// host supports (plus the dispatchers) and assert identical masks,
/// structural-lane `H` and boundary outputs; impls of one lane type must
/// also agree on whole staging rows, masked lanes included.
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

    let mut rows32 = Vec::new();
    for (name, fill) in i32_lanes::<B>().into_iter().chain([("dispatch", dispatch32::<B> as _)]) {
        let mut cells_v = BlockCellsT::<i32, B>::new();
        let (mut wh_v, mut we_v, mut nh_v, mut nf_v) = (west_h, west_e, north_h, north_f);
        let io = BlockIo {
            rcodes,
            qcodes,
            corner,
            west_h: &mut wh_v,
            west_e: &mut we_v,
            north_h: &mut nh_v,
            north_f: &mut nf_v,
            cells: &mut cells_v,
        };
        fill(ctx, i0, j0, io);
        assert_eq!(cells_v.mask, cells_s.mask, "{name}: masks at ({i0},{j0})");
        for d in 0..block_diags(B) {
            let sm = struct_mask(B, d);
            for l in 0..B {
                if sm & (1 << l) != 0 {
                    assert_eq!(
                        cells_v.h[d][l], cells_s.h[d][l],
                        "{name}: H mismatch at block ({i0},{j0}) diag {d} lane {l}"
                    );
                }
            }
        }
        assert_eq!(wh_v, wh_s, "{name}: west H at ({i0},{j0})");
        assert_eq!(we_v, we_s, "{name}: west E at ({i0},{j0})");
        assert_eq!(nh_v, nh_s, "{name}: north H at ({i0},{j0})");
        assert_eq!(nf_v, nf_s, "{name}: north F at ({i0},{j0})");
        rows32.push((name, cells_v.h));
    }
    for (name, rows) in &rows32[1..] {
        assert_eq!(rows, &rows32[0].1, "i32 {name} vs portable staging rows at ({i0},{j0})");
    }

    // The 16-bit tier against the same scalar reference. Real values
    // must match bit for bit; `-∞`-class values (possible here because
    // the harness feeds arbitrary NEG_INF boundaries, unlike a real
    // task where in-band diag inputs are always real) may differ in
    // encoding but must stay in the sentinel band on both sides.
    if ctx.i16_exact {
        let same = |got16: i32, want32: i32, what: &str| {
            if want32 > i32::from(NEG_INF16) {
                assert_eq!(got16, want32, "i16: {what} at ({i0},{j0})");
            } else {
                assert!(got16 <= i32::from(NEG_INF16), "i16: {what} class at ({i0},{j0})");
            }
        };
        let mut runs = Vec::new();
        for (name, fill) in i16_lanes::<B>().into_iter().chain([("dispatch", dispatch16::<B> as _)])
        {
            let mut cells_n = BlockCellsT::<i16, B>::new();
            let (mut wh_n, mut we_n, mut nh_n, mut nf_n) = (west_h, west_e, north_h, north_f);
            let io = BlockIo {
                rcodes,
                qcodes,
                corner,
                west_h: &mut wh_n,
                west_e: &mut we_n,
                north_h: &mut nh_n,
                north_f: &mut nf_n,
                cells: &mut cells_n,
            };
            fill(ctx, i0, j0, io);
            assert_eq!(cells_n.mask, cells_s.mask, "{name}: masks at ({i0},{j0})");
            for d in 0..block_diags(B) {
                for l in 0..B {
                    if cells_s.mask[d] & (1 << l) != 0 {
                        same(i32::from(cells_n.h[d][l]), cells_s.h[d][l], "H");
                    }
                }
            }
            for k in 0..B {
                same(wh_n[k], wh_s[k], "west H");
                same(we_n[k], we_s[k], "west E");
                same(nh_n[k], nh_s[k], "north H");
                same(nf_n[k], nf_s[k], "north F");
            }
            runs.push((name, (cells_n.h, wh_n, we_n, nh_n, nf_n)));
        }
        // Every i16 impl must agree with the portable lanes exactly, sentinel
        // encodings included (they are the vector impls' reference).
        for (name, run) in &runs[1..] {
            assert_eq!(run, &runs[0].1, "i16 {name} vs portable at ({i0},{j0})");
        }
    }
}

/// Sweep every block of each scoring (over a shape of its own, never a
/// block multiple, so the last row and column of blocks are table-edge
/// partials) at geometry `B`, feeding random codes and boundaries.
fn fixed_blocks_sweep<const B: usize>(seed: u64, scorings: &[Scoring]) {
    let mut rng = Rng(seed);
    for (si, sc) in scorings.iter().enumerate() {
        let (n, m) = (40 + si % 4 * 7, 33 + si % 4 * 5);
        let ctx = BlockCtx::with_block_dim(n, m, sc, B);
        assert!(ctx.simd_exact);
        for bi in 0..ctx.ref_blocks() {
            for bj in 0..ctx.query_blocks() {
                let mut rcodes = [0u8; B];
                let mut qcodes = [0u8; B];
                let mut bounds = [[0i32; B]; 4];
                for l in 0..B {
                    rcodes[l] = rng.code();
                    qcodes[l] = rng.code();
                    for b in &mut bounds {
                        b[l] = rng.val();
                    }
                }
                check_block(
                    &ctx,
                    bi * B as i64,
                    bj * B as i64,
                    &rcodes,
                    &qcodes,
                    rng.val(),
                    bounds[0],
                    bounds[1],
                    bounds[2],
                    bounds[3],
                );
            }
        }
    }
}
/// The historical four scorings: unbanded, narrow bands, z-drop.
fn random_blocks_sweep<const B: usize>(seed: u64) {
    fixed_blocks_sweep::<B>(
        seed,
        &[
            Scoring::figure1(),
            Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 3),
            Scoring::new(1, 9, 0, 1, 40, 11),
            Scoring::new(5, 1, 7, 3, Scoring::NO_ZDROP, Scoring::NO_BAND),
        ],
    );
}

#[test]
fn wavefront_matches_scalar_on_random_blocks() {
    random_blocks_sweep::<BLOCK>(0x5EED);
}

#[test]
fn wavefront_matches_scalar_on_random_blocks_wide() {
    random_blocks_sweep::<MAX_BLOCK>(0x51DE);
}

/// Sweep every block of a substitution-matrix scoring at geometry `B`:
/// all tiers against the scalar fill, with the matrix path exercised
/// both through direct lookups and through a prepared query profile
/// (the two must be bit-identical by construction).
fn matrix_blocks_sweep<const B: usize>(seed: u64, sc: &Scoring) {
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
        assert!(ctx.simd_exact && ctx.i16_exact, "blosum62 at {n}×{m} fits both gates");
        for bi in 0..ctx.ref_blocks() {
            for bj in 0..ctx.query_blocks() {
                let (i0, j0) = (bi * B as i64, bj * B as i64);
                let mut rcodes = [0u8; B];
                let mut qb = [0u8; B];
                q.unpack_block(j0 as usize, &mut qb);
                let mut bounds = [[0i32; B]; 4];
                for l in 0..B {
                    rcodes[l] = (rng.next() % 21) as u8;
                    for b in &mut bounds {
                        b[l] = rng.val();
                    }
                }
                check_block(
                    &ctx,
                    i0,
                    j0,
                    &rcodes,
                    &qb,
                    rng.val(),
                    bounds[0],
                    bounds[1],
                    bounds[2],
                    bounds[3],
                );
            }
        }
    }
}

#[test]
fn matrix_model_matches_scalar_on_random_blocks() {
    matrix_blocks_sweep::<BLOCK>(0xB105, &Scoring::preset_blosum62());
}

#[test]
fn matrix_model_matches_scalar_on_random_blocks_wide() {
    matrix_blocks_sweep::<MAX_BLOCK>(0xB162, &Scoring::preset_blosum62());
}

/// One step of the block-grid protocol: compute the block at
/// `(i0, j0)` (with whichever fill the harness is exercising) and feed
/// the tracker. Boundary arrays follow the [`crate::block::compute_block`]
/// in/out convention.
type GridStep<'a, const B: usize> = &'a mut dyn FnMut(
    &BlockCtx<'_>,
    i64,
    i64,
    &[u8; B],
    &[u8; B],
    i32,
    &mut BoundaryT<B>,
    &mut BoundaryT<B>,
    &mut BoundaryT<B>,
    &mut BoundaryT<B>,
    &mut crate::diag::DiagTracker,
);

/// Drive the block grid end-to-end (the one copy of the grid-driving
/// protocol shared by every fill-tier harness), dispatching the fills as
/// `backend`, and return the complete guided result.
fn grid_run_with<const B: usize>(
    backend: WavefrontBackend,
    r: &PackedSeq,
    q: &PackedSeq,
    sc: &Scoring,
    step: GridStep<'_, B>,
) -> crate::result::GuidedResult {
    use crate::diag::DiagTracker;
    let mut ctx = BlockCtx::with_block_dim(r.len(), q.len(), sc, B);
    ctx.wavefront_backend = backend;
    let mut tracker = DiagTracker::new(r.len(), q.len(), sc);
    let b = B as i64;
    let padded_n = (ctx.ref_blocks() * b) as usize;
    let mut row_h = vec![NEG_INF; padded_n];
    let mut row_f = vec![NEG_INF; padded_n];
    let (mut rb, mut qb) = ([0u8; B], [0u8; B]);
    'rows: for bj in 0..ctx.query_blocks() {
        let j0 = bj * b;
        let Some((lo, hi)) = ctx.row_block_range(bj) else { continue };
        q.unpack_block(j0 as usize, &mut qb);
        let (mut wh, mut we) = crate::block::west_init::<B>(&ctx, lo * b, j0);
        let mut corner = crate::block::corner_read(&ctx, lo * b, j0, &row_h);
        for bi in lo..=hi {
            let i0 = bi * b;
            r.unpack_block(i0 as usize, &mut rb);
            let (mut nh, mut nf) = crate::block::north_read::<B>(&ctx, i0, j0, &row_h, &row_f);
            let next_corner = nh[B - 1];
            step(&ctx, i0, j0, &rb, &qb, corner, &mut wh, &mut we, &mut nh, &mut nf, &mut tracker);
            row_h[i0 as usize..i0 as usize + B].copy_from_slice(&nh);
            row_f[i0 as usize..i0 as usize + B].copy_from_slice(&nf);
            corner = next_corner;
            if tracker.is_finished() {
                break 'rows;
            }
        }
        if tracker.advance().is_some() {
            break;
        }
    }
    tracker.result()
}

/// [`grid_run_on`] with the process-wide backend.
fn grid_run<const B: usize>(
    r: &PackedSeq,
    q: &PackedSeq,
    sc: &Scoring,
    mode: crate::block::FillMode,
) -> crate::result::GuidedResult {
    grid_run_on::<B>(backend(), r, q, sc, mode)
}

/// [`grid_run_with`] using an explicit [`crate::block::FillMode`].
fn grid_run_on<const B: usize>(
    backend: WavefrontBackend,
    r: &PackedSeq,
    q: &PackedSeq,
    sc: &Scoring,
    mode: crate::block::FillMode,
) -> crate::result::GuidedResult {
    let mut cells = BlockCellsT::<i32, B>::new();
    grid_run_with::<B>(
        backend,
        r,
        q,
        sc,
        &mut |ctx, i0, j0, rb, qb, corner, wh, we, nh, nf, tracker| {
            crate::block::compute_block_mode(
                mode, ctx, i0, j0, rb, qb, corner, wh, we, nh, nf, &mut cells,
            );
            tracker.on_block(&cells);
        },
    )
}

/// [`grid_run_with`] on the 16-bit tier:
/// [`crate::block::compute_block_i16`] staging into a 16-bit buffer,
/// folded by `on_block_i16`.
fn grid_run_i16<const B: usize>(
    r: &PackedSeq,
    q: &PackedSeq,
    sc: &Scoring,
) -> crate::result::GuidedResult {
    grid_run_i16_on::<B>(backend(), r, q, sc)
}

/// [`grid_run_i16`] dispatching as `backend`.
fn grid_run_i16_on<const B: usize>(
    backend: WavefrontBackend,
    r: &PackedSeq,
    q: &PackedSeq,
    sc: &Scoring,
) -> crate::result::GuidedResult {
    assert!(
        BlockCtx::with_block_dim(r.len(), q.len(), sc, B).i16_exact,
        "grid_run_i16 callers must pick gate-admitted tasks"
    );
    let mut cells = BlockCellsT::<i16, B>::new();
    grid_run_with::<B>(
        backend,
        r,
        q,
        sc,
        &mut |ctx, i0, j0, rb, qb, corner, wh, we, nh, nf, tracker| {
            crate::block::compute_block_i16(
                ctx, i0, j0, rb, qb, corner, wh, we, nh, nf, &mut cells,
            );
            tracker.on_block_i16(&cells);
        },
    )
}

#[test]
fn wavefront_matches_scalar_via_block_grid() {
    // End-to-end: drive block_grid_align manually with each fill tier
    // at each geometry and compare complete guided results.
    use crate::block::FillMode;
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
        let scalar = grid_run::<BLOCK>(&rp, &qp, &sc, FillMode::Scalar);
        let simd = grid_run::<BLOCK>(&rp, &qp, &sc, FillMode::Simd);
        let narrow = grid_run_i16::<BLOCK>(&rp, &qp, &sc);
        assert_eq!(scalar, simd, "case {case}: scalar vs simd fill");
        assert_eq!(scalar, narrow, "case {case}: scalar vs i16 fill");
        // The wide geometry tiles the same table differently but must
        // produce the identical guided result in both precisions.
        let wide = grid_run::<MAX_BLOCK>(&rp, &qp, &sc, FillMode::Simd);
        let wide16 = grid_run_i16::<MAX_BLOCK>(&rp, &qp, &sc);
        assert_eq!(scalar, wide, "case {case}: scalar vs wide i32 fill");
        assert_eq!(scalar, wide16, "case {case}: scalar vs wide i16 fill");
        assert!(scalar.same_alignment(&want), "case {case}: {scalar:?} vs {want:?}");
        assert_eq!(scalar.cells, want.cells, "case {case}");
    }
}

#[test]
fn matrix_model_matches_scalar_via_block_grid() {
    // End-to-end under BLOSUM62: every fill tier at both geometries
    // must reproduce the scalar guided result on protein tasks.
    use crate::block::FillMode;
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
        let scalar = grid_run::<BLOCK>(&rp, &qp, &sc, FillMode::Scalar);
        let simd = grid_run::<BLOCK>(&rp, &qp, &sc, FillMode::Simd);
        let narrow = grid_run_i16::<BLOCK>(&rp, &qp, &sc);
        let wide = grid_run::<MAX_BLOCK>(&rp, &qp, &sc, FillMode::Simd);
        let wide16 = grid_run_i16::<MAX_BLOCK>(&rp, &qp, &sc);
        assert_eq!(scalar, simd, "case {case}: scalar vs simd fill");
        assert_eq!(scalar, narrow, "case {case}: scalar vs i16 fill");
        assert_eq!(scalar, wide, "case {case}: scalar vs wide i32 fill");
        assert_eq!(scalar, wide16, "case {case}: scalar vs wide i16 fill");
        assert!(scalar.same_alignment(&want), "case {case}: {scalar:?} vs {want:?}");
        assert_eq!(scalar.cells, want.cells, "case {case}");
    }
}

#[test]
fn oversized_scoring_falls_back_to_scalar() {
    // A scoring whose per-step increment is too large for the wavefront
    // exactness proof must degrade to the scalar fill (simd_exact off)
    // when dispatched through compute_block_mode(Simd).
    use crate::block::{compute_block_mode, FillMode};

    let sc = Scoring::new(1 << 28, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
    let ctx = BlockCtx::new(64, 64, &sc);
    assert!(!ctx.simd_exact);
    let small = Scoring::figure1();
    assert!(BlockCtx::new(64, 64, &small).simd_exact);

    // Craft a block whose DP actually saturates: all-match codes add
    // 2^28 per diagonal step starting from a corner near i32::MAX, so
    // the scalar fill's saturating_add pins at i32::MAX while a
    // wavefront fill would wrap. If the Simd dispatch ever stopped
    // falling back, the outputs below would diverge (or the wavefront
    // would overflow-panic in debug builds) — either way this test
    // catches it.
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
    assert_eq!(scalar, simd, "Simd mode must fall back to the scalar fill when !simd_exact");
    // The crafted inputs really do reach saturation (the discriminating
    // regime for the two add semantics).
    assert!(scalar.0.iter().any(|row| row.contains(&i32::MAX)), "expected saturated cells");
}

#[test]
fn i16_gate_boundary_is_exact() {
    // All-match tasks that land the gate's reachable-score bound
    // exactly at the i16 threshold (2^13) and one unit inside it:
    // match = 64 with gap_open = 0, gap_extend = 1 makes the match
    // score the dominant per-step increment, so the bound is
    // 64 × (n + m + 2).
    use crate::block::{FillMode, FillPrecision, FillTier};
    use crate::guided::guided_align;

    let sc = Scoring::new(64, 1, 0, 1, Scoring::NO_ZDROP, Scoring::NO_BAND);

    // n + m + 2 = 127 → bound 8128 < 8192: one inside the gate.
    let inside = BlockCtx::new(63, 62, &sc);
    assert!(inside.i16_exact, "63×62 must sit one step inside the i16 gate");
    assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::I16), FillTier::I16);
    assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I16);
    assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::I32), FillTier::I32);

    // n + m + 2 = 128 → bound 8192: exactly at the gate — demoted.
    let at = BlockCtx::new(63, 63, &sc);
    assert!(!at.i16_exact && at.simd_exact, "63×63 must demote to the i32 tier");
    assert_eq!(at.fill_tier(FillMode::Simd, FillPrecision::I16), FillTier::I32);
    assert_eq!(at.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I32);
    assert_eq!(at.fill_tier(FillMode::Scalar, FillPrecision::I16), FillTier::Scalar);

    // Inside the gate, an all-match task reaches the maximum attainable
    // score — the adversarial extreme the bound protects — and the i16
    // tier must still be bit-identical to the scalar fill.
    let r = PackedSeq::from_codes(&[0u8; 63]);
    let q = PackedSeq::from_codes(&[0u8; 62]);
    let want = guided_align(&r, &q, &sc);
    assert_eq!(want.score, 62 * 64, "all-match task must reach the gate's score regime");
    let scalar = grid_run::<BLOCK>(&r, &q, &sc, FillMode::Scalar);
    let narrow = grid_run_i16::<BLOCK>(&r, &q, &sc);
    assert_eq!(scalar, narrow, "i16 tier at the gate boundary must equal scalar");
    assert!(scalar.same_alignment(&want));

    // At the gate, the demoted (i32 wavefront) tier equals scalar too.
    let q2 = PackedSeq::from_codes(&[0u8; 63]);
    let scalar2 = grid_run::<BLOCK>(&r, &q2, &sc, FillMode::Scalar);
    let demoted = grid_run::<BLOCK>(&r, &q2, &sc, FillMode::Simd);
    assert_eq!(scalar2, demoted, "demoted task must run the exact i32 path");
    assert_eq!(scalar2.score, 63 * 64);
}

/// Bypass the tier gate and drive every raw i16 lane impl on a block whose
/// DP genuinely exceeds i16 range: the saturating arithmetic must pin at
/// the rails (never wrap into plausible scores), all impls must agree, and
/// the scalar fill keeps the exact values — which is precisely why
/// `fill_tier` demotes such tasks.
fn saturation_probe<const B: usize>() {
    let sc = Scoring::new(4096, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
    let ctx = BlockCtx::with_block_dim(64, 64, &sc, B);
    assert!(!ctx.i16_exact, "step 4096 must fail the i16 gate");
    assert!(ctx.simd_exact, "…while still fitting the i32 gate");

    let origin = B as i64;
    let rcodes = [0u8; B];
    let qcodes = [0u8; B];
    let corner = 30_000;
    let west_h = [29_000; B];
    let west_e = [NEG_INF; B];
    let north_h = [29_000; B];
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
        cells_s.h.iter().any(|row| row.iter().any(|&h| h > i32::from(i16::MAX))),
        "crafted block must exceed i16 range in the exact fill"
    );

    let mut runs = Vec::new();
    for (name, fill) in i16_lanes::<B>() {
        let mut cells_n = BlockCellsT::<i16, B>::new();
        let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
        let io = BlockIo {
            rcodes: &rcodes,
            qcodes: &qcodes,
            corner,
            west_h: &mut wh,
            west_e: &mut we,
            north_h: &mut nh,
            north_f: &mut nf,
            cells: &mut cells_n,
        };
        fill(&ctx, origin, origin, io);
        let mut saw_rail = false;
        for d in 0..block_diags(B) {
            for l in 0..B {
                if cells_n.mask[d] & (1 << l) != 0 {
                    let h = cells_n.h[d][l];
                    let exact = cells_s.h[d][l];
                    if i32::from(h) != exact {
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

    // The per-block overflow sentinel catches exactly this regime in
    // debug builds when the dispatch is (wrongly) driven past the gate.
    #[cfg(debug_assertions)]
    {
        let result = std::panic::catch_unwind(|| {
            let mut cells = BlockCellsT::<i16, B>::new();
            let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
            fill_wavefront_i16(
                &ctx, origin, origin, &rcodes, &qcodes, corner, &mut wh, &mut we, &mut nh, &mut nf,
                &mut cells,
            );
        });
        assert!(result.is_err(), "overflow sentinel must trip on a saturated block");
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
    // dispatcher would have picked on this host.
    random_blocks_sweep::<BLOCK>(0xF0CE);
    random_blocks_sweep::<MAX_BLOCK>(0xF1DE);
    matrix_blocks_sweep::<MAX_BLOCK>(0xFACE, &Scoring::preset_blosum62());
    // Band half-widths around the lane counts (a diagonal of the band edge
    // crosses every lane position) down to the degenerate main diagonal.
    let widths: &[i32] = if cfg!(miri) { &[0, 3, 17] } else { &[0, 1, 3, 15, 16, 17] };
    let banded: Vec<Scoring> =
        widths.iter().map(|&w| Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, w)).collect();
    fixed_blocks_sweep::<BLOCK>(0xBA2D, &banded);
    fixed_blocks_sweep::<MAX_BLOCK>(0xBA3D, &banded);
    for &w in widths {
        let sc = Scoring::preset_blosum62().with_band(w);
        matrix_blocks_sweep::<BLOCK>(0xB1A5 + w as u64, &sc);
        matrix_blocks_sweep::<MAX_BLOCK>(0xB1B5 + w as u64, &sc);
    }
}

#[test]
fn avx512_gate_boundary_is_exact_at_wide_geometry() {
    // The 2^13 gate battery at the wide geometry, dispatched as every
    // backend this host supports in turn (so the mask-register lanes are
    // pinned wherever they exist, and every other host still exercises its
    // own widest arm — the contract is identical).
    use crate::block::{FillMode, FillPrecision, FillTier};
    use crate::guided::guided_align;

    let sc = Scoring::new(64, 1, 0, 1, Scoring::NO_ZDROP, Scoring::NO_BAND);

    // n + m + 2 = 127 → bound 8128 < 8192: one inside the gate, and the
    // gate decision is geometry-independent.
    let inside = BlockCtx::with_block_dim(63, 62, &sc, MAX_BLOCK);
    assert!(inside.i16_exact, "63×62 must sit one step inside the i16 gate");
    assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::I16), FillTier::I16);
    assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I16);

    // n + m + 2 = 128 → bound 8192: exactly at the gate — demoted.
    let at = BlockCtx::with_block_dim(63, 63, &sc, MAX_BLOCK);
    assert!(!at.i16_exact && at.simd_exact, "63×63 must demote to the i32 tier");
    assert_eq!(at.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I32);

    let r = PackedSeq::from_codes(&[0u8; 63]);
    let q = PackedSeq::from_codes(&[0u8; 62]);
    let q2 = PackedSeq::from_codes(&[0u8; 63]);
    let want = guided_align(&r, &q, &sc);
    assert_eq!(want.score, 62 * 64, "all-match task must reach the gate's score regime");
    for b in supported_backends() {
        // Inside the gate an all-match task reaches the maximum attainable
        // score; the 16-lane i16 fill must still equal the scalar fill.
        let scalar = grid_run_on::<MAX_BLOCK>(b, &r, &q, &sc, FillMode::Scalar);
        let narrow = grid_run_i16_on::<MAX_BLOCK>(b, &r, &q, &sc);
        assert_eq!(scalar, narrow, "{}: wide i16 tier at the gate boundary", b.name());
        assert!(scalar.same_alignment(&want));

        // At the gate, the demoted path is the wide i32 fill.
        let scalar2 = grid_run_on::<MAX_BLOCK>(b, &r, &q2, &sc, FillMode::Scalar);
        let demoted = grid_run_on::<MAX_BLOCK>(b, &r, &q2, &sc, FillMode::Simd);
        assert_eq!(scalar2, demoted, "{}: demoted task must run the exact i32 path", b.name());
        assert_eq!(scalar2.score, 63 * 64);
    }
}

/// The AVX-512 mask ladder at its own feature level.
///
/// # Safety
/// Requires AVX-512BW and AVX-512VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw,avx512vl")]
unsafe fn avx512_edge_masks(ctx: &BlockCtx<'_>, i0: i64, j0: i64) -> DiagMasks {
    Avx512I16::edge_masks(ctx, i0, j0)
}

#[test]
fn edge_masks_equal_lane_mask() {
    // Every `edge_masks` impl against the per-diagonal `lane_mask` it
    // replaces, as a test of its own: the vector ladder's `debug_assert` is
    // compiled out of release builds. The sweep covers the ±64 clamp regime
    // the ladder relies on — lengths at `MAX_SEQ_LEN`, origins far off the
    // main diagonal, degenerate and huge bands, the last partial block.
    let sc = Scoring::figure1();
    let big = crate::MAX_SEQ_LEN;
    let b = MAX_BLOCK as i64;
    let mut checked = 0u32;
    for (n, m) in [(40, 33), (33, 40), (big, big), (big, 17), (17, big), (big - 5, big - 3)] {
        let (last_i, last_j) = ((n as i64 - 1) / b * b, (m as i64 - 1) / b * b);
        let origins = |last: i64| [0, b, 4 * b, 5 * b, last / 2 / b * b, last - b, last];
        for w in [0, 1, 2, 3, 15, 16, 17, 63, 64, 65, 1 << 30, (n + m) as i64] {
            let mut ctx = BlockCtx::with_block_dim(n, m, &sc, MAX_BLOCK);
            ctx.w = w;
            for i0 in origins(last_i) {
                for j0 in origins(last_j) {
                    if !(0..n as i64).contains(&i0) || !(0..m as i64).contains(&j0) {
                        continue;
                    }
                    let mut want: DiagMasks = [0; MAX_BLOCK_DIAGS + 1];
                    for (d, m) in want.iter_mut().enumerate().take(MAX_BLOCK_DIAGS) {
                        *m = lane_mask(&ctx, i0, j0, d);
                    }
                    // SAFETY: the portable lanes need no CPU feature.
                    let portable =
                        unsafe { <Portable<i16> as Lanes<MAX_BLOCK>>::edge_masks(&ctx, i0, j0) };
                    assert_eq!(portable, want, "default masks, {n}×{m} w={w} block ({i0},{j0})");
                    #[cfg(target_arch = "x86_64")]
                    if has(WavefrontBackend::Avx512) {
                        // SAFETY: AVX-512BW/VL detected just above.
                        let ladder = unsafe { avx512_edge_masks(&ctx, i0, j0) };
                        assert_eq!(ladder, want, "ladder, {n}×{m} w={w} block ({i0},{j0})");
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "sweep shrank to {checked} blocks");
}
