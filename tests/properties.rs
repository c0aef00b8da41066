//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;

use agatha_suite::align::banded::banded_align;
use agatha_suite::align::block::block_grid_align;
use agatha_suite::align::guided::guided_align;
use agatha_suite::align::matrix::{full_align, score_ops, AlignOp};
use agatha_suite::align::simd::{BackendChoice, WavefrontBackend};
use agatha_suite::align::traceback::guided_align_traced;
use agatha_suite::align::{PackedSeq, ScoreModel, Scoring, Task, BLOSUM62};
use agatha_suite::core::bucketing::{build_warps, OrderingStrategy};
use agatha_suite::core::kernel::{run_task, TaskRun};
use agatha_suite::core::{AgathaConfig, Pipeline};
use agatha_suite::gpu_sim::{sched, GpuSpec};

/// `cfg` pinned to a host tile through its backend: `portable` runs 16×16,
/// `sse41` 8×8 (on a host without SSE4.1 it clamps to `portable`).
fn tiled(cfg: AgathaConfig, wide: bool) -> AgathaConfig {
    let backend = if wide { WavefrontBackend::Portable } else { WavefrontBackend::Sse41 };
    cfg.with_backend(BackendChoice::Fixed(backend))
}

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..5, 1..max_len)
}

fn scoring_strategy() -> impl Strategy<Value = Scoring> {
    (1i32..6, 1i32..8, 0i32..10, 1i32..4, 1i32..80, 1i32..40)
        .prop_map(|(a, b, q, r, z, w)| Scoring::new(a, b, q, r, z, w))
}

/// Protein residue codes over the full BLOSUM62 alphabet (including the
/// ambiguous/pad residue `X` = 20).
fn protein(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..21, 1..max_len)
}

/// DNA with injected runs of the ambiguous base `N`: a base sequence plus
/// up to three (position, length) runs overwritten with code 4. Ambiguity
/// takes three different shapes across the fill tiers — the scalar fill
/// reads `S(N, ·)` per cell, the fixed-model SIMD kernels blend a splatted
/// `-ambig` penalty behind a comparison mask, and the i16 kernel does so in
/// half-width lanes — so N runs are exactly where a masking bug would
/// diverge them.
fn dna_with_n_runs(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    (dna(max_len), proptest::collection::vec((0usize..1usize << 16, 1usize..24), 1..4)).prop_map(
        |(mut seq, runs)| {
            for (pos, len) in runs {
                let start = pos % seq.len();
                let end = (start + len).min(seq.len());
                for c in &mut seq[start..end] {
                    *c = 4;
                }
            }
            seq
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 4-bit packing is lossless.
    #[test]
    fn packing_roundtrip(codes in dna(400)) {
        let p = PackedSeq::from_codes(&codes);
        prop_assert_eq!(p.to_codes(), codes);
    }

    /// The guided reference with banding/termination disabled equals the
    /// full-table DP.
    #[test]
    fn unguided_equals_full_table(r in dna(80), q in dna(80)) {
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let g = guided_align(&rp, &qp, &s);
        let f = full_align(&rp, &qp, &s);
        prop_assert_eq!(g.score, f.score);
        prop_assert_eq!((g.max.i, g.max.j), (f.max.i, f.max.j));
    }

    /// Row-major banded filling equals anti-diagonal filling.
    #[test]
    fn banded_row_major_equals_antidiagonal(r in dna(120), q in dna(120), w in 1i32..24) {
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, w);
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let a = guided_align(&rp, &qp, &s);
        let b = banded_align(&rp, &qp, &s);
        prop_assert!(a.same_alignment(&b), "a={a:?} b={b:?}");
    }

    /// The block-grid driver is exact for arbitrary scoring.
    #[test]
    fn block_grid_exact(r in dna(150), q in dna(150), s in scoring_strategy()) {
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let want = guided_align(&rp, &qp, &s);
        let got = block_grid_align(&rp, &qp, &s);
        prop_assert!(got.same_alignment(&want), "got={got:?} want={want:?}");
    }

    /// The AGAThA kernel is exact for arbitrary scoring and slice widths.
    #[test]
    fn kernel_exact(
        r in dna(150),
        q in dna(150),
        s in scoring_strategy(),
        slice in 1usize..20,
        subwarp_pow in 0u32..3,
    ) {
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let want = guided_align(&rp, &qp, &s);
        let task = Task { id: 0, reference: rp, query: qp };
        let cfg = AgathaConfig::agatha()
            .with_slice_width(slice)
            .with_subwarp(8 << subwarp_pow);
        let got = run_task(&task, &s, &cfg);
        prop_assert!(got.result.same_alignment(&want), "got={:?} want={want:?}", got.result);
        // Run-ahead never loses reference cells; the slack is one block of
        // whichever geometry the task resolved to.
        let b = u64::from(got.block_dim);
        prop_assert!(got.computed_cells() + b * b >= want.cells);
    }

    /// The SIMD (wavefront) and scalar block fills are bit-identical: same
    /// `GuidedResult`s, same unit schedules, same block counts — over random
    /// tasks × {banded, unbanded} × {z-drop on, off} × tilings (sliced
    /// diagonal widths and horizontal subwarp chunks).
    #[test]
    fn simd_scalar_bit_identity(
        r in dna(150),
        q in dna(150),
        s in scoring_strategy(),
        banded in proptest::bool::ANY,
        zdrop_on in proptest::bool::ANY,
        slice in 1usize..20,
        horizontal in proptest::bool::ANY,
        wide in proptest::bool::ANY,
    ) {
        let s = if banded { s } else { s.with_band(Scoring::NO_BAND) };
        let s = if zdrop_on { s } else { s.with_zdrop(Scoring::NO_ZDROP) };
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let task = Task { id: 0, reference: rp, query: qp };
        let cfg = if horizontal {
            AgathaConfig::baseline()
        } else {
            AgathaConfig::agatha().with_slice_width(slice)
        };
        // Both tiles, through the backend that runs each.
        let cfg = tiled(cfg, wide);
        let scalar = run_task(&task, &s, &cfg.clone().with_simd_fill(false));
        let simd = run_task(&task, &s, &cfg.with_simd_fill(true));
        prop_assert_eq!(scalar, simd);
    }

    /// The two fill tiers — i16 wavefront, scalar — are bit-identical: full
    /// `TaskRun` equality (results, unit schedules, block counts) over
    /// random tasks × bands × z-drop × tilings. The `boost` factor scales the
    /// match score up to 4096×, pushing a share of cases past the i16
    /// exactness gate so the demotion to scalar is exercised by the same
    /// equality.
    #[test]
    fn i16_i32_scalar_bit_identity(
        r in dna(150),
        q in dna(150),
        s in scoring_strategy(),
        boost in 0usize..3,
        banded in proptest::bool::ANY,
        zdrop_on in proptest::bool::ANY,
        slice in 1usize..20,
        horizontal in proptest::bool::ANY,
        wide in proptest::bool::ANY,
    ) {
        let mut s = s;
        if let ScoreModel::Fixed { ref mut match_score, .. } = s.model {
            *match_score *= [1, 64, 4096][boost];
        }
        let s = if banded { s } else { s.with_band(Scoring::NO_BAND) };
        let s = if zdrop_on { s } else { s.with_zdrop(Scoring::NO_ZDROP) };
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let task = Task { id: 0, reference: rp, query: qp };
        let cfg = if horizontal {
            AgathaConfig::baseline()
        } else {
            AgathaConfig::agatha().with_slice_width(slice)
        };
        // Both tiles, as in `simd_scalar_bit_identity`.
        let cfg = tiled(cfg, wide);
        let scalar = run_task(&task, &s, &cfg.clone().with_simd_fill(false));
        let narrow = run_task(&task, &s, &cfg.with_simd_fill(true));
        prop_assert_eq!(&scalar, &narrow);
    }

    /// Block geometry is a pure tiling choice. At each tile (pinned through
    /// the backend) every fill tier — i16 wavefront, scalar — stays fully
    /// bit-identical (whole `TaskRun` equality), over random tasks ×
    /// bands × z-drop × tilings. Across the two geometries the host's own
    /// block counts legitimately differ (they describe the host tiling), but
    /// neither the alignment result nor the device's trace may move.
    #[test]
    fn geometry_sweep_bit_identity(
        r in dna(150),
        q in dna(150),
        s in scoring_strategy(),
        banded in proptest::bool::ANY,
        zdrop_on in proptest::bool::ANY,
        slice in 1usize..20,
        horizontal in proptest::bool::ANY,
    ) {
        let s = if banded { s } else { s.with_band(Scoring::NO_BAND) };
        let s = if zdrop_on { s } else { s.with_zdrop(Scoring::NO_ZDROP) };
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let task = Task { id: 0, reference: rp, query: qp };
        let base = if horizontal {
            AgathaConfig::baseline()
        } else {
            AgathaConfig::agatha().with_slice_width(slice)
        };
        let mut per_geometry = Vec::new();
        for wide in [false, true] {
            let cfg = tiled(base.clone(), wide);
            let scalar = run_task(&task, &s, &cfg.clone().with_simd_fill(false));
            let i16_run = run_task(&task, &s, &cfg.with_simd_fill(true));
            prop_assert_eq!(&scalar, &i16_run);
            per_geometry.push(scalar);
        }
        prop_assert_eq!(&per_geometry[0].result, &per_geometry[1].result);
        prop_assert_eq!(&per_geometry[0].units, &per_geometry[1].units);
    }

    /// The wavefront backend is a pure implementation choice: forcing every
    /// backend this machine supports (AVX-512 down to portable) must leave
    /// the whole `TaskRun` — results, unit schedules, block counts —
    /// bit-identical across backends of one tile × both fill tiers, and the
    /// result and unit schedule across tiles (`sse41` runs 8×8), over random
    /// tasks × bands × z-drop × tilings. The `boost`
    /// factor pushes a share of cases past the i16 exactness gate so the
    /// demotion to scalar is swept per backend too.
    #[test]
    fn backend_sweep_bit_identity(
        r in dna(150),
        q in dna(150),
        s in scoring_strategy(),
        boost in 0usize..3,
        banded in proptest::bool::ANY,
        zdrop_on in proptest::bool::ANY,
        slice in 1usize..20,
        horizontal in proptest::bool::ANY,
    ) {
        use agatha_suite::align::simd;
        let mut s = s;
        if let ScoreModel::Fixed { ref mut match_score, .. } = s.model {
            *match_score *= [1, 64, 4096][boost];
        }
        let s = if banded { s } else { s.with_band(Scoring::NO_BAND) };
        let s = if zdrop_on { s } else { s.with_zdrop(Scoring::NO_ZDROP) };
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let task = Task { id: 0, reference: rp, query: qp };
        let base = if horizontal {
            AgathaConfig::baseline()
        } else {
            AgathaConfig::agatha().with_slice_width(slice)
        };
        // The first run of each tile: whole-run equality across backends is
        // only defined at one tiling.
        let mut per_tile: Vec<TaskRun> = Vec::new();
        for backend in simd::supported_backends() {
            let cfg = base.clone().with_backend(BackendChoice::Fixed(backend));
            let scalar = run_task(&task, &s, &cfg.clone().with_simd_fill(false));
            let i16_run = run_task(&task, &s, &cfg.with_simd_fill(true));
            prop_assert_eq!(&scalar, &i16_run);
            match per_tile.iter().find(|r| r.block_dim == scalar.block_dim) {
                Some(want) => prop_assert_eq!(want, &scalar),
                None => per_tile.push(scalar),
            }
        }
        for other in &per_tile[1..] {
            prop_assert_eq!(&per_tile[0].result, &other.result);
            prop_assert_eq!(&per_tile[0].units, &other.units);
        }
    }

    /// `geometry_sweep_bit_identity` under the substitution-matrix score
    /// model: random protein tasks (full BLOSUM62 alphabet including the
    /// pad residue X) through every fill tier × both block geometries, with
    /// full `TaskRun` equality at each tile. This is the gate
    /// re-derivation's proof obligation for matrix models: the i16
    /// exactness gate uses the matrix's declared ±bounds, and the SIMD
    /// matrix-lookup path (with and without the query profile) must be
    /// bit-identical to the scalar `S(x, y)` reads.
    #[test]
    fn matrix_geometry_sweep_bit_identity(
        r in protein(150),
        q in protein(150),
        banded in proptest::bool::ANY,
        zdrop_on in proptest::bool::ANY,
        slice in 1usize..20,
        horizontal in proptest::bool::ANY,
    ) {
        let s = Scoring::preset_blosum62();
        let s = if banded { s } else { s.with_band(Scoring::NO_BAND) };
        let s = if zdrop_on { s } else { s.with_zdrop(Scoring::NO_ZDROP) };
        let rp = PackedSeq::from_protein_codes(&r, &BLOSUM62);
        let qp = PackedSeq::from_protein_codes(&q, &BLOSUM62);
        let want = guided_align(&rp, &qp, &s);
        let task = Task { id: 0, reference: rp, query: qp };
        let base = if horizontal {
            AgathaConfig::baseline()
        } else {
            AgathaConfig::agatha().with_slice_width(slice)
        };
        let mut per_geometry = Vec::new();
        for wide in [false, true] {
            let cfg = tiled(base.clone(), wide);
            let scalar = run_task(&task, &s, &cfg.clone().with_simd_fill(false));
            let i16_run = run_task(&task, &s, &cfg.with_simd_fill(true));
            prop_assert_eq!(&scalar, &i16_run);
            per_geometry.push(scalar);
        }
        prop_assert_eq!(&per_geometry[0].result, &per_geometry[1].result);
        prop_assert!(per_geometry[0].result.same_alignment(&want),
            "kernel={:?} want={want:?}", per_geometry[0].result);
    }

    /// Ambiguous-base (`N`) scoring is bit-identical across both fill tiers:
    /// sequences with injected N runs through the scalar and i16 wavefront
    /// fills at both geometries, full `TaskRun` equality.
    /// The ambiguity penalty is varied (including 0) because the SIMD
    /// kernels apply it by blending a splatted constant where the scalar
    /// fill reads the score function directly.
    #[test]
    fn ambiguous_base_tiers_bit_identity(
        r in dna_with_n_runs(150),
        q in dna_with_n_runs(150),
        s in scoring_strategy(),
        ambig in 0i32..3,
        banded in proptest::bool::ANY,
        zdrop_on in proptest::bool::ANY,
        wide in proptest::bool::ANY,
    ) {
        let mut s = s;
        if let ScoreModel::Fixed { ambig: ref mut a, .. } = s.model {
            *a = ambig;
        }
        let s = if banded { s } else { s.with_band(Scoring::NO_BAND) };
        let s = if zdrop_on { s } else { s.with_zdrop(Scoring::NO_ZDROP) };
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let task = Task { id: 0, reference: rp, query: qp };
        let cfg = tiled(AgathaConfig::agatha(), wide);
        let scalar = run_task(&task, &s, &cfg.clone().with_simd_fill(false));
        let i16_run = run_task(&task, &s, &cfg.with_simd_fill(true));
        prop_assert_eq!(&scalar, &i16_run);
    }

    /// The traced path is the reference loop plus a walk: on DNA and
    /// BLOSUM62 pairs (empty sides, Z-drops and exhausted bands included)
    /// its result equals `guided_align` in full, its ops re-score to that
    /// score and run from the origin to the maximum cell, and a diagonal
    /// move is a match iff its two codes are equal and not the pad code.
    #[test]
    fn traced_is_the_reference_plus_a_walk(
        r in proptest::collection::vec(0u8..21, 0..160),
        noise in proptest::collection::vec(0u8..21, 0..160),
        related in proptest::bool::ANY,
        protein_pair in proptest::bool::ANY,
        s in scoring_strategy(),
        banded in proptest::bool::ANY,
    ) {
        // A related query is the reference with a substitution wherever the
        // noise hits a multiple of 7 and a deletion a third of the way in,
        // so long alignments (and their Z-drops) occur too.
        let mut q: Vec<u8> = if related {
            r.iter().zip(noise.iter().cycle()).map(|(&a, &b)| if b % 7 == 0 { b } else { a }).collect()
        } else {
            noise
        };
        if related && q.len() > 8 {
            let at = q.len() / 3;
            q.drain(at..at + (r.len() % 5));
        }
        let (s, rp, qp) = if protein_pair {
            let s = Scoring::preset_blosum62().with_zdrop(s.zdrop * 4).with_band(s.band_width);
            let pack = |codes: &[u8]| PackedSeq::from_protein_codes(codes, &BLOSUM62);
            (s, pack(&r), pack(&q))
        } else {
            let pack = |codes: &[u8]| PackedSeq::from_codes(&codes.iter().map(|c| c % 5).collect::<Vec<_>>());
            (s, pack(&r), pack(&q))
        };
        let s = if banded { s } else { s.with_band(Scoring::NO_BAND) };
        let traced = guided_align_traced(&rp, &qp, &s);
        prop_assert_eq!(&traced.result, &guided_align(&rp, &qp, &s));
        prop_assert_eq!(score_ops(&traced.ops, &rp, &qp, &s), traced.result.score);
        if traced.result.score == 0 {
            prop_assert!(traced.ops.is_empty());
        }
        let (mut i, mut j) = (0usize, 0usize);
        for op in &traced.ops {
            match op {
                AlignOp::Match | AlignOp::Mismatch => {
                    let (a, b) = (rp.code(i), qp.code(j));
                    prop_assert_eq!(*op == AlignOp::Match, a == b && a != rp.pad());
                    i += 1;
                    j += 1;
                }
                AlignOp::Delete => i += 1,
                AlignOp::Insert => j += 1,
            }
        }
        let max = traced.result.max;
        prop_assert_eq!((i as i64, j as i64), (max.i as i64 + 1, max.j as i64 + 1));
    }

    /// The guided score is monotone in the band width (a wider band can
    /// only see more alignments) when termination is disabled.
    #[test]
    fn band_monotonicity(r in dna(100), q in dna(100), w in 1i32..16) {
        let s1 = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, w);
        let s2 = s1.with_band(w * 2);
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let narrow = guided_align(&rp, &qp, &s1);
        let wide = guided_align(&rp, &qp, &s2);
        prop_assert!(wide.score >= narrow.score);
    }

    /// Every bucketing strategy is a permutation: each task assigned
    /// exactly once.
    #[test]
    fn bucketing_partitions(
        workloads in proptest::collection::vec(1u64..10_000, 1..200),
        n_pow in 0u32..3,
        g in 1usize..4,
    ) {
        let n = 1usize << n_pow;
        for strat in [
            OrderingStrategy::Original,
            OrderingStrategy::Sorted,
            OrderingStrategy::UnevenBucketing,
        ] {
            let warps = build_warps(&workloads, n, g, strat);
            let mut seen = vec![false; workloads.len()];
            for w in &warps {
                for i in w.task_indices() {
                    prop_assert!(!seen[i], "{strat:?}: task {i} twice");
                    seen[i] = true;
                }
            }
            prop_assert!(seen.iter().all(|&x| x), "{strat:?}: unassigned task");
        }
    }

    /// List-scheduling makespan respects the classic bounds — Graham's
    /// `Σ/slots + (1 − 1/slots)·max` above — never falls when a warp is
    /// appended, and folds incrementally: a [`sched::SlotSchedule`] fed the
    /// latencies in arbitrary pieces reports what [`sched::schedule`] does
    /// on their concatenation.
    #[test]
    fn makespan_bounds(
        lats in proptest::collection::vec(0.0f64..1e6, 1..200),
        slots in 1usize..64,
        extra in 0.0f64..1e6,
        cuts in proptest::collection::vec(0usize..200, 0..6),
    ) {
        let m = sched::makespan_cycles(&lats, slots);
        let total: f64 = lats.iter().sum();
        let max = lats.iter().copied().fold(0.0, f64::max);
        prop_assert!(m <= total + 1e-6);
        prop_assert!(m >= max - 1e-6);
        prop_assert!(m >= total / slots as f64 - 1e-6);
        let graham = total / slots as f64 + (1.0 - 1.0 / slots as f64) * max;
        prop_assert!(m <= graham * (1.0 + 1e-12) + 1e-6, "{m} above Graham's {graham}");
        let appended: Vec<f64> = lats.iter().copied().chain([extra]).collect();
        prop_assert!(sched::makespan_cycles(&appended, slots) >= m);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (lats.len() + 1)).collect();
        cuts.sort_unstable();
        let mut folded = sched::SlotSchedule::new(slots);
        let mut from = 0;
        for to in cuts.into_iter().chain([lats.len()]) {
            folded.extend(&lats[from..to]);
            from = to;
        }
        prop_assert_eq!(folded.report(), sched::schedule(&lats, slots));
    }

    /// A DPX device never simulates a batch slower than the same device
    /// with DPX cleared: every unit's cell cost falls, nothing else moves.
    #[test]
    fn dpx_never_simulates_slower(
        pairs in proptest::collection::vec((dna(240), dna(240)), 1..40),
        s in scoring_strategy(),
    ) {
        let tasks: Vec<Task> = pairs
            .iter()
            .zip(0..)
            .map(|((r, q), id)| Task {
                id,
                reference: PackedSeq::from_codes(r),
                query: PackedSeq::from_codes(q),
            })
            .collect();
        let mut dpx = Pipeline::new(s, AgathaConfig::agatha()).with_spec(GpuSpec::hopper_like());
        dpx.host_threads = 1;
        prop_assert!(dpx.cost.use_dpx, "the spec declares DPX");
        let mut cleared = dpx.clone();
        cleared.cost.use_dpx = false;
        let (fast, slow) = (dpx.align_batch(&tasks), cleared.align_batch(&tasks));
        prop_assert!(fast.elapsed_ms <= slow.elapsed_ms, "{} vs {}", fast.elapsed_ms, slow.elapsed_ms);
    }

    /// Z-drop can only ever reduce computed work, never change the scores'
    /// validity: the terminated score equals the untermiated score whenever
    /// no termination fired.
    #[test]
    fn zdrop_consistency(r in dna(100), q in dna(100), z in 1i32..200) {
        let with = Scoring::new(2, 4, 4, 2, z, 24);
        let without = with.with_zdrop(Scoring::NO_ZDROP);
        let (rp, qp) = (PackedSeq::from_codes(&r), PackedSeq::from_codes(&q));
        let a = guided_align(&rp, &qp, &with);
        let b = guided_align(&rp, &qp, &without);
        prop_assert!(a.cells <= b.cells);
        if !a.stop.z_dropped() {
            prop_assert_eq!(a.score, b.score);
        } else {
            prop_assert!(a.score <= b.score);
        }
    }
}

proptest! {
    // kb-scale tasks × every backend (both tiles) × two tiers: a few seconds
    // per case in a debug build, so fewer cases than the block above.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The block-rebased i16 tier on tasks the old absolute-score gate
    /// (`step × (n+m+2) < 2^13`) could never admit: `n + m` up to ~6,000,
    /// shaped to push `H` out of the i16 range in both directions — an
    /// identical pair climbs past 32,767 mid-block under the `hot` model, a
    /// junk tail (disjoint alphabets after a matching quarter) falls below
    /// −32,768 — under the CLR fixed model, a fixed model with 6× the
    /// penalties, and BLOSUM62, over bands from the bare main diagonal
    /// through the lane counts to 200. Per backend (`sse41` tiles 8×8, the
    /// others 16×16): full `TaskRun` equality between the i16 tier and the
    /// scalar fill;
    /// the result equals the scalar `guided_align`, and for BLOSUM62 also the
    /// i16 block grid without a query profile.
    #[test]
    fn rebased_i16_long_task_bit_identity(
        seq in proptest::collection::vec(0u8..4, 300..3000),
        shape in 0usize..3,
        model in 0usize..3,
        band in 0usize..6,
        zdrop_on in proptest::bool::ANY,
    ) {
        use agatha_suite::align::block::{BlockCtx, FillTier};
        use agatha_suite::align::simd;
        use agatha_suite::align::sweep::grid_align;
        let s = match model {
            0 => Scoring::preset_clr(),
            1 => Scoring::new(12, 24, 24, 12, 400, 0),
            _ => Scoring::preset_blosum62(),
        };
        let s = s.with_band([0, 1, 15, 16, 17, 200][band]);
        let s = if zdrop_on { s } else { s.with_zdrop(Scoring::NO_ZDROP) };
        // Reference/query codes from one base stream; for BLOSUM62 each base
        // spreads over a residue class so both halves of the alphabet occur.
        let protein = matches!(s.model, ScoreModel::Matrix(_));
        let quarter = seq.len() / 4;
        let (mut r, mut q) = (Vec::new(), Vec::new());
        for (k, &c) in seq.iter().enumerate() {
            let (rc, qc) = match shape {
                // A realistic read: a substitution every 37th base, a
                // deletion every 211th.
                0 if k % 211 == 210 => (Some(c), None),
                0 if k % 37 == 36 => (Some(c), Some((c + 1) % 4)),
                // A junk tail: disjoint alphabets, so every cell mismatches.
                2 if k >= quarter => (Some(c % 2), Some(2 + c % 2)),
                _ => (Some(c), Some(c)),
            };
            let spread = |c: u8| if protein { c * 5 + (k % 5) as u8 } else { c };
            r.extend(rc.map(spread));
            q.extend(qc.map(spread));
        }
        let pack = |codes: &[u8]| if protein {
            PackedSeq::from_protein_codes(codes, &BLOSUM62)
        } else {
            PackedSeq::from_codes(codes)
        };
        let task = Task { id: 0, reference: pack(&r), query: pack(&q) };
        let want = guided_align(&task.reference, &task.query, &s);
        if protein {
            // The kernel always attaches a query profile to matrix models, so
            // the shared sweep over a bare ctx is the only way to reach the
            // direct-lookup arm on a whole task.
            let ctx = |b| BlockCtx::with_block_dim(task.ref_len(), task.query_len(), &s, b);
            let (r, q) = (&task.reference, &task.query);
            let narrow = grid_align::<8>(ctx(8), FillTier::I16, r, q);
            let wide = grid_align::<16>(ctx(16), FillTier::I16, r, q);
            prop_assert!(narrow.same_alignment(&want), "no profile, B=8: {narrow:?} vs {want:?}");
            prop_assert_eq!(&narrow, &wide);
        }
        for backend in simd::supported_backends() {
            let i16_cfg = AgathaConfig::agatha().with_backend(BackendChoice::Fixed(backend));
            prop_assert_eq!(
                i16_cfg.fill_tier_for(task.ref_len(), task.query_len(), &s),
                FillTier::I16
            );
            let run = run_task(&task, &s, &i16_cfg.clone().with_simd_fill(false));
            let i16_run = run_task(&task, &s, &i16_cfg);
            prop_assert!(
                run == i16_run,
                "i16 tier diverged on {}: {:?} vs {:?}",
                backend.name(),
                i16_run.result,
                run.result
            );
            prop_assert!(run.result.same_alignment(&want),
                "{} (B={}): {:?} vs {want:?}", backend.name(), run.block_dim, run.result);
            prop_assert_eq!(run.result.cells, want.cells);
        }
    }
}
