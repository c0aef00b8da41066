//! The fill-plan matrix, in process: every registered scenario under every
//! plan an [`AgathaConfig`] can carry (fill × backend — the host tile follows
//! the backend) and every way a stream can be driven (threads × prefetch).
//! Every score equals the `guided_align` oracle, and everything
//! simulated — the device's trace is computed from the task's shape, never
//! from the host's tiles — is identical under every plan; only the host's own
//! cell count follows the tiling. The plan travels by value, so the whole
//! matrix — and two plans with different backends at the same time — runs in
//! one process with no environment, no feature and no lock.

use std::collections::BTreeMap;

use agatha_suite::align::block::{BlockCtx, FillTier};
use agatha_suite::align::guided::guided_align;
use agatha_suite::align::simd::WavefrontBackend::{Avx512, Portable, Sse41};
use agatha_suite::align::simd::{detected_backend, supported_backends, BackendChoice};
use agatha_suite::align::{GuidedResult, Scoring, Task};
use agatha_suite::core::{AgathaConfig, BatchReport, Pipeline, StreamOptions, StreamSummary};
use agatha_suite::datasets::SCENARIOS;
use agatha_suite::gpu_sim::KernelStats;

/// Longest sequence kept, cycling per task: kb-scale long reads are cut to
/// a prefix so the matrix costs seconds in a debug build. The scenario's
/// score model, alphabet and error profile are what the plans are crossed
/// with; length has its own tests. The 24 keeps one task in every six
/// shorter than two 16-wide blocks.
const MAX_LENS: [usize; 6] =
    if cfg!(miri) { [40, 24, 33, 48, 36, 44] } else { [144, 24, 96, 176, 64, 120] };

/// A small task set of one scenario: generated by its registered generator,
/// each sequence cut to its [`MAX_LENS`] slot.
fn scenario_tasks(generate: fn(u64, usize) -> Vec<Task>, count: usize) -> Vec<Task> {
    let mut tasks = generate(97, count);
    for (t, cap) in tasks.iter_mut().zip(MAX_LENS.into_iter().cycle()) {
        t.reference = t.reference.slice(0, t.ref_len().min(cap));
        t.query = t.query.slice(0, t.query_len().min(cap));
    }
    tasks
}

fn pipeline(scoring: Scoring, cfg: &AgathaConfig, threads: usize) -> Pipeline {
    let mut p = Pipeline::new(scoring, cfg.clone());
    p.host_threads = threads;
    p
}

/// {scalar} ∪ {every backend this host runs}.
fn fill_plans() -> Vec<(String, AgathaConfig)> {
    let mut plans = vec![("scalar".to_string(), AgathaConfig::agatha().with_simd_fill(false))];
    for backend in supported_backends() {
        let cfg = AgathaConfig::agatha().with_backend(BackendChoice::Fixed(backend));
        plans.push((backend.name().to_string(), cfg));
    }
    plans
}

/// The block side `cfg` resolves for each task: plans that agree here tile
/// alike on the host, so their host cell counts must agree.
fn tiling(cfg: &AgathaConfig, tasks: &[Task], scoring: &Scoring) -> Vec<usize> {
    tasks.iter().map(|t| cfg.block_dim_for(t.ref_len(), t.query_len(), scoring)).collect()
}

/// What must not depend on the plan: results, the simulated schedule, and
/// every `KernelStats` field but the host's `computed_cells`.
fn assert_same_report(a: &BatchReport, b: &BatchReport, what: &str) {
    assert_eq!(a.results, b.results, "{what}: results");
    let device = |s: &KernelStats| KernelStats { computed_cells: 0, ..s.clone() };
    assert_eq!(device(&a.stats), device(&b.stats), "{what}: kernel stats");
    assert_eq!(a.warp_cycles, b.warp_cycles, "{what}: warp latencies");
    assert_eq!(a.elapsed_ms.to_bits(), b.elapsed_ms.to_bits(), "{what}: simulated time");
}

#[test]
fn every_fill_plan_scores_every_scenario_exactly() {
    let count = if cfg!(miri) { 2 } else { 6 };
    for s in SCENARIOS {
        let scoring = (s.scoring)();
        let tasks = scenario_tasks(s.tasks, count);
        let oracle: Vec<_> =
            tasks.iter().map(|t| guided_align(&t.reference, &t.query, &scoring)).collect();
        // One report for every plan: the scalar plan, first, anchors it. The
        // host's cell count is the one thing that follows the tiling — equal
        // wherever the tasks resolved to the same block sides (backends of
        // one lane width).
        let mut first: Option<(String, BatchReport)> = None;
        let mut host_cells: BTreeMap<Vec<usize>, u64> = BTreeMap::new();
        for (name, cfg) in fill_plans() {
            let what = format!("{} under {name}", s.name);
            let report = pipeline(scoring, &cfg, 1).align_batch(&tasks);
            assert_eq!(report.results.len(), tasks.len(), "{what}");
            for ((got, want), t) in report.results.iter().zip(&oracle).zip(&tasks) {
                assert_eq!(got.score, want.score, "{what}: task {} score", t.id);
                assert!(got.same_alignment(want), "{what}: task {}: {got:?} vs {want:?}", t.id);
            }
            let cells = report.stats.computed_cells;
            let same_tiling = *host_cells.entry(tiling(&cfg, &tasks, &scoring)).or_insert(cells);
            assert_eq!(cells, same_tiling, "{what}: host cells within a tiling");
            match &first {
                Some((anchor, want)) => {
                    assert_same_report(&report, want, &format!("{what} vs {anchor}"))
                }
                None => first = Some((name, report)),
            }
        }
        // 16×16 everywhere, 8×8 on `sse41` and 32×32 on `avx512` where the
        // host has them.
        let has = |b| usize::from(supported_backends().contains(&b));
        assert_eq!(host_cells.len(), 1 + has(Sse41) + has(Avx512), "{}", s.name);
    }
}

/// Drive one stream to completion; `prefetch == 0` is the inline path.
fn stream(
    p: &Pipeline,
    tasks: Vec<Task>,
    prefetch: usize,
    opts: StreamOptions,
) -> (Vec<GuidedResult>, StreamSummary) {
    let mut engine = p.engine();
    let mut results = Vec::new();
    let summary = if prefetch > 0 {
        let source = tasks.into_iter().map(Ok::<Task, String>);
        let mut run = engine.align_stream_prefetched(source, prefetch, opts);
        for chunk in run.by_ref() {
            results.extend(chunk.report.results);
        }
        run.finish_checked().expect("an in-memory source cannot fail")
    } else {
        let mut run = engine.align_stream_with(tasks, opts);
        for chunk in run.by_ref() {
            results.extend(chunk.report.results);
        }
        run.finish()
    };
    (results, summary)
}

#[test]
fn every_stream_shape_matches_whole_batch_at_a_fixed_plan() {
    // Chunks of 5 with 8 tasks to a warp: every chunk leaves an underfull
    // trailing warp, so carry-over has something to defer. 13 tasks end on
    // a partial chunk, which flushes the carry; 15 end on a full chunk, so
    // the carry packs in a flush chunk of its own.
    let (counts, chunk) = if cfg!(miri) { ([3, 4], 2) } else { ([13, 15], 5) };
    let plans = [
        ("scalar", AgathaConfig::agatha().with_simd_fill(false)),
        ("default", AgathaConfig::agatha()),
        ("portable", AgathaConfig::agatha().with_backend(BackendChoice::Fixed(Portable))),
    ];
    for s in SCENARIOS {
        let scoring = (s.scoring)();
        for count in counts {
            let tasks = scenario_tasks(s.tasks, count);
            let oracle: Vec<i32> = tasks
                .iter()
                .map(|t| guided_align(&t.reference, &t.query, &scoring).score)
                .collect();
            for (name, cfg) in &plans {
                let whole = pipeline(scoring, cfg, 1).align_batch(&tasks);
                let scores: Vec<i32> = whole.results.iter().map(|r| r.score).collect();
                assert_eq!(scores, oracle, "{} under {name}", s.name);
                // The simulated schedule of a stream depends on how warps
                // were packed, never on who ran the kernel or who parsed:
                // one (chunks, simulated time) for every shape.
                let mut schedule: Option<(usize, u64, KernelStats)> = None;
                for threads in [1, 2] {
                    for prefetch in [0, 2, 4] {
                        let what = format!(
                            "{} ({count} tasks) under {name}: threads {threads}, prefetch {prefetch}",
                            s.name
                        );
                        let (results, summary) = stream(
                            &pipeline(scoring, cfg, threads),
                            tasks.clone(),
                            prefetch,
                            StreamOptions::new(chunk),
                        );
                        assert_eq!(results, whole.results, "{what}: results");
                        assert_eq!(summary.stats, whole.stats, "{what}: stats");
                        assert_eq!(summary.tasks, tasks.len(), "{what}");
                        let seen = (summary.chunks, summary.elapsed_ms.to_bits(), summary.stats);
                        let want = schedule.get_or_insert_with(|| seen.clone());
                        assert_eq!(&seen, want, "{what}: schedule");
                    }
                }
            }
        }
    }
}

#[test]
fn plans_with_different_backends_run_concurrently() {
    // The case a process-wide backend selector could not express: a
    // `portable` plan and a best-detected plan, both with adaptive geometry,
    // executing at the same time, each identical to its own sequential run.
    let s = SCENARIOS.iter().find(|s| s.name == "dna-short").expect("dna-short is registered");
    let scoring = (s.scoring)();
    let tasks = scenario_tasks(s.tasks, if cfg!(miri) { 2 } else { 8 });
    // `sse41` is the one backend that tiles 8×8 (its vector lanes exist at
    // B=8 only); where the host has it, it runs too.
    let mut backends = vec![Portable, detected_backend()];
    backends.extend(supported_backends().into_iter().filter(|&b| b == Sse41));
    let plans: Vec<AgathaConfig> = backends
        .iter()
        .map(|&b| AgathaConfig::agatha().with_backend(BackendChoice::Fixed(b)))
        .collect();
    let tilings: Vec<_> = plans.iter().map(|cfg| tiling(cfg, &tasks, &scoring)).collect();
    assert!(tilings[0].contains(&16), "the portable plan widens on every host");
    if let Some(narrow) = tilings.get(2) {
        // Same tasks, same moment, two geometries.
        assert!(narrow.iter().all(|&b| b == 8), "sse41 never widens: {narrow:?}");
    }
    let sequential: Vec<_> =
        plans.iter().map(|cfg| pipeline(scoring, cfg, 1).align_batch(&tasks)).collect();
    for other in &sequential[1..] {
        assert_same_report(&sequential[0], other, "portable vs another backend's plan");
    }

    let start = std::sync::Barrier::new(plans.len());
    std::thread::scope(|scope| {
        for (cfg, want) in plans.iter().zip(&sequential) {
            let (start, tasks) = (&start, &tasks);
            scope.spawn(move || {
                start.wait();
                for round in 0..if cfg!(miri) { 1 } else { 4 } {
                    let got = pipeline(scoring, cfg, 1).align_batch(tasks);
                    let what = format!("{} plan, concurrent round {round}", cfg.backend.name());
                    assert_same_report(&got, want, &what);
                }
            });
        }
    });
}

/// The host tile of each task under `cfg`, as the kernel recorded it on the
/// runs the pipeline's engine returns; every score equals `guided_align`'s.
fn host_tiles(scoring: Scoring, cfg: &AgathaConfig, tasks: &[Task], what: &str) -> Vec<u32> {
    let runs = pipeline(scoring, cfg, 1).engine().run_tasks(tasks.to_vec());
    for (run, t) in runs.iter().zip(tasks) {
        let want = guided_align(&t.reference, &t.query, &scoring);
        assert_eq!(run.result.score, want.score, "{what}: task {} score", t.id);
        assert!(run.result.same_alignment(&want), "{what}: task {}", t.id);
    }
    runs.iter().map(|r| r.block_dim).collect()
}

#[test]
fn the_host_tile_follows_the_lanes_and_the_gate() {
    let count = if cfg!(miri) { 2 } else { 6 };
    let plan = |b| AgathaConfig::agatha().with_backend(BackendChoice::Fixed(b));
    let detected = AgathaConfig::agatha();
    let sse41 = supported_backends().contains(&Sse41).then(|| plan(Sse41));
    let avx512 = supported_backends().contains(&Avx512).then(|| plan(Avx512));
    // The detected backend's lanes are 32 wide on AVX-512 and 16 wide unless
    // the host stops at SSE4.1.
    let wide = match detected_backend() {
        Avx512 => 32,
        Sse41 => 8,
        _ => 16,
    };

    // Every registered scenario, plus 16-bp pairs and a band of 8: the
    // task's shape does not pick the tile.
    let short = SCENARIOS.iter().find(|s| s.name == "dna-short").expect("dna-short is registered");
    let mut cases: Vec<(String, Scoring, Vec<Task>)> = SCENARIOS
        .iter()
        .map(|s| (s.name.to_string(), (s.scoring)(), scenario_tasks(s.tasks, count)))
        .collect();
    let mut tiny = scenario_tasks(short.tasks, count);
    for t in &mut tiny {
        t.reference = t.reference.slice(0, t.ref_len().min(16));
        t.query = t.query.slice(0, t.query_len().min(16));
    }
    cases.push(("16-bp pairs".to_string(), (short.scoring)(), tiny));
    let narrow_band = (short.scoring)().with_band(8);
    cases.push(("-w 8".to_string(), narrow_band, scenario_tasks(short.tasks, count)));
    for (what, scoring, tasks) in &cases {
        let tiles = host_tiles(*scoring, &detected, tasks, what);
        assert!(tiles.iter().all(|&b| b == wide), "{what}, detected backend: {tiles:?}");
        let tiles = host_tiles(*scoring, &plan(Portable), tasks, what);
        assert!(tiles.iter().all(|&b| b == 16), "{what}, portable: {tiles:?}");
        if let Some(sse41) = &sse41 {
            let tiles = host_tiles(*scoring, sse41, tasks, what);
            assert!(tiles.iter().all(|&b| b == 8), "{what}, sse41: {tiles:?}");
        }
        if let Some(avx512) = &avx512 {
            let tiles = host_tiles(*scoring, avx512, tasks, what);
            assert!(tiles.iter().all(|&b| b == 32), "{what}, avx512: {tiles:?}");
        }
    }

    // Match 80, gaps 4+2: inside the i16 gate at 8×8 only, so every backend
    // tiles 8×8 to keep the task on the wavefront.
    let window = Scoring::new(80, 4, 4, 2, 400, 400);
    let tasks = scenario_tasks(short.tasks, count);
    for t in &tasks {
        let ctx = |b| BlockCtx::with_block_dim(t.ref_len(), t.query_len(), &window, b);
        assert!(ctx(8).i16_exact && !ctx(16).i16_exact, "task {} is in the gate window", t.id);
    }
    for backend in supported_backends() {
        let what = format!("gate window on {}", backend.name());
        let cfg = plan(backend);
        let tiles = host_tiles(window, &cfg, &tasks, &what);
        assert!(tiles.iter().all(|&b| b == 8), "{what}: {tiles:?}");
        for t in &tasks {
            let tier = cfg.fill_tier_for(t.ref_len(), t.query_len(), &window);
            assert_eq!(tier, FillTier::I16, "{what}: task {}", t.id);
        }
    }
}
