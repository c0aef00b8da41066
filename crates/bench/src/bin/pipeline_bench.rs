//! Host-throughput harness for the batch pipeline: measures real wall-time
//! tasks/sec of (a) the whole-batch path, (b) the chunked streaming engine,
//! (c) single-threaded kernel execution with fresh vs reused workspaces,
//! (d) the SIMD (wavefront) vs scalar block fill on the same fixed-seed
//! dataset, (e) the i16 vs i32 wavefront tiers on a fixed-seed short-read
//! workload (the regime whose scores provably fit i16), and (f) the narrow
//! (8×8) vs wide (16×16) block geometry — forced and adaptive — on that
//! same workload, plus (g) the streaming overlap rows: FASTA-file
//! streaming with the parser inline vs on a prefetch reader thread
//! (`stream_prefetch_speedup`) and the simulated-makespan effect of
//! cross-chunk carry-over packing (`carryover_makespan_gain`), both per
//! chunk size {8, 32, 64, 256}. Writes `BENCH_pipeline.json` so CI tracks
//! the perf trajectory run over run.
//!
//! Every fill path is always compiled (the `simd` cargo feature only flips
//! the *default*), so one binary reports the whole scalar/i32/i16 matrix
//! regardless of how it was built; `default_fill` records which mode the
//! build would pick on its own, `default_precision` the process-default
//! precision (the `AGATHA_PRECISION` override), and `fill_backend` which
//! wavefront backend (AVX-512, AVX2, SSE4.1 or portable) this machine
//! resolves — without it, per-tier rows from different machines were not
//! comparable. A forced-backend pair on the wide-geometry i16 workload
//! reports the AVX-512 zmm fill against the AVX2 ymm fill head to head
//! (`avx512_fill_speedup`); on hosts without AVX-512 the force clamps, and
//! `avx512_resolved_backend` records what actually ran so the row is never
//! silently mislabelled.
//!
//! A `"scenarios"` array carries one row per registered workload scenario
//! (tasks/sec at the default config, the i16-gate share, and the declared
//! gate check) — the rows iterate the `agatha-datasets` registry, so a
//! newly declared scenario gets benched with no edit here. With
//! `AGATHA_SCENARIO` set, only that scenario's row runs and the heavy
//! sections are skipped (the CI scenario matrix's smoke mode).
//!
//! Run with `cargo run --release -p agatha-bench --bin pipeline_bench`.

use std::time::Instant;

use agatha_align::{BlockDim, FillPrecision, FillTier, Scoring, Task};
use agatha_core::{
    kernel::run_task, run_task_ws, AgathaConfig, KernelWorkspace, Pipeline, StreamOptions,
};
use agatha_datasets::{generate, scenarios, DatasetSpec, Tech, SCENARIOS};

const SEED: u64 = 1234;
const READS: usize = 1200;
const CHUNK: usize = 128;
const REPS: usize = 3;
/// Per-scenario row size: enough tasks to time the kernel meaningfully,
/// small enough that the long-read scenarios stay cheap in smoke mode.
const SCENARIO_READS: usize = 48;

/// One JSON row per scenario in `which`: fixed-seed tasks through the
/// default AGAThA config with a reused workspace, plus the share of tasks
/// the i16 exactness gate admits and the registry's declared-gate check.
fn scenario_rows(which: &[&'static scenarios::Scenario]) -> String {
    let cfg = AgathaConfig::agatha();
    let rows: Vec<String> = which
        .iter()
        .map(|s| {
            assert!(s.check_gate(), "{}: registered gate diverges from the derived gate", s.name);
            let sc = (s.scoring)();
            let tasks = (s.tasks)(SEED, SCENARIO_READS);
            // Share of tasks the i16 exactness gate admits, from the gate
            // derivation itself (the build's default fill mode would hide
            // it behind feature flags).
            let i16_tasks = tasks
                .iter()
                .filter(|t| {
                    agatha_align::block::BlockCtx::with_block_dim(
                        t.ref_len(),
                        t.query_len(),
                        &sc,
                        agatha_align::BLOCK,
                    )
                    .i16_exact
                })
                .count();
            let mut ws = KernelWorkspace::new();
            let (secs, sum) = best_of(|| {
                tasks
                    .iter()
                    .map(|t| run_task_ws(&mut ws, t, &sc, &cfg).result.score.unsigned_abs() as u64)
                    .sum()
            });
            format!(
                "    {{\"name\": \"{}\", \"model\": \"{}\", \"tasks\": {}, \
                 \"tasks_per_sec\": {:.1}, \"i16_share\": {:.3}, \"gate_ok\": true, \
                 \"score_checksum\": {sum}}}",
                s.name,
                sc.model.name(),
                tasks.len(),
                tasks.len() as f64 / secs,
                i16_tasks as f64 / tasks.len() as f64,
            )
        })
        .collect();
    format!("  \"scenarios\": [\n{}\n  ]", rows.join(",\n"))
}

/// Best-of-`REPS` wall time, in seconds, of `f`.
fn best_of<F: FnMut() -> u64>(mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0;
    for _ in 0..REPS {
        let t0 = Instant::now();
        checksum = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, checksum)
}

fn main() {
    // Smoke mode (the CI scenario matrix): AGATHA_SCENARIO selects one
    // registered scenario; bench only its row and skip the heavy sections.
    if let Some(name) = agatha_core::options::default_scenario() {
        let s = scenarios::find(name).unwrap_or_else(|| {
            let known: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
            panic!("AGATHA_SCENARIO: unknown scenario '{name}' (registered: {})", known.join(", "))
        });
        let json = format!(
            "{{\n  \"bench\": \"pipeline-scenario\",\n  \"seed\": {SEED},\n{}\n}}\n",
            scenario_rows(&[s])
        );
        std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
        print!("{json}");
        return;
    }

    let ds = generate(&DatasetSpec {
        name: "pipeline bench".to_string(),
        tech: Tech::Clr,
        seed: SEED,
        reads: READS,
    });
    let tasks = ds.tasks;
    let pipeline = Pipeline::new(ds.scoring, AgathaConfig::agatha());

    let (whole_s, whole_sum) = best_of(|| {
        let rep = pipeline.align_batch(&tasks);
        rep.results.iter().map(|r| r.score.unsigned_abs() as u64).sum()
    });

    let mut engine = pipeline.engine();
    let (stream_s, stream_sum) = best_of(|| {
        let mut sum = 0u64;
        // Carry-over off, so each chunk packs alone as whole-batch would.
        let opts = StreamOptions::new(CHUNK).carry_over(false);
        let mut run = engine.align_stream_with(tasks.iter().cloned(), opts);
        for chunk in run.by_ref() {
            sum += chunk.report.results.iter().map(|r| r.score.unsigned_abs() as u64).sum::<u64>();
        }
        run.finish();
        sum
    });
    assert_eq!(whole_sum, stream_sum, "streaming must score identically to whole-batch");

    // Kernel-only, single thread: isolates the workspace-reuse effect from
    // threading and simulation. Seed-sized microtasks (8–20 bp, the k-mer
    // hit verification regime), where per-call allocation is a meaningful
    // fraction of the kernel time; for longer tasks the O(n²) cell compute
    // dominates and the reuse gain tends to zero (Amdahl).
    let kernel_tasks: Vec<agatha_align::Task> = (0..20000u64)
        .map(|i| {
            let mut x = SEED.wrapping_add(i * 2654435761) | 1;
            let len = 8 + (i as usize % 13);
            let mut r = String::new();
            let mut q = String::new();
            for k in 0..len {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
                r.push(c);
                q.push(if k % 23 == 0 { 'T' } else { c });
            }
            agatha_align::Task::from_strs(i as u32, &r, &q)
        })
        .collect();
    let kernel_tasks = &kernel_tasks[..];
    let (fresh_s, fresh_sum) = best_of(|| {
        kernel_tasks.iter().map(|t| run_task(t, &pipeline.scoring, &pipeline.config).blocks).sum()
    });
    let mut ws = KernelWorkspace::new();
    let (reused_s, reused_sum) = best_of(|| {
        kernel_tasks
            .iter()
            .map(|t| run_task_ws(&mut ws, t, &pipeline.scoring, &pipeline.config).blocks)
            .sum()
    });
    assert_eq!(fresh_sum, reused_sum, "workspace reuse must not change the work done");

    // SIMD vs scalar block fill, single thread over the CLR dataset (reads
    // long enough that per-cell compute — not allocation — dominates, the
    // regime the wavefront fill targets). Both runs use one reused
    // workspace so the comparison isolates the fill, and both pin the
    // paper's 8×8 geometry: the adaptive dispatch would widen only the
    // simd side, folding a tiling change into a fill comparison (and
    // breaking the block-count checksum).
    let mut fill_secs = [0.0f64; 2];
    let mut fill_sums = [0u64; 2];
    for (slot, simd) in [(0usize, false), (1usize, true)] {
        let cfg = pipeline.config.clone().with_simd_fill(simd).with_block_dim(BlockDim::B8);
        let mut ws = KernelWorkspace::new();
        let (secs, sum) = best_of(|| {
            tasks.iter().map(|t| run_task_ws(&mut ws, t, &pipeline.scoring, &cfg).blocks).sum()
        });
        fill_secs[slot] = secs;
        fill_sums[slot] = sum;
    }
    assert_eq!(fill_sums[0], fill_sums[1], "simd fill must execute identical work");

    // i16 vs i32 wavefront tier and narrow vs wide block geometry, single
    // thread over a fixed-seed *short-read* workload: ~240 bp reads under a
    // BWA-style preset, the regime where every task passes the i16
    // exactness gate (at both geometries). Same reused-workspace
    // methodology as the simd/scalar pair above. The i32/i16 slots pin the
    // paper's 8×8 geometry so their rows stay comparable to the tracked
    // history; the b16 slot forces the wide 16×16 tile (16 i16 lanes per
    // block diagonal instead of 8) and the auto slot lets the per-task
    // dispatch choose. Checksums sum *scores*, not blocks (block counts are
    // tiling artifacts), so their equality asserts geometry bit-identity.
    let short_scoring = Scoring::preset_bwa();
    let short_tasks: Vec<Task> = (0..1500u64)
        .map(|i| {
            let mut x = SEED.wrapping_add(i.wrapping_mul(0x9E3779B97F4A7C15)) | 1;
            let len = 180 + (i as usize % 120);
            let mut r = String::new();
            let mut q = String::new();
            for k in 0..len {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
                r.push(c);
                q.push(if k % 17 == 0 { ['T', 'G', 'C', 'A'][(x >> 35) as usize % 4] } else { c });
            }
            Task::from_strs(i as u32, &r, &q)
        })
        .collect();
    let tier_cases: [(FillPrecision, BlockDim, Option<FillTier>); 4] = [
        (FillPrecision::I32, BlockDim::B8, Some(FillTier::I32)),
        (FillPrecision::I16, BlockDim::B8, Some(FillTier::I16)),
        (FillPrecision::I16, BlockDim::B16, Some(FillTier::I16)),
        (FillPrecision::I16, BlockDim::Auto, None),
    ];
    let mut tier_secs = [0.0f64; 4];
    let mut tier_sums = [0u64; 4];
    for (slot, &(precision, block, want)) in tier_cases.iter().enumerate() {
        let cfg = pipeline
            .config
            .clone()
            .with_simd_fill(true)
            .with_fill_precision(precision)
            .with_block_dim(block);
        // Every short-read task must actually resolve to the requested tier
        // or the speedup rows would silently compare the wrong kernels.
        if let Some(want) = want {
            for t in &short_tasks {
                assert_eq!(
                    cfg.fill_tier_for(t.ref_len(), t.query_len(), &short_scoring),
                    want,
                    "short-read workload must stay inside the {} gate at block {}",
                    want.name(),
                    block.name()
                );
            }
        }
        let mut ws = KernelWorkspace::new();
        let (secs, sum) = best_of(|| {
            short_tasks
                .iter()
                .map(|t| {
                    run_task_ws(&mut ws, t, &short_scoring, &cfg).result.score.unsigned_abs() as u64
                })
                .sum()
        });
        tier_secs[slot] = secs;
        tier_sums[slot] = sum;
    }
    assert!(
        tier_sums.iter().all(|&s| s == tier_sums[0]),
        "every (precision × geometry) pair must score bit-identically: {tier_sums:?}"
    );

    // AVX-512 vs AVX2 head to head on the wide-geometry i16 workload (the
    // tier the zmm kernels target): same short-read tasks, same B16+i16
    // config as the b16 slot above, with the process-wide backend forced
    // per slot. The force clamps to the detected backend on hosts missing
    // the requested features, so `avx512_resolved_backend` records what
    // actually ran — a clamped row reports speedup ≈ 1 honestly rather
    // than fabricating a zmm number. Checksums must match the tier slots:
    // backend bit-identity asserted in-bench, on the benched workload.
    use agatha_align::simd::{self, BackendChoice, WavefrontBackend};
    let saved_choice = simd::backend_choice();
    let mut backend_secs = [0.0f64; 2];
    let mut backend_sums = [0u64; 2];
    let mut resolved = [WavefrontBackend::Portable; 2];
    for (slot, forced) in [(0usize, WavefrontBackend::Avx2), (1, WavefrontBackend::Avx512)] {
        simd::set_backend_choice(BackendChoice::Fixed(forced));
        resolved[slot] = simd::backend();
        let cfg = pipeline
            .config
            .clone()
            .with_simd_fill(true)
            .with_fill_precision(FillPrecision::I16)
            .with_block_dim(BlockDim::B16);
        let mut ws = KernelWorkspace::new();
        let (secs, sum) = best_of(|| {
            short_tasks
                .iter()
                .map(|t| {
                    run_task_ws(&mut ws, t, &short_scoring, &cfg).result.score.unsigned_abs() as u64
                })
                .sum()
        });
        backend_secs[slot] = secs;
        backend_sums[slot] = sum;
    }
    simd::set_backend_choice(saved_choice);
    assert!(
        backend_sums.iter().all(|&s| s == tier_sums[0]),
        "forced backends must score bit-identically to the tier slots: \
         {backend_sums:?} vs {}",
        tier_sums[0]
    );

    // Streaming overlap on the short-read workload: round-trip the tasks
    // through real FASTA files, then stream them back per chunk size with
    // the parser inline vs on a prefetch reader thread (depth 2, carry-over
    // on for both) — the `stream_prefetch_speedup` row isolates the
    // parse/kernel overlap, parse cost included in both wall times. The
    // whole-batch reference is file-based too (parse everything, then one
    // `align_batch`) — the collect-then-align program streaming replaces,
    // so `stream_vs_whole_chunk64` compares the same input medium and the
    // same parse work on both sides. The `carryover_makespan_gain` row is
    // deterministic, not wall time: the simulated device makespan of the
    // in-memory stream with carry-over off vs on (prefetch moves wall
    // time, never the simulated schedule). Every (prefetch × carry-over)
    // combination's score checksum is asserted against whole-batch —
    // bit-identity on the benched workload.
    use agatha_io::{open_fasta_pairs_model, write_fasta, FastaRecord};

    let short_pipeline = Pipeline::new(short_scoring, AgathaConfig::agatha());
    let dir = std::env::temp_dir().join(format!("agatha_bench_stream_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let ref_path = dir.join("refs.fasta");
    let query_path = dir.join("queries.fasta");
    let records = |pick: fn(&Task) -> &agatha_align::PackedSeq| -> Vec<FastaRecord> {
        short_tasks
            .iter()
            .map(|t| FastaRecord { name: format!("t{}", t.id), seq: pick(t).clone() })
            .collect()
    };
    write_fasta(&ref_path, &records(|t| &t.reference)).expect("write bench refs");
    write_fasta(&query_path, &records(|t| &t.query)).expect("write bench queries");

    let (whole_short_s, whole_short_sum) = best_of(|| {
        let parsed: Vec<Task> =
            open_fasta_pairs_model(&ref_path, &query_path, &short_scoring.model)
                .expect("open bench fasta")
                .collect::<Result<_, _>>()
                .expect("bench fasta must parse cleanly");
        let rep = short_pipeline.align_batch(&parsed);
        rep.results.iter().map(|r| r.score.unsigned_abs() as u64).sum()
    });

    const STREAM_CHUNKS: [usize; 4] = [8, 32, 64, 256];
    let mut stream_inline_tps = [0.0f64; 4];
    let mut stream_pf_tps = [0.0f64; 4];
    let mut carry_gain = [0.0f64; 4];
    let mut stream_engine = short_pipeline.engine();
    let score_sum = |results: &[agatha_align::GuidedResult]| -> u64 {
        results.iter().map(|r| r.score.unsigned_abs() as u64).sum()
    };
    for (slot, &chunk) in STREAM_CHUNKS.iter().enumerate() {
        let (inline_s, inline_sum) = best_of(|| {
            let pairs = open_fasta_pairs_model(&ref_path, &query_path, &short_scoring.model)
                .expect("open bench fasta");
            let mut io_err = None;
            let iter = pairs.map_while(|t| match t {
                Ok(task) => Some(task),
                Err(e) => {
                    io_err = Some(e);
                    None
                }
            });
            let mut run = stream_engine.align_stream_with(iter, StreamOptions::new(chunk));
            let mut sum = 0u64;
            for c in run.by_ref() {
                sum += score_sum(&c.report.results);
            }
            run.finish();
            assert!(io_err.is_none(), "bench fasta must parse cleanly: {io_err:?}");
            sum
        });
        let (pf_s, pf_sum) = best_of(|| {
            let pairs = open_fasta_pairs_model(&ref_path, &query_path, &short_scoring.model)
                .expect("open bench fasta");
            let mut run =
                stream_engine.align_stream_prefetched(pairs, 2, StreamOptions::new(chunk));
            let mut sum = 0u64;
            for c in run.by_ref() {
                sum += score_sum(&c.report.results);
            }
            run.finish_checked().expect("bench fasta must parse cleanly");
            sum
        });
        // Deterministic in-memory runs close the (prefetch × carry) grid
        // and supply the simulated-makespan pair for the gain row.
        let mut sim = |carry: bool, prefetch: usize| -> (f64, u64) {
            let opts = StreamOptions::new(chunk).carry_over(carry);
            let mut sum = 0u64;
            let summary = if prefetch > 0 {
                let source = short_tasks.clone().into_iter().map(Ok::<Task, String>);
                let mut run = stream_engine.align_stream_prefetched(source, prefetch, opts);
                for c in run.by_ref() {
                    sum += score_sum(&c.report.results);
                }
                run.finish_checked().expect("in-memory source cannot fail")
            } else {
                let mut run = stream_engine.align_stream_with(short_tasks.iter().cloned(), opts);
                for c in run.by_ref() {
                    sum += score_sum(&c.report.results);
                }
                run.finish()
            };
            (summary.elapsed_ms, sum)
        };
        let (plain_ms, plain_sum) = sim(false, 0);
        let (carry_ms, carry_sum) = sim(true, 0);
        let (_, pf_plain_sum) = sim(false, 2);
        for (label, sum) in [
            ("inline stream", inline_sum),
            ("prefetched stream", pf_sum),
            ("carry-over off", plain_sum),
            ("carry-over on", carry_sum),
            ("prefetch + carry-over off", pf_plain_sum),
        ] {
            assert_eq!(
                sum, whole_short_sum,
                "{label} at chunk {chunk} must score identically to whole-batch"
            );
        }
        stream_inline_tps[slot] = short_tasks.len() as f64 / inline_s;
        stream_pf_tps[slot] = short_tasks.len() as f64 / pf_s;
        carry_gain[slot] = plain_ms / carry_ms;
    }
    std::fs::remove_dir_all(&dir).ok();
    let fmt_row = |vals: &[f64], digits: usize| -> String {
        let items: Vec<String> = STREAM_CHUNKS
            .iter()
            .zip(vals)
            .map(|(c, v)| format!("{{\"chunk\": {c}, \"value\": {v:.prec$}}}", prec = digits))
            .collect();
        format!("[{}]", items.join(", "))
    };

    let tps = |secs: f64, n: usize| n as f64 / secs;
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"seed\": {SEED},\n  \"tasks\": {},\n  \
         \"chunk\": {CHUNK},\n  \
         \"default_fill\": \"{}\",\n  \
         \"default_precision\": \"{}\",\n  \
         \"block_dim\": \"{}\",\n  \
         \"fill_backend\": \"{}\",\n  \
         \"whole_batch_tasks_per_sec\": {:.1},\n  \
         \"streaming_tasks_per_sec\": {:.1},\n  \
         \"kernel_fresh_alloc_tasks_per_sec\": {:.1},\n  \
         \"kernel_reused_ws_tasks_per_sec\": {:.1},\n  \
         \"workspace_reuse_speedup\": {:.3},\n  \
         \"kernel_scalar_fill_tasks_per_sec\": {:.1},\n  \
         \"kernel_simd_fill_tasks_per_sec\": {:.1},\n  \
         \"simd_fill_speedup\": {:.3},\n  \
         \"short_read_tasks\": {},\n  \
         \"kernel_i32_fill_tasks_per_sec\": {:.1},\n  \
         \"kernel_i16_fill_tasks_per_sec\": {:.1},\n  \
         \"i16_fill_speedup\": {:.3},\n  \
         \"kernel_b16_fill_tasks_per_sec\": {:.1},\n  \
         \"kernel_auto_geom_tasks_per_sec\": {:.1},\n  \
         \"geometry_speedup\": {:.3},\n  \
         \"kernel_avx2_fill_tasks_per_sec\": {:.1},\n  \
         \"kernel_avx512_fill_tasks_per_sec\": {:.1},\n  \
         \"avx512_resolved_backend\": \"{}\",\n  \
         \"avx512_fill_speedup\": {:.3},\n  \
         \"stream_whole_batch_short_tasks_per_sec\": {:.1},\n  \
         \"stream_inline_tasks_per_sec\": {},\n  \
         \"stream_prefetch_tasks_per_sec\": {},\n  \
         \"stream_prefetch_speedup\": {},\n  \
         \"carryover_makespan_gain\": {},\n  \
         \"stream_vs_whole_chunk64\": {:.3},\n{}\n}}\n",
        tasks.len(),
        if cfg!(feature = "simd") { "simd" } else { "scalar" },
        agatha_core::options::default_fill_precision().name(),
        agatha_core::options::default_block_dim().name(),
        agatha_align::simd::backend().name(),
        tps(whole_s, tasks.len()),
        tps(stream_s, tasks.len()),
        tps(fresh_s, kernel_tasks.len()),
        tps(reused_s, kernel_tasks.len()),
        fresh_s / reused_s,
        tps(fill_secs[0], tasks.len()),
        tps(fill_secs[1], tasks.len()),
        fill_secs[0] / fill_secs[1],
        short_tasks.len(),
        tps(tier_secs[0], short_tasks.len()),
        tps(tier_secs[1], short_tasks.len()),
        tier_secs[0] / tier_secs[1],
        tps(tier_secs[2], short_tasks.len()),
        tps(tier_secs[3], short_tasks.len()),
        tier_secs[1] / tier_secs[2],
        tps(backend_secs[0], short_tasks.len()),
        tps(backend_secs[1], short_tasks.len()),
        resolved[1].name(),
        backend_secs[0] / backend_secs[1],
        tps(whole_short_s, short_tasks.len()),
        fmt_row(&stream_inline_tps, 1),
        fmt_row(&stream_pf_tps, 1),
        fmt_row(
            &[
                stream_pf_tps[0] / stream_inline_tps[0],
                stream_pf_tps[1] / stream_inline_tps[1],
                stream_pf_tps[2] / stream_inline_tps[2],
                stream_pf_tps[3] / stream_inline_tps[3],
            ],
            3,
        ),
        fmt_row(&carry_gain, 3),
        stream_pf_tps[2] / tps(whole_short_s, short_tasks.len()),
        scenario_rows(SCENARIOS),
    );
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    print!("{json}");
}
