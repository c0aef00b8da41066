//! Criterion microbenchmarks of the hot paths: the scalar guided reference,
//! the block-grid kernel under each configuration, input packing, FASTA
//! parsing, the anti-diagonal tracker, the simulated device's trace, the
//! warp simulation the chunk packer runs, and the packer itself on a live
//! engine.
//! These measure *real host wall-time* of the implementation (unlike the
//! scorecard, which reports simulated device time).

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use agatha_align::block::{block_grid_align, BlockCtx, FillTier};
use agatha_align::diag::DiagTracker;
use agatha_align::guided::guided_align;
use agatha_align::simd::{supported_backends, BackendChoice, WavefrontBackend};
use agatha_align::sweep::{NorthRows, RowCarry, Sweep};
use agatha_align::{PackedSeq, QueryProfile, Scoring, Task, BLOCK, BLOSUM62, MAX_BLOCK, MAX_STRIP};
use agatha_core::{
    bucketing::build_warps,
    kernel::{align_task_ws, run_task, run_task_ws, KernelWorkspace, TaskRun},
    trace::device_trace,
    warp_sim::simulate_warp,
    AgathaConfig, BatchEngine, JobMeta, OrderingStrategy, Pipeline,
};
use agatha_datasets::SCENARIOS;
use agatha_io::FastaReader;

fn pseudo_seq(len: usize, seed: u64, mutate_every: usize) -> (String, String) {
    pseudo_seq_over("ACGT", len, seed, mutate_every)
}

/// A reference of `len` letters of `alphabet` and a query equal to it but at
/// every `mutate_every`-th position, which holds the alphabet's last letter.
fn pseudo_seq_over(alphabet: &str, len: usize, seed: u64, mutate_every: usize) -> (String, String) {
    let letters: Vec<char> = alphabet.chars().collect();
    let mut r = String::new();
    let mut q = String::new();
    let mut x = seed | 1;
    for k in 0..len {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let c = letters[(x >> 33) as usize % letters.len()];
        r.push(c);
        q.push(if mutate_every > 0 && k % mutate_every == 0 {
            letters[letters.len() - 1]
        } else {
            c
        });
    }
    (r, q)
}

fn bench_guided_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("guided_reference");
    for len in [512usize, 2048] {
        let (r, q) = pseudo_seq(len, 11, 17);
        let (rp, qp) = (PackedSeq::from_str_seq(&r), PackedSeq::from_str_seq(&q));
        let s = Scoring::new(2, 4, 4, 2, 200, 100);
        let cells = guided_align(&rp, &qp, &s).cells;
        g.throughput(Throughput::Elements(cells));
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| guided_align(&rp, &qp, &s))
        });
    }
    g.finish();
}

fn bench_block_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_grid");
    let (r, q) = pseudo_seq(2048, 23, 19);
    let (rp, qp) = (PackedSeq::from_str_seq(&r), PackedSeq::from_str_seq(&q));
    let s = Scoring::new(2, 4, 4, 2, 200, 100);
    let cells = block_grid_align(&rp, &qp, &s).cells;
    g.throughput(Throughput::Elements(cells));
    g.bench_function("reference_driver", |b| b.iter(|| block_grid_align(&rp, &qp, &s)));
    g.finish();
}

fn bench_kernel_configs(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_exec");
    let (r, q) = pseudo_seq(2048, 37, 19);
    let task = Task::from_strs(0, &r, &q);
    let s = Scoring::new(2, 4, 4, 2, 200, 100);
    for (name, cfg) in [
        ("baseline", AgathaConfig::baseline()),
        ("agatha_s3", AgathaConfig::agatha()),
        ("agatha_s16", AgathaConfig::agatha().with_slice_width(16)),
    ] {
        g.bench_function(name, |b| b.iter(|| run_task(&task, &s, &cfg)));
    }
    g.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    // The streaming engine's core claim: reusing one KernelWorkspace across
    // a stream of tasks beats reallocating every DP buffer per call. The
    // gap is widest on seed-sized microtasks, where allocation is a real
    // fraction of kernel time; O(n²) compute swamps it on long reads.
    let mut g = c.benchmark_group("workspace_reuse");
    let s = Scoring::new(2, 4, 4, 2, 200, 100);
    let cfg = AgathaConfig::agatha();
    let tasks: Vec<Task> = (0..512)
        .map(|i| {
            let (r, q) = pseudo_seq(8 + (i as usize * 5) % 13, i + 1, 11);
            Task::from_strs(i as u32, &r, &q)
        })
        .collect();
    g.throughput(Throughput::Elements(tasks.len() as u64));
    g.bench_function("fresh_alloc", |b| {
        b.iter(|| tasks.iter().map(|t| run_task(t, &s, &cfg).blocks).sum::<u64>())
    });
    g.bench_function("reused_workspace", |b| {
        let mut ws = KernelWorkspace::new();
        b.iter(|| tasks.iter().map(|t| run_task_ws(&mut ws, t, &s, &cfg).blocks).sum::<u64>())
    });
    g.finish();
}

/// Time of the tracker fold alone, one iteration being one block: a
/// fill + fold pass over `task`'s block grid (the shared [`Sweep`] on the i16
/// tier at geometry `B`, fills capped at `backend`, each row one segment,
/// until the tracker decides) minus a fill-only replay of the same block
/// count (a clock around each ~50 ns fold would cost as much as the fold).
/// The two kinds of pass alternate and each is represented by its median, so
/// that a preemption or a clock-state flip lands in neither.
fn fold_only<const B: usize>(
    task: &Task,
    s: &Scoring,
    backend: WavefrontBackend,
    iters: u64,
) -> Duration {
    let (n, m) = (task.ref_len(), task.query_len());
    let ctx = BlockCtx::with_block_dim(n, m, s, B).with_backend(BackendChoice::Fixed(backend));
    let mut tracker = DiagTracker::new(0, 0, s);
    let mut rows = NorthRows::default();
    // Blocks filled by one pass: fill + fold until the tracker decides, or —
    // given the block count such a pass reported — the fill alone up to the
    // row that reaches it (a fold pass ends on a row boundary).
    let mut pass = |fill_only: Option<u64>| {
        let tracker = fill_only.is_none().then(|| {
            tracker.reset(n, m, s);
            &mut tracker
        });
        let mut sweep =
            Sweep::<B>::new(ctx, FillTier::I16, &task.reference, &task.query, &mut rows, tracker);
        let mut blocks = 0;
        for bj in 0..ctx.query_blocks() {
            let Some((lo, hi)) = ctx.row_block_range(bj) else { continue };
            blocks += sweep.segment(&mut RowCarry::fresh(), bj, lo, hi);
            if fill_only.is_some_and(|stop| blocks >= stop) || sweep.advance().is_some() {
                break;
            }
        }
        // Keep the fill observable when nothing folds it.
        black_box(&sweep);
        blocks
    };
    let blocks = pass(None);
    let passes = iters.div_ceil(blocks) as usize;
    let (mut with_fold, mut fill_only) = (Vec::with_capacity(passes), Vec::with_capacity(passes));
    for _ in 0..passes {
        let t0 = Instant::now();
        black_box(pass(None));
        let t1 = Instant::now();
        black_box(pass(Some(blocks)));
        with_fold.push(t1 - t0);
        fill_only.push(t1.elapsed());
    }
    let median = |passes: &mut Vec<Duration>| {
        let mid = passes.len() / 2;
        *passes.select_nth_unstable(mid).1
    };
    let fold = median(&mut with_fold).saturating_sub(median(&mut fill_only));
    fold.mul_f64(iters as f64 / blocks as f64)
}

/// One task swept the way `kernel::align_task_ws` sweeps it at tile side
/// `B` (the plan's backend, a query profile where the lanes read one, the
/// task's fill tier, each row one segment): fill + fold on `tracker` until
/// it decides, or — with no tracker — the fill alone up to the row that
/// reaches `stop` blocks. Returns the blocks swept.
fn sweep_task<const B: usize>(
    task: &Task,
    s: &Scoring,
    cfg: &AgathaConfig,
    (rows, profile): (&mut NorthRows, &mut QueryProfile),
    tracker: Option<&mut DiagTracker>,
    stop: u64,
) -> u64 {
    let (n, m) = (task.ref_len(), task.query_len());
    let ctx = BlockCtx::with_block_dim(n, m, s, B).with_backend(cfg.backend);
    let ctx = if ctx.reads_profile() {
        profile.prepare(&task.query, s);
        ctx.with_profile(Some(&*profile))
    } else {
        ctx
    };
    let tier = ctx.fill_tier(cfg.fill_mode(), cfg.fill_precision);
    let mut tracker = tracker;
    if let Some(t) = tracker.as_deref_mut() {
        t.reset(n, m, s);
    }
    let mut sweep = Sweep::<B>::new(ctx, tier, &task.reference, &task.query, rows, tracker);
    let mut blocks = 0;
    for bj in 0..ctx.query_blocks() {
        let Some((lo, hi)) = ctx.row_block_range(bj) else { continue };
        blocks += sweep.segment(&mut RowCarry::fresh(), bj, lo, hi);
        if blocks >= stop || sweep.advance().is_some() {
            break;
        }
    }
    black_box(&sweep);
    blocks
}

/// [`fold_only`] over a registered scenario's tasks on the kernel's own
/// plan, one iteration being one block: a pass sweeps every task as the
/// kernel does ([`sweep_task`] at the tile the plan resolves for it), with
/// the tracker or the fill alone to the same block counts; the two kinds of
/// pass alternate and the fold is the difference of their medians. With
/// `kernel`, the time of `align_task_ws` itself per block instead — what
/// the fold is a share of.
fn scenario_fold(tasks: &[Task], s: &Scoring, kernel: bool, iters: u64) -> Duration {
    let cfg = AgathaConfig::agatha();
    let (mut rows, mut profile) = (NorthRows::default(), QueryProfile::new());
    let mut tracker = DiagTracker::new(0, 0, s);
    let mut pass = |fold: bool, stops: &[u64]| -> u64 {
        let mut blocks = 0;
        for (t, &stop) in tasks.iter().zip(stops) {
            let (bufs, tracker) = ((&mut rows, &mut profile), fold.then_some(&mut tracker));
            blocks += match cfg.block_dim_for(t.ref_len(), t.query_len(), s) {
                MAX_STRIP => sweep_task::<MAX_STRIP>(t, s, &cfg, bufs, tracker, stop),
                MAX_BLOCK => sweep_task::<MAX_BLOCK>(t, s, &cfg, bufs, tracker, stop),
                _ => sweep_task::<BLOCK>(t, s, &cfg, bufs, tracker, stop),
            };
        }
        blocks
    };
    let mut ws = KernelWorkspace::new();
    let stops: Vec<u64> = tasks.iter().map(|t| align_task_ws(&mut ws, t, s, &cfg).blocks).collect();
    let blocks: u64 = stops.iter().sum();
    assert_eq!(pass(true, &vec![u64::MAX; tasks.len()]), blocks, "the sweep is the kernel's");
    let passes = iters.div_ceil(blocks) as usize;
    let (mut with_fold, mut fill_only) = (Vec::with_capacity(passes), Vec::with_capacity(passes));
    for _ in 0..passes {
        let t0 = Instant::now();
        if kernel {
            for t in tasks {
                black_box(align_task_ws(&mut ws, t, s, &cfg));
            }
        } else {
            black_box(pass(true, &stops));
        }
        let t1 = Instant::now();
        if !kernel {
            black_box(pass(false, &stops));
        }
        with_fold.push(t1 - t0);
        fill_only.push(t1.elapsed());
    }
    let median = |passes: &mut Vec<Duration>| {
        let mid = passes.len() / 2;
        *passes.select_nth_unstable(mid).1
    };
    let spent = median(&mut with_fold).saturating_sub(if kernel {
        Duration::ZERO
    } else {
        median(&mut fill_only)
    });
    spent.mul_f64(iters as f64 / blocks as f64)
}

fn bench_block_fold(c: &mut Criterion) {
    // What a block costs the tracker (`DiagTracker::on_block_i16`), per
    // backend level × geometry — including the levels the host's own
    // dispatch never picks — on a short banded pair (mostly band-clipped
    // edge blocks) and a kb-scale one (mostly interior blocks). The 32-lane
    // strip runs on AVX-512 only: its rows are `avx512/b32`, a block of four
    // times a b16 block's cells.
    let mut g = c.benchmark_group("block_fold");
    let (short_r, short_q) = pseudo_seq(250, 29, 19);
    let (kb_r, kb_q) = pseudo_seq(4096, 31, 19);
    let pairs = [
        ("short_w24", Task::from_strs(0, &short_r, &short_q), Scoring::new(2, 4, 4, 2, 100, 24)),
        ("kb_w100", Task::from_strs(1, &kb_r, &kb_q), Scoring::new(2, 4, 4, 2, 200, 100)),
    ];
    // The kernel's own plan over a registered scenario's tasks (seed 1234):
    // the tracker per block, and the whole of `align_task_ws` per block —
    // the fold's share of the kernel is the first over the second.
    for (name, reads) in [("dna-short", 300), ("dna-long", 200), ("protein-blosum62", 300)] {
        let scenario = SCENARIOS.iter().find(|s| s.name == name).expect("a registered scenario");
        let (tasks, s) = ((scenario.tasks)(1234, reads), (scenario.scoring)());
        g.bench_function(format!("{name}/seed1234"), |b| {
            b.iter_custom(|iters| scenario_fold(&tasks, &s, false, iters))
        });
        g.bench_function(format!("{name}/seed1234/kernel"), |b| {
            b.iter_custom(|iters| scenario_fold(&tasks, &s, true, iters))
        });
    }
    for backend in supported_backends() {
        for (pair, task, s) in &pairs {
            g.bench_function(format!("{}/b8/{pair}", backend.name()), |b| {
                b.iter_custom(|iters| fold_only::<BLOCK>(task, s, backend, iters))
            });
            g.bench_function(format!("{}/b16/{pair}", backend.name()), |b| {
                b.iter_custom(|iters| fold_only::<MAX_BLOCK>(task, s, backend, iters))
            });
            if backend == WavefrontBackend::Avx512 {
                g.bench_function(format!("avx512/b32/{pair}"), |b| {
                    b.iter_custom(|iters| fold_only::<MAX_STRIP>(task, s, backend, iters))
                });
            }
        }
    }
    g.finish();
}

/// Time of the i16 fill alone over segments of `k` blocks, one iteration
/// being one block: row after row of an unbanded table, each row's first `k`
/// blocks as one segment on a fresh carry (a fill-only [`Sweep`], fills
/// capped at `backend`, a matrix model's query profile built off the clock
/// where the lanes read one, as the kernel does), so every segment's inputs
/// are the real boundaries of the rows above it. Only the segments are on
/// the clock.
fn segment_fill<const B: usize>(
    task: &Task,
    s: &Scoring,
    backend: WavefrontBackend,
    k: i64,
    iters: u64,
) -> Duration {
    let (n, m) = (task.ref_len(), task.query_len());
    let ctx = BlockCtx::with_block_dim(n, m, s, B).with_backend(BackendChoice::Fixed(backend));
    let mut profile = QueryProfile::new();
    profile.prepare(&task.query, s);
    let ctx = ctx.with_profile(ctx.reads_profile().then_some(&profile));
    let mut rows = NorthRows::default();
    let (mut blocks, mut spent) = (0, Duration::ZERO);
    while blocks < iters {
        let mut sweep =
            Sweep::<B>::new(ctx, FillTier::I16, &task.reference, &task.query, &mut rows, None);
        let started = Instant::now();
        for bj in 0..ctx.query_blocks() {
            blocks += sweep.segment(&mut RowCarry::fresh(), bj, 0, k - 1);
        }
        spent += started.elapsed();
        black_box(&sweep);
    }
    spent.mul_f64(iters as f64 / blocks as f64)
}

fn bench_segment_fill(c: &mut Criterion) {
    // What a block costs the fill as its segment grows: `k` chained blocks
    // are `kB + B − 1` vector steps over `kB²` cells, so lane occupancy
    // climbs 52 → 76 → 90 → 97 % from k = 1 to k = 27 (a tracked band row)
    // and the ramp, the dispatch and the boundary conversions are paid once
    // per segment — ns per block should fall accordingly on every backend.
    // The 32-lane strip (`avx512/b32`, AVX-512 only) runs segments of 1, 4
    // and 13 blocks: the columns of b16's k = 2, 8 and 27 near enough, so
    // its ns per block over four compares with b16's at the same lengths.
    // The `blosum62` rows fill a protein pair of the same shape under the
    // matrix: `avx2/b16` unskews query-profile rows (every impl's default),
    // `avx512/b32` looks each window up in the matrix's column table.
    let mut g = c.benchmark_group("segment_fill");
    let (r, q) = pseudo_seq(1024, 43, 19);
    let task = Task::from_strs(0, &r[..27 * MAX_BLOCK], &q);
    let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
    let blosum = Scoring::with_matrix(&BLOSUM62, 10, 1, Scoring::NO_ZDROP, Scoring::NO_BAND);
    // The 20 residues, `X` left out.
    let (r, q) = pseudo_seq_over(&BLOSUM62.alphabet[..20], 1024, 47, 19);
    let protein = Task::from_strs_model(1, &r[..27 * MAX_BLOCK], &q, &blosum.model);
    for backend in supported_backends() {
        for k in [1, 3, 8, 27] {
            g.bench_function(format!("{}/b8/k{k}", backend.name()), |b| {
                b.iter_custom(|iters| segment_fill::<BLOCK>(&task, &s, backend, k, iters))
            });
            g.bench_function(format!("{}/b16/k{k}", backend.name()), |b| {
                b.iter_custom(|iters| segment_fill::<MAX_BLOCK>(&task, &s, backend, k, iters))
            });
        }
        if backend == WavefrontBackend::Avx2 {
            for k in [1, 8, 27] {
                g.bench_function(format!("avx2/b16/blosum62/k{k}"), |b| {
                    b.iter_custom(|i| segment_fill::<MAX_BLOCK>(&protein, &blosum, backend, k, i))
                });
            }
        }
        if backend == WavefrontBackend::Avx512 {
            for k in [1, 4, 13] {
                g.bench_function(format!("avx512/b32/k{k}"), |b| {
                    b.iter_custom(|iters| segment_fill::<MAX_STRIP>(&task, &s, backend, k, iters))
                });
                g.bench_function(format!("avx512/b32/blosum62/k{k}"), |b| {
                    b.iter_custom(|i| segment_fill::<MAX_STRIP>(&protein, &blosum, backend, k, i))
                });
            }
        }
    }
    g.finish();
}

fn bench_device_trace(c: &mut Criterion) {
    // What the simulated device's trace costs the host per task, one
    // iteration being one task: pure geometry over the task's shape and
    // stop point, no DP — the walk over every unit's block rows and its
    // fold into the unit summaries the cost model prices.
    let mut g = c.benchmark_group("device_trace");
    let cfg = AgathaConfig::agatha();
    for name in ["dna-short", "dna-long"] {
        let scenario = SCENARIOS.iter().find(|s| s.name == name).expect("a registered scenario");
        let s = (scenario.scoring)();
        let runs: Vec<_> = (scenario.tasks)(1, 100)
            .iter()
            .map(|t| (t.ref_len(), t.query_len(), run_task(t, &s, &cfg).result))
            .collect();
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let started = Instant::now();
                for (n, m, result) in runs.iter().cycle().take(iters as usize) {
                    black_box(device_trace(*n, *m, s.band_width, &cfg, result));
                }
                started.elapsed()
            })
        });
    }
    g.finish();
}

fn bench_warp_sim(c: &mut Criterion) {
    // The rejoining simulation the packer's warp jobs run: `simulate_warp`
    // over every warp of one packed chunk — a `dna-short` chunk at the CLI's default size,
    // and a `dna-long` one — with subwarp rejoining, each unit priced from
    // its summary. One iteration is one chunk; throughput counts its tasks.
    let mut g = c.benchmark_group("warp_sim");
    let cfg = AgathaConfig::agatha();
    let cost = agatha_gpu_sim::CostModel::for_spec(&agatha_gpu_sim::GpuSpec::rtx_a6000());
    for (name, reads) in [("dna-short", 4096), ("dna-long", 512)] {
        let scenario = SCENARIOS.iter().find(|s| s.name == name).expect("a registered scenario");
        let s = (scenario.scoring)();
        let tasks = (scenario.tasks)(1, reads);
        let runs: Vec<TaskRun> = tasks.iter().map(|t| run_task(t, &s, &cfg)).collect();
        let workloads: Vec<u64> = tasks.iter().map(|t| u64::from(t.antidiags())).collect();
        let (subwarps, depth) = (cfg.subwarps_per_warp(), cfg.tasks_per_subwarp);
        let warps = build_warps(&workloads, subwarps, depth, OrderingStrategy::UnevenBucketing);
        g.throughput(Throughput::Elements(reads as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                let warp_cycles = warps.iter().map(|w| {
                    let queues: Vec<Vec<&TaskRun>> =
                        w.queues.iter().map(|q| q.iter().map(|&i| &runs[i]).collect()).collect();
                    simulate_warp(&queues, &cfg, &cost).cycles
                });
                warp_cycles.sum::<f64>()
            })
        });
    }
    g.finish();
}

fn bench_packer(c: &mut Criterion) {
    // The chunk packer on a live 2-worker engine, one 4,096-task `dna-short`
    // chunk per iteration (the CLI's default chunk), its tasks cloned
    // outside the timed region:
    // - `align_chunk`: the whole packer (kernels, trace walks, stats, warp
    //   simulation, device scheduling);
    // - `run_tasks`: the kernels and trace walks alone, so `align_chunk −
    //   run_tasks` is the packer's serial remainder;
    // - `run_tagged`: the serve path, the kernels without a trace walk;
    // - `serial_remainder`: that difference paired per iteration (the chunk
    //   through `align_chunk`, then through `run_tasks`), so host noise
    //   common to both cancels; signed until the batch total.
    let mut g = c.benchmark_group("packer");
    let scenario = SCENARIOS.iter().find(|s| s.name == "dna-short").expect("a registered scenario");
    let tasks = (scenario.tasks)(1, 4096);
    let mut pipeline = Pipeline::new((scenario.scoring)(), AgathaConfig::agatha());
    pipeline.host_threads = 2;
    let mut engine = pipeline.engine();
    g.throughput(Throughput::Elements(tasks.len() as u64));
    let mut timed = |name: &str, run: &mut dyn FnMut(&mut BatchEngine, Vec<Task>)| {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut spent = Duration::ZERO;
                for _ in 0..iters {
                    let chunk = tasks.clone();
                    let started = Instant::now();
                    run(&mut engine, chunk);
                    spent += started.elapsed();
                }
                spent
            })
        });
    };
    timed("align_chunk", &mut |e, chunk| drop(black_box(e.align_chunk(chunk))));
    timed("run_tasks", &mut |e, chunk| drop(black_box(e.run_tasks(chunk))));
    timed("run_tagged", &mut |e, chunk| {
        let jobs = chunk.into_iter().map(|t| (t, JobMeta::default())).collect();
        drop(black_box(e.run_tagged(jobs)))
    });
    g.bench_function("serial_remainder", |b| {
        b.iter_custom(|iters| {
            let mut spent_ns = 0.0f64;
            for _ in 0..iters {
                let (packed, bare) = (tasks.clone(), tasks.clone());
                let started = Instant::now();
                drop(black_box(engine.align_chunk(packed)));
                spent_ns += started.elapsed().as_nanos() as f64;
                let started = Instant::now();
                drop(black_box(engine.run_tasks(bare)));
                spent_ns -= started.elapsed().as_nanos() as f64;
            }
            Duration::from_nanos(spent_ns.max(0.0) as u64)
        })
    });
    g.finish();
}

fn bench_packing(c: &mut Criterion) {
    let mut g = c.benchmark_group("packing");
    let (r, _) = pseudo_seq(1 << 16, 41, 0);
    let codes = agatha_align::base::codes_from_str(&r);
    g.throughput(Throughput::Elements(codes.len() as u64));
    g.bench_function("pack_4bit", |b| b.iter(|| PackedSeq::from_codes(&codes)));
    let residues: Vec<u8> = codes.iter().enumerate().map(|(i, &c)| (c + i as u8) % 21).collect();
    g.bench_function("pack_8bit", |b| {
        b.iter(|| PackedSeq::from_protein_codes(&residues, &agatha_align::BLOSUM62))
    });
    let packed = PackedSeq::from_codes(&codes);
    g.bench_function("unpack", |b| b.iter(|| packed.to_codes()));
    g.finish();
}

fn bench_fasta_parse(c: &mut Criterion) {
    // The reader over an in-memory file of ≈ 4 MB: 10 kb records wrapped at
    // 60 columns, decoded and packed, per alphabet.
    let mut g = c.benchmark_group("fasta_parse");
    for (name, matrix) in [("dna", None), ("blosum62", Some(&agatha_align::BLOSUM62))] {
        let letters: &[u8] = if matrix.is_some() { b"ARNDCQEGHILKMFPSTWYV" } else { b"ACGT" };
        let mut file = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for record in 0.. {
            if file.len() >= 4 << 20 {
                break;
            }
            file.extend_from_slice(format!(">read{record}\n").as_bytes());
            let seq: Vec<u8> = (0..10_000)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    letters[(x >> 33) as usize % letters.len()]
                })
                .collect();
            for line in seq.chunks(60) {
                file.extend_from_slice(line);
                file.push(b'\n');
            }
        }
        g.throughput(Throughput::Bytes(file.len() as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                FastaReader::new(&file[..])
                    .with_matrix(matrix)
                    .map(|r| r.expect("a well-formed file").seq.len())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_guided_reference, bench_block_kernel, bench_kernel_configs, bench_workspace_reuse, bench_block_fold, bench_segment_fill, bench_device_trace, bench_warp_sim, bench_packer, bench_packing, bench_fasta_parse
}
criterion_main!(benches);
