//! The traced staged replay of `agatha align`: the same public functions
//! `cmd_align` and the streaming engine call, in the same order, on one
//! thread, each stage wrapped in a span recorded by this file. It yields the
//! per-layer numbers; the untraced subprocess yields the end-to-end ones.
//!
//! The replay re-implements the engine's per-chunk staging (`run_task_ws` →
//! `TaskRun::stats` → carry split → `build_warps` → `simulate_warp` →
//! `SlotSchedule`) from the crates' public pieces, because the engine's own
//! staging functions are crate-private. It is checked, not trusted: its
//! scores must equal the subprocess's, and its statistics, chunk count and
//! simulated kernel time must equal what a real in-process
//! `BatchEngine::align_stream_with` reports for the same tasks.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use agatha_align::{PackedSeq, Scoring, Task};
use agatha_core::bucketing::{build_warps, carry_split};
use agatha_core::warp_sim::simulate_warp;
use agatha_core::{run_task_ws, AgathaConfig, KernelWorkspace, Pipeline, StreamOptions, TaskRun};
use agatha_gpu_sim::sched::{schedule, SlotSchedule};
use agatha_gpu_sim::{KernelStats, WARP_LANES};
use agatha_io::{open_fasta_pairs_model, write_score_log, write_time_json};

use crate::gridfill::{grid_pass, GridWorkspace, Pass};
use crate::measure::median;
use crate::spans::Tracer;
use crate::workloads::{BatchWorkload, FastaInput};

/// `--chunk` default of the CLI (`DEFAULT_CHUNK` in `crates/cli`).
pub const CLI_DEFAULT_CHUNK: usize = 4096;

/// Tiny tasks in the dispatch-cost probe.
pub const DISPATCH_TASKS: usize = 200_000;

/// The pipeline `agatha align --scenario S --threads N` builds.
pub fn pipeline(scoring: &Scoring, threads: usize) -> Pipeline {
    let mut p = Pipeline::new(*scoring, AgathaConfig::agatha());
    p.host_threads = threads;
    p
}

/// Exact counts of one staged replay. They must repeat bit for bit between
/// replays and between runs with the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub tasks: u64,
    pub chunks: u64,
    pub blocks: u64,
    pub warps: u64,
    /// Tasks one warp holds (subwarps × tasks per subwarp).
    pub warp_capacity: u64,
    /// Runs deferred past a chunk boundary by the carry-over split.
    pub carry_deferred: u64,
    pub stats: KernelStats,
    /// Σ idle lane-cycles ÷ Σ (warp cycles × warp lanes).
    pub idle_lane_share: f64,
    pub utilization: f64,
    pub kernel_ms: f64,
}

/// One staged replay: its spans, its outputs and its counts.
pub struct Staged {
    pub tracer: Tracer,
    pub scores: Vec<i32>,
    pub counts: Counts,
}

/// Replay `agatha align` on `input`, stage by stage, writing the same two
/// output files into `out_dir`.
pub fn staged_replay(
    w: &BatchWorkload,
    input: &FastaInput,
    scoring: &Scoring,
    out_dir: &Path,
) -> Result<Staged, String> {
    let pipe = pipeline(scoring, 1);
    let cfg = &pipe.config;
    let chunk_size = w.chunk.unwrap_or(CLI_DEFAULT_CHUNK);
    let capacity = cfg.subwarps_per_warp() * cfg.tasks_per_subwarp;
    let strategy = pipe.default_strategy();
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    let mut tracer = Tracer::new();
    let body = tracer.span("align", None, |tr| -> Result<(Vec<i32>, Counts), String> {
        let tasks = tr.span("ioutil.fasta", None, |_| {
            open_fasta_pairs_model(&input.refs, &input.queries, &scoring.model)?
                .collect::<Result<Vec<Task>, String>>()
        })?;

        let mut ws = KernelWorkspace::new();
        let mut spent: Vec<Vec<agatha_core::trace::SliceUnit>> = Vec::new();
        let mut carry: Vec<(TaskRun, u64)> = Vec::new();
        let mut sched = SlotSchedule::new(pipe.spec.warp_slots());
        let mut scores = Vec::with_capacity(tasks.len());
        let mut stats = KernelStats::new();
        let (mut chunks, mut blocks, mut warps_total, mut carry_deferred) =
            (0u64, 0u64, 0u64, 0u64);
        let (mut idle_lane_cycles, mut lane_cycles) = (0.0f64, 0.0f64);

        // The engine flushes the carry with the chunk on which its source
        // ends: a short final chunk, or — when the last chunk was full — a
        // trailing chunk that holds only the carry.
        let mut pieces: Vec<&[Task]> = tasks.chunks(chunk_size).collect();
        if pieces.last().is_none_or(|p| p.len() == chunk_size) {
            pieces.push(&[]);
        }
        for piece in pieces {
            let flush = piece.len() < chunk_size;
            if piece.is_empty() && carry.is_empty() {
                break;
            }
            let unit = Some(chunks);
            chunks += 1;
            tr.span("core.engine", unit, |tr| {
                let workloads: Vec<u64> = piece.iter().map(|t| u64::from(t.antidiags())).collect();
                let runs: Vec<TaskRun> = tr.span("core.kernel", unit, |_| {
                    piece
                        .iter()
                        .map(|t| {
                            // The engine's recycle discipline: top the
                            // workspace up with a few spent buffers when dry.
                            if ws.recycled_buffers().0 == 0 {
                                let from = spent.len() - spent.len().min(4);
                                for units in spent.drain(from..) {
                                    ws.recycle_units(units);
                                }
                            }
                            run_task_ws(&mut ws, t, scoring, cfg)
                        })
                        .collect()
                });
                blocks += runs.iter().map(|r| r.blocks).sum::<u64>();
                tr.span("gpu-sim.stats", unit, |_| {
                    for r in &runs {
                        stats.add(&r.stats(cfg.subwarp_lanes, cfg, &pipe.cost));
                        scores.push(r.result.score);
                    }
                });
                let (packed, warps) = tr.span("core.bucketing", unit, |_| {
                    let mut pool = std::mem::take(&mut carry);
                    pool.extend(runs.into_iter().zip(workloads));
                    let packed = if flush {
                        pool
                    } else {
                        let pool_workloads: Vec<u64> = pool.iter().map(|s| s.1).collect();
                        let (_, defer) = carry_split(&pool_workloads, capacity);
                        let mut deferred = vec![false; pool.len()];
                        for &i in &defer {
                            deferred[i] = true;
                        }
                        let mut packed = Vec::with_capacity(pool.len() - defer.len());
                        for (slot, later) in pool.into_iter().zip(deferred) {
                            if later {
                                carry.push(slot);
                            } else {
                                packed.push(slot);
                            }
                        }
                        packed
                    };
                    let packed_workloads: Vec<u64> = packed.iter().map(|s| s.1).collect();
                    let warps = build_warps(
                        &packed_workloads,
                        cfg.subwarps_per_warp(),
                        cfg.tasks_per_subwarp,
                        strategy,
                    );
                    (packed, warps)
                });
                carry_deferred += carry.len() as u64;
                warps_total += warps.len() as u64;
                let warp_cycles: Vec<f64> = tr.span("core.warp_sim", unit, |_| {
                    warps
                        .iter()
                        .map(|w| {
                            let queues: Vec<Vec<&TaskRun>> = w
                                .queues
                                .iter()
                                .map(|q| q.iter().map(|&i| &packed[i].0).collect())
                                .collect();
                            let outcome = simulate_warp(&queues, cfg, &pipe.cost);
                            idle_lane_cycles += outcome.idle_lane_cycles;
                            lane_cycles += outcome.cycles * WARP_LANES as f64;
                            outcome.cycles
                        })
                        .collect()
                });
                tr.span("gpu-sim.sched", unit, |_| {
                    // The chunk's own report, then the stream-wide fold.
                    std::hint::black_box(schedule(&warp_cycles, pipe.spec.warp_slots()));
                    sched.extend(&warp_cycles);
                });
                for (mut run, _) in packed {
                    let units = std::mem::take(&mut run.units);
                    if units.capacity() > 0 {
                        spent.push(units);
                    }
                }
            });
        }
        let device = tr.span("gpu-sim.sched", None, |_| sched.report());
        let kernel_ms = pipe.spec.cycles_to_ms(device.makespan_cycles);
        tr.span("ioutil.output", None, |_| {
            write_score_log(&out_dir.join("score.log"), &scores)?;
            write_time_json(&out_dir.join("time.json"), "AGAThA", kernel_ms, tasks.len())
        })?;
        let counts = Counts {
            tasks: tasks.len() as u64,
            chunks,
            blocks,
            warps: warps_total,
            warp_capacity: capacity as u64,
            carry_deferred,
            stats,
            idle_lane_share: if lane_cycles > 0.0 { idle_lane_cycles / lane_cycles } else { 0.0 },
            utilization: device.utilization,
            kernel_ms,
        };
        Ok((scores, counts))
    });
    let (scores, counts) = body?;
    Ok(Staged { tracer, scores, counts })
}

/// Seconds to pack every sequence of `tasks` from its residue codes
/// (`PackedSeq::from_codes` / `from_protein_codes`), and the bases packed.
pub fn pack_probe(tasks: &[Task], scoring: &Scoring) -> (f64, u64) {
    let codes: Vec<Vec<u8>> =
        tasks.iter().flat_map(|t| [t.reference.to_codes(), t.query.to_codes()]).collect();
    let bases: u64 = codes.iter().map(|c| c.len() as u64).sum();
    let matrix = scoring.model.matrix();
    let started = Instant::now();
    for c in &codes {
        let packed = match matrix {
            None => PackedSeq::from_codes(c),
            Some(m) => PackedSeq::from_protein_codes(c, m),
        };
        std::hint::black_box(packed);
    }
    (started.elapsed().as_secs_f64(), bases)
}

/// Kernel, fill + fold and fill-only seconds over a task list, with the
/// blocks each driver computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSplit {
    /// `run_task_ws` over every task: one thread, one reused workspace,
    /// spent buffers recycled.
    pub kernel_s: f64,
    pub kernel_blocks: u64,
    /// Cells the kernel's blocks cover (run-ahead and tile padding included).
    pub computed_cells: u64,
    /// Cells the scalar reference needs.
    pub reference_cells: u64,
    /// The grid driver's fill + fold pass.
    pub both_s: f64,
    /// The grid driver's fill-only replay to the same stop.
    pub fill_s: f64,
    pub grid_blocks: u64,
}

impl KernelSplit {
    pub fn fill_ns_per_block(&self) -> f64 {
        self.fill_s * 1e9 / self.grid_blocks.max(1) as f64
    }

    /// Fold is what the fill + fold pass costs beyond the fill-only replay.
    pub fn fold_ns_per_block(&self) -> f64 {
        (self.both_s - self.fill_s).max(0.0) * 1e9 / self.grid_blocks.max(1) as f64
    }

    pub fn run_ns_per_block(&self) -> f64 {
        self.kernel_s * 1e9 / self.kernel_blocks.max(1) as f64
    }
}

/// Run every task three ways back to back — the kernel, the grid driver's
/// fill + fold pass, its fill-only replay (see [`crate::gridfill`]) — so
/// that slow drifts of the host hit all three alike and their ratios hold.
pub fn kernel_split_probe(tasks: &[Task], scoring: &Scoring) -> Result<KernelSplit, String> {
    let cfg = AgathaConfig::agatha();
    let mut ws = KernelWorkspace::new();
    let mut grid = GridWorkspace::new();
    let mut out = KernelSplit {
        kernel_s: 0.0,
        kernel_blocks: 0,
        computed_cells: 0,
        reference_cells: 0,
        both_s: 0.0,
        fill_s: 0.0,
        grid_blocks: 0,
    };
    for t in tasks {
        let started = Instant::now();
        let mut run = run_task_ws(&mut ws, t, scoring, &cfg);
        out.kernel_s += started.elapsed().as_secs_f64();
        out.kernel_blocks += run.blocks;
        out.computed_cells += run.computed_cells();
        out.reference_cells += run.result.cells;
        ws.recycle_units(std::mem::take(&mut run.units));

        let started = Instant::now();
        let folded = grid_pass(&mut grid, t, scoring, &cfg, Pass::FillAndFold);
        out.both_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let filled =
            grid_pass(&mut grid, t, scoring, &cfg, Pass::FillOnly { blocks: folded.blocks });
        out.fill_s += started.elapsed().as_secs_f64();
        if filled.blocks != folded.blocks {
            return Err(format!(
                "task {}: fill-only replay ran {} blocks, fill + fold ran {}",
                t.id, filled.blocks, folded.blocks
            ));
        }
        if folded.result.as_ref().map(|r| r.score) != Some(run.result.score) {
            return Err(format!("task {}: grid driver and kernel disagree on the score", t.id));
        }
        out.grid_blocks += folded.blocks;
    }
    Ok(out)
}

/// Seconds for the bare kernel loop over `tasks` (one thread, one reused
/// workspace, spent buffers recycled).
pub fn bare_kernel_s(tasks: &[Task], scoring: &Scoring) -> f64 {
    let cfg = AgathaConfig::agatha();
    let mut ws = KernelWorkspace::new();
    let started = Instant::now();
    for t in tasks {
        let mut run = run_task_ws(&mut ws, t, scoring, &cfg);
        ws.recycle_units(std::mem::take(&mut run.units));
    }
    started.elapsed().as_secs_f64()
}

/// What one real in-process engine stream over `tasks` reported.
pub struct EngineStream {
    pub wall_s: f64,
    pub scores: Vec<i32>,
    pub stats: KernelStats,
    pub chunks: usize,
    pub kernel_ms: f64,
    pub recycled_buffers: usize,
}

/// Stream `tasks` through a `BatchEngine` with `threads` workers, as the CLI
/// does after parsing (carry-over on).
pub fn engine_stream(
    tasks: &[Task],
    scoring: &Scoring,
    threads: usize,
    chunk: usize,
) -> EngineStream {
    let mut engine = pipeline(scoring, threads).engine();
    let mut scores = Vec::with_capacity(tasks.len());
    let started = Instant::now();
    let mut run = engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(chunk));
    for c in run.by_ref() {
        scores.extend(c.report.results.iter().map(|r| r.score));
    }
    let summary = run.finish();
    let wall_s = started.elapsed().as_secs_f64();
    EngineStream {
        wall_s,
        scores,
        stats: summary.stats,
        chunks: summary.chunks,
        kernel_ms: summary.elapsed_ms,
        recycled_buffers: engine.recycled_buffers(),
    }
}

/// Wall seconds to align `input` from its files with the parse inline
/// between chunks (`prefetch == 0`) or on a reader thread.
pub fn file_stream_s(
    w: &BatchWorkload,
    input: &FastaInput,
    scoring: &Scoring,
    prefetch: usize,
) -> Result<f64, String> {
    let mut engine = pipeline(scoring, w.threads).engine();
    let opts = StreamOptions::new(w.chunk.unwrap_or(CLI_DEFAULT_CHUNK));
    let started = Instant::now();
    let pairs = open_fasta_pairs_model(&input.refs, &input.queries, &scoring.model)?;
    if prefetch > 0 {
        engine
            .align_stream_prefetched(pairs, prefetch, opts)
            .finish_checked()
            .map_err(|e| e.to_string())?;
    } else {
        let mut io_err = None;
        let tasks = pairs.map_while(|t| t.map_err(|e| io_err = Some(e)).ok());
        engine.align_stream_with(tasks, opts).finish();
        if let Some(e) = io_err {
            return Err(e);
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// `count` seed-size tasks (8–20 bp, ~5 % substitutions), a pure function
/// of `seed`: small enough that the engine's per-task cost is not buried
/// under kernel time.
pub fn tiny_tasks(seed: u64, count: usize) -> Vec<Task> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as usize
    };
    (0..count)
        .map(|id| {
            let len = 8 + next() % 13;
            let reference: Vec<u8> = (0..len).map(|_| (next() % 4) as u8).collect();
            let query: Vec<u8> = reference
                .iter()
                .map(|&c| if next() % 20 == 0 { (next() % 4) as u8 } else { c })
                .collect();
            Task {
                id: id as u32,
                reference: PackedSeq::from_codes(&reference),
                query: PackedSeq::from_codes(&query),
            }
        })
        .collect()
}

/// Engine cost per task beyond the kernel, from streams of tiny tasks.
pub struct Dispatch {
    pub ns_per_task_1w: f64,
    pub ns_per_task_2w: f64,
    /// Extra microseconds per extra chunk at chunk 100 against the CLI's
    /// default chunk.
    pub chunk_overhead_us: f64,
}

/// Stream tiny tasks at the CLI's default chunk on one and on two workers
/// and subtract the bare kernel loop; then again at chunk 100.
pub fn dispatch_probe(seed: u64, count: usize, scoring: &Scoring) -> Dispatch {
    let tasks = tiny_tasks(seed, count);
    let n = tasks.len().max(1) as f64;
    let bare_s = bare_kernel_s(&tasks, scoring);
    let default_1w = engine_stream(&tasks, scoring, 1, CLI_DEFAULT_CHUNK);
    let default_2w = engine_stream(&tasks, scoring, 2, CLI_DEFAULT_CHUNK);
    let small = engine_stream(&tasks, scoring, 1, 100);
    let extra_chunks = small.chunks.saturating_sub(default_1w.chunks).max(1) as f64;
    Dispatch {
        ns_per_task_1w: (default_1w.wall_s - bare_s) * 1e9 / n,
        ns_per_task_2w: (default_2w.wall_s - bare_s) * 1e9 / n,
        chunk_overhead_us: (small.wall_s - default_1w.wall_s) * 1e6 / extra_chunks,
    }
}

/// Per-layer self seconds of one replay, by span name.
pub fn layer_seconds(staged: &Staged) -> BTreeMap<&'static str, f64> {
    staged.tracer.layer_times().into_iter().map(|(k, v)| (k, v.self_ns as f64 / 1e9)).collect()
}

/// Median across replays of each layer's self seconds.
pub fn median_layer_seconds(replays: &[Staged]) -> BTreeMap<&'static str, f64> {
    let per: Vec<BTreeMap<&'static str, f64>> = replays.iter().map(layer_seconds).collect();
    let mut out = BTreeMap::new();
    if let Some(first) = per.first() {
        for &name in first.keys() {
            let samples: Vec<f64> = per.iter().filter_map(|m| m.get(name).copied()).collect();
            out.insert(name, median(&samples));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::oracle_scores;
    use crate::workloads::{generate_tasks, scenario_scoring, write_fasta_pair, BATCH_WORKLOADS};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("agatha_bm_{tag}_{}", std::process::id()))
    }

    #[test]
    fn staged_replay_reproduces_the_engine_bit_for_bit() {
        let dir = temp_dir("replay");
        for mut w in BATCH_WORKLOADS {
            // A chunk that leaves a carry remainder on every workload, and
            // a task count that ends on a partial chunk.
            w.chunk = Some(20);
            let scoring = scenario_scoring(w.scenario);
            let tasks = generate_tasks(w.scenario, 9, 47);
            let input = write_fasta_pair(&dir, w.name, &tasks, &scoring).unwrap();
            let staged = staged_replay(&w, &input, &scoring, &dir.join("out")).unwrap();
            let engine = engine_stream(&tasks, &scoring, 1, 20);
            assert_eq!(staged.scores, engine.scores, "{}", w.name);
            assert_eq!(staged.scores, oracle_scores(&tasks, &scoring), "{}", w.name);
            assert_eq!(staged.counts.stats, engine.stats, "{}", w.name);
            assert_eq!(staged.counts.chunks as usize, engine.chunks, "{}", w.name);
            assert_eq!(staged.counts.kernel_ms, engine.kernel_ms, "{}", w.name);
            assert!(staged.counts.carry_deferred > 0, "{}: 20 % 8 = 4 must defer", w.name);
            let written = crate::batch::read_scores(&dir.join("out/score.log")).unwrap();
            assert_eq!(written, staged.scores);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_final_chunk_flushes_the_carry_in_a_trailing_chunk() {
        let dir = temp_dir("flush");
        let mut w = BATCH_WORKLOADS[0];
        w.chunk = Some(12);
        let scoring = scenario_scoring(w.scenario);
        let tasks = generate_tasks(w.scenario, 2, 12);
        let input = write_fasta_pair(&dir, "exact", &tasks, &scoring).unwrap();
        let staged = staged_replay(&w, &input, &scoring, &dir.join("out")).unwrap();
        let engine = engine_stream(&tasks, &scoring, 1, 12);
        assert_eq!(engine.chunks, 2, "one full chunk (4 deferred) plus the carry flush");
        assert_eq!(staged.counts.chunks as usize, engine.chunks);
        assert_eq!(staged.counts.kernel_ms, engine.kernel_ms);
        assert_eq!(staged.counts.stats, engine.stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spans_cover_every_stage_and_partition_the_root() {
        let dir = temp_dir("spans");
        let w = BATCH_WORKLOADS[2];
        let scoring = scenario_scoring(w.scenario);
        let tasks = generate_tasks(w.scenario, 4, 250);
        let input = write_fasta_pair(&dir, "p", &tasks, &scoring).unwrap();
        let staged = staged_replay(&w, &input, &scoring, &dir.join("out")).unwrap();
        let times = staged.tracer.layer_times();
        for layer in [
            "align",
            "ioutil.fasta",
            "core.engine",
            "core.kernel",
            "gpu-sim.stats",
            "core.bucketing",
            "core.warp_sim",
            "gpu-sim.sched",
            "ioutil.output",
        ] {
            assert!(times.contains_key(layer), "no {layer} span");
        }
        assert_eq!(times["core.engine"].spans, 3, "250 tasks at chunk 100");
        let root = &staged.tracer.spans()[0];
        let total: u64 = times.values().map(|l| l.self_ns).sum();
        assert_eq!(total, root.end_ns - root.start_ns);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probes_agree_on_the_work_done() {
        let w = BATCH_WORKLOADS[0];
        let scoring = scenario_scoring(w.scenario);
        let tasks = generate_tasks(w.scenario, 6, 40);
        let split = kernel_split_probe(&tasks, &scoring).unwrap();
        assert!(split.kernel_blocks > 0 && split.computed_cells >= split.kernel_blocks * 64);
        assert!(split.reference_cells > 0 && split.reference_cells <= split.computed_cells);
        assert!(split.grid_blocks > 0 && split.fill_s > 0.0 && split.both_s > 0.0);
        assert!(split.fill_ns_per_block() > 0.0 && split.run_ns_per_block() > 0.0);
        assert!(bare_kernel_s(&tasks, &scoring) > 0.0);
        let (pack_s, bases) = pack_probe(&tasks, &scoring);
        let want: u64 = tasks.iter().map(|t| (t.ref_len() + t.query_len()) as u64).sum();
        assert_eq!(bases, want);
        assert!(pack_s > 0.0);
    }

    #[test]
    fn tiny_tasks_are_seed_sized_and_seeded() {
        let a = tiny_tasks(3, 500);
        let b = tiny_tasks(3, 500);
        assert!(a.iter().all(|t| (8..=20).contains(&t.ref_len()) && t.ref_len() == t.query_len()));
        assert!(a.iter().zip(&b).all(|(x, y)| x.reference == y.reference && x.query == y.query));
        assert!(a.iter().zip(tiny_tasks(4, 500)).any(|(x, y)| x.reference != y.reference));
        let d = dispatch_probe(1, 2_000, &scenario_scoring("dna-short"));
        assert!(d.ns_per_task_1w.is_finite() && d.chunk_overhead_us.is_finite());
    }
}
