//! The work ledger: every deterministic number a stream produces, pinned.
//!
//! The simulator stands in for the GPU, so the results, the kernel
//! statistics, the warp packing and the simulated schedule are a
//! deterministic function of the tree. This test streams three registered
//! scenarios (seed 1234) through [`BatchEngine::align_stream_with`] at
//! several chunk sizes and thread counts and renders each stream as one line
//! of text: a digest of the results, every [`KernelStats`] field, the chunk
//! and warp counts, and the warp latencies, subwarp block accounting and
//! simulated milliseconds as `f64::to_bits` — so "bit-identical" means
//! exactly that. `tests/work_ledger.txt` holds the expected lines.
//!
//! One column depends on the host: `computed_cells`, the cells the host's own
//! tiles covered, follows the tile side the stream's tasks resolved (32 on an
//! AVX-512 host, 16 on AVX2), so it is rendered keyed by that side —
//! `computed_cells[b32]=…` — and a ledger line holds one value per side.
//! A host checks the side it resolves; each scenario also streams its
//! whole-chunk, one-worker case capped at `avx2`, whose every device column,
//! result and simulated time must equal the default run's, so an AVX-512 host
//! checks the 16-side value too.
//!
//! Every baseline engine has one line per scenario too: a digest of its
//! scores, the cells it computed and its simulated milliseconds. Each is
//! run whole ([`run_baseline`]) and streamed in chunks of 7, and both runs
//! must render the ledger's line: a baseline takes its tasks in incoming
//! order, so its warps are the same at every chunk size.
//!
//! Each plan of the ablation and sensitivity figures (Figs. 9, 10, 11 and
//! 14) has one line per scenario too, run whole on one worker at the
//! baselines' read counts: the stream line's device columns (the host
//! column is the scenario lines' to pin) without the chunk count.
//!
//! On a mismatch a test prints its scenario's differing lines. A change that moves
//! a number on purpose edits the ledger by hand and names every moved line,
//! with its reason, in CHANGES.md; there is no switch that rewrites it.
//!
//! [`BatchEngine::align_stream_with`]: agatha_suite::core::BatchEngine::align_stream_with

use agatha_suite::align::simd::{BackendChoice, WavefrontBackend};
use agatha_suite::align::{GuidedResult, Scoring, Task};
use agatha_suite::baselines::{run_baseline, Baseline};
use agatha_suite::core::{AgathaConfig, OrderingStrategy, Pipeline, StreamOptions};
use agatha_suite::datasets::SCENARIOS;
use agatha_suite::gpu_sim::{GpuSpec, KernelStats, MemCounters};

/// The pinned lines, one per stream, each scenario's in the order
/// [`ledger`] renders them.
const LEDGER: &str = include_str!("work_ledger.txt");

/// Scenarios and their read counts: enough short tasks that chunks of 7
/// and 100 both cut, few enough that a debug build streams them all in a
/// few seconds (one test per scenario, so they run side by side).
const STREAMS: [(&str, usize); 3] = [("dna-short", 101), ("dna-long", 9), ("protein-blosum62", 40)];

/// The baselines' read counts: fewer, to keep the nine engines × two runs
/// of each line within a couple of seconds of a debug build, yet more than
/// two chunks of 7 on `dna-short` and `protein-blosum62`, so a stream cut
/// into small chunks carries runs across chunks on every engine.
const BASELINE_READS: [(&str, usize); 3] =
    [("dna-short", 17), ("dna-long", 2), ("protein-blosum62", 12)];

/// Chunk sizes: below one warp's capacity, a few warps, and the whole
/// stream as one chunk.
const CHUNKS: [usize; 3] = [7, 100, usize::MAX];

const THREADS: [usize; 2] = [1, 2];

/// A plan's label and its configuration.
type Plan = (&'static str, fn() -> AgathaConfig);

/// The plans with a line of their own: the ablation steps below full
/// AGAThA (Fig. 9), rejoining with a sorted order (Fig. 11), slice width 7
/// (Fig. 10) and the plain subwarps of 16 and 32 lanes (Fig. 14).
fn plans() -> [Plan; 8] {
    [
        ("baseline", AgathaConfig::baseline),
        ("+rw", || AgathaConfig::baseline().with_rw(true)),
        ("+rw+sd", || AgathaConfig::baseline().with_rw(true).with_sd(true)),
        ("+rw+sd+sr", || AgathaConfig::baseline().with_rw(true).with_sd(true).with_sr(true)),
        ("sr+sort", || AgathaConfig::agatha().with_ordering(OrderingStrategy::Sorted)),
        ("s=7", || AgathaConfig::agatha().with_slice_width(7)),
        ("subwarp=16", || plain_subwarps(16)),
        ("subwarp=32", || plain_subwarps(32)),
    ]
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn result(&mut self, r: &GuidedResult) {
        // Signed fields go in as their two's-complement bits.
        self.word(r.score as u64);
        self.word(r.max.score as u64);
        self.word(r.max.i as u64);
        self.word(r.max.j as u64);
        self.word(r.qend_score.map_or(u64::MAX, |s| s as u32 as u64));
        self.word(r.stop.antidiag().map_or(u64::MAX, u64::from));
        self.word(u64::from(r.stop.z_dropped()));
        self.word(u64::from(r.antidiags));
        self.word(r.cells);
    }
}

/// Every [`KernelStats`] field, named, the host column keyed by `geometry`.
/// The destructuring is exhaustive, so a new field does not compile until it
/// is added here (and to the ledger).
fn stats_fields(s: &KernelStats, geometry: &str) -> String {
    let KernelStats {
        computed_cells,
        device_cells,
        reference_cells,
        steps,
        idle_lane_steps,
        mem,
        zdropped_tasks,
        tasks,
    } = s;
    let MemCounters { global_anti, global_inter, global_term, global_seq, shared, reduce } = mem;
    format!(
        "computed_cells[{geometry}]={computed_cells} device_cells={device_cells} \
         reference_cells={reference_cells} steps={steps} idle_lane_steps={idle_lane_steps} \
         global_anti={global_anti} global_inter={global_inter} global_term={global_term} \
         global_seq={global_seq} shared={shared} reduce={reduce} \
         zdropped_tasks={zdropped_tasks} tasks={tasks}"
    )
}

/// One baseline engine over a scenario's stream, rendered as its ledger
/// line: whole through [`run_baseline`], or cut into chunks of `chunk` on a
/// two-worker engine. Both must render the same line.
fn baseline_line(
    which: Baseline,
    scenario: &str,
    tasks: &[Task],
    scoring: &Scoring,
    chunk: Option<usize>,
) -> String {
    let (scores, total_cells, elapsed_ms) = match chunk {
        None => {
            let report = run_baseline(which, tasks, scoring, &GpuSpec::rtx_a6000());
            (report.scores, report.total_cells, report.elapsed_ms)
        }
        Some(chunk) => {
            let mut pipeline = which.pipeline(*scoring);
            pipeline.host_threads = 2;
            let mut engine = pipeline.engine();
            let mut run = engine.align_stream_with(tasks.to_vec(), StreamOptions::new(chunk));
            let scores: Vec<i32> =
                run.by_ref().flat_map(|c| c.report.results).map(|r| r.score).collect();
            let summary = run.finish();
            (scores, summary.stats.device_cells, summary.elapsed_ms)
        }
    };
    let mut digest = Digest::new();
    scores.iter().for_each(|&s| digest.word(s as u64));
    format!(
        "baseline={which:?} {scenario} scores={:016x} total_cells={total_cells} elapsed_ms={:016x}",
        digest.0,
        elapsed_ms.to_bits(),
    )
}

/// The host tile side(s) the stream's tasks resolve under `pipeline`, as the
/// key of its host column: `b16`, `b32` — or `b8+b16` were they to differ.
fn geometry(tasks: &[Task], pipeline: &Pipeline) -> String {
    let (cfg, scoring) = (&pipeline.config, &pipeline.scoring);
    let mut sides: Vec<usize> =
        tasks.iter().map(|t| cfg.block_dim_for(t.ref_len(), t.query_len(), scoring)).collect();
    sides.sort_unstable();
    sides.dedup();
    sides.iter().map(|b| format!("b{b}")).collect::<Vec<_>>().join("+")
}

/// One stream, rendered as its ledger line.
fn stream_line(scenario: &str, tasks: &[Task], pipeline: &Pipeline, chunk: usize) -> String {
    let mut engine = pipeline.engine();
    let mut run = engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(chunk));
    let (mut results, mut cycles, mut subwarps) = (Digest::new(), Digest::new(), Digest::new());
    let mut warps = 0usize;
    for c in run.by_ref() {
        c.report.results.iter().for_each(|r| results.result(r));
        warps += c.report.warp_cycles.len();
        c.report.warp_cycles.iter().for_each(|w| cycles.word(w.to_bits()));
        for &(assigned, executed) in &c.report.subwarp_blocks {
            subwarps.word(assigned);
            subwarps.word(executed.to_bits());
        }
    }
    let summary = run.finish();
    let chunk = if chunk == usize::MAX { "whole".to_string() } else { chunk.to_string() };
    format!(
        "{scenario} chunk={chunk} threads={} results={:016x} {} chunks={} warps={warps} \
         warp_cycles={:016x} subwarp_blocks={:016x} elapsed_ms={:016x}",
        pipeline.host_threads,
        results.0,
        stats_fields(&summary.stats, &geometry(tasks, pipeline)),
        summary.chunks,
        cycles.0,
        subwarps.0,
        summary.elapsed_ms.to_bits(),
    )
}

/// Fig. 14's RW+SD kernel on subwarps of `lanes`, without rejoining, in
/// incoming order.
fn plain_subwarps(lanes: usize) -> AgathaConfig {
    AgathaConfig::agatha()
        .with_sr(false)
        .with_ordering(OrderingStrategy::Original)
        .with_subwarp(lanes)
}

/// One plan over a scenario's tasks, run whole on one worker, rendered as
/// its ledger line.
fn plan_line(label: &str, scenario: &str, tasks: &[Task], pipeline: &Pipeline) -> String {
    let mut engine = pipeline.engine();
    let mut run = engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(usize::MAX));
    let report = run.next().expect("one whole chunk").report;
    let summary = run.finish();
    assert_eq!(summary.chunks, 1, "{label} {scenario}: one whole chunk");
    let (mut results, mut cycles, mut subwarps) = (Digest::new(), Digest::new(), Digest::new());
    report.results.iter().for_each(|r| results.result(r));
    report.warp_cycles.iter().for_each(|w| cycles.word(w.to_bits()));
    for &(assigned, executed) in &report.subwarp_blocks {
        subwarps.word(assigned);
        subwarps.word(executed.to_bits());
    }
    let line = format!(
        "plan={label} {scenario} results={:016x} {} warps={} warp_cycles={:016x} \
         subwarp_blocks={:016x} elapsed_ms={:016x}",
        results.0,
        stats_fields(&report.stats, ""),
        report.warp_cycles.len(),
        cycles.0,
        subwarps.0,
        summary.elapsed_ms.to_bits(),
    );
    device_columns(&line).join(" ")
}

/// A scenario's first `reads` tasks of `streams`, and a pipeline on its
/// scoring.
fn scenario(
    name: &str,
    streams: [(&str, usize); 3],
) -> (Vec<Task>, impl Fn(usize, AgathaConfig) -> Pipeline) {
    let (_, reads) = streams.into_iter().find(|s| s.0 == name).expect("a ledgered stream");
    let scenario = SCENARIOS.iter().find(|s| s.name == name).expect("a registered scenario");
    let pipeline = |threads, cfg| {
        let mut pipeline = Pipeline::new((scenario.scoring)(), cfg);
        pipeline.host_threads = threads;
        pipeline
    };
    ((scenario.tasks)(1234, reads), pipeline)
}

/// One scenario's lines, in a fixed order, then its whole-chunk one-worker
/// line streamed again capped at `avx2`.
fn ledger(name: &str) -> (Vec<String>, String) {
    let (tasks, pipeline) = scenario(name, STREAMS);
    let mut lines = Vec::new();
    for chunk in CHUNKS {
        for threads in THREADS {
            lines.push(stream_line(
                name,
                &tasks,
                &pipeline(threads, AgathaConfig::agatha()),
                chunk,
            ));
        }
    }
    let avx2 = AgathaConfig::agatha().with_backend(BackendChoice::Fixed(WavefrontBackend::Avx2));
    (lines, stream_line(name, &tasks, &pipeline(1, avx2), usize::MAX))
}

/// Every baseline's line for one scenario, in [`Baseline::ALL`] order, run
/// whole and in chunks of 7.
fn baseline_ledger(name: &str) -> [Vec<String>; 2] {
    let (tasks, pipeline) = scenario(name, BASELINE_READS);
    let scoring = pipeline(0, AgathaConfig::baseline()).scoring;
    [None, Some(7)].map(|chunk| {
        Baseline::ALL
            .iter()
            .map(|&which| baseline_line(which, name, &tasks, &scoring, chunk))
            .collect()
    })
}

/// Every plan's line for one scenario, in [`plans`] order.
fn plan_ledger(name: &str) -> Vec<String> {
    let (tasks, pipeline) = scenario(name, BASELINE_READS);
    plans()
        .iter()
        .map(|(label, plan)| plan_line(label, name, &tasks, &pipeline(1, plan())))
        .collect()
}

/// `line` without its host column.
fn device_columns(line: &str) -> Vec<&str> {
    line.split(' ').filter(|field| !field.starts_with("computed_cells[")).collect()
}

/// A ledger line as a host that tiles like `rendered` renders it: the host
/// column of every other tile side dropped.
fn as_rendered(ledger_line: &str, rendered: &str) -> String {
    let host = rendered.split(' ').find(|f| f.starts_with("computed_cells[")).unwrap_or("");
    let key = &host[..host.find('=').map_or(0, |k| k + 1)];
    let keep = |field: &&str| !field.starts_with("computed_cells[") || field.starts_with(key);
    ledger_line.split(' ').filter(keep).collect::<Vec<_>>().join(" ")
}

/// Compare one scenario's lines with its lines in the ledger, printing
/// every line that differs. The capped stream is held to its default run on
/// every column but the host's, and to the ledger line of that run.
fn check(name: &str) {
    let (got, capped) = ledger(name);
    let whole = CHUNKS.len() * THREADS.len() - THREADS.len();
    assert_eq!(
        device_columns(&capped),
        device_columns(&got[whole]),
        "{name}: capping the backend at avx2 moved a column the host plan must not move"
    );
    let prefix = format!("{name} ");
    let want: Vec<&str> = LEDGER.lines().filter(|l| l.starts_with(&prefix)).collect();
    assert_eq!(want.len(), got.len(), "{name}: one ledger line per stream");
    let mut differing = Vec::new();
    for (g, w) in got.iter().zip(&want).chain([(&capped, &want[whole])]) {
        let w = as_rendered(w, g);
        if *g != w {
            differing.push(format!("  ledger: {w}\n  now:    {g}"));
        }
    }
    assert!(
        differing.is_empty(),
        "{} of {} work-ledger lines of {name} differ:\n{}",
        differing.len(),
        got.len() + 1,
        differing.join("\n")
    );
}

/// Compare one scenario's baseline lines, whole and chunked, with the
/// ledger's, printing every line that differs.
fn check_baselines(name: &str) {
    let suffix = format!(" {name} ");
    let want: Vec<&str> =
        LEDGER.lines().filter(|l| l.starts_with("baseline=") && l.contains(&suffix)).collect();
    let mut differing = Vec::new();
    for (got, shape) in baseline_ledger(name).iter().zip(["whole", "chunk 7"]) {
        assert_eq!(want.len(), got.len(), "{name}: one ledger line per baseline engine");
        for (g, w) in got.iter().zip(&want).filter(|(g, w)| g != w) {
            differing.push(format!("  ledger: {w}\n  {shape}: {g}"));
        }
    }
    assert!(
        differing.is_empty(),
        "{} baseline lines of {name} differ:\n{}",
        differing.len(),
        differing.join("\n")
    );
}

/// Compare one scenario's plan lines with the ledger's, printing every
/// line that differs.
fn check_plans(name: &str) {
    let suffix = format!(" {name} ");
    let want: Vec<&str> =
        LEDGER.lines().filter(|l| l.starts_with("plan=") && l.contains(&suffix)).collect();
    let got = plan_ledger(name);
    assert_eq!(want.len(), got.len(), "{name}: one ledger line per plan");
    let differing: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  ledger: {w}\n  now:    {g}"))
        .collect();
    assert!(
        differing.is_empty(),
        "{} plan lines of {name} differ:\n{}",
        differing.len(),
        differing.join("\n")
    );
}

#[test]
fn the_dna_short_ledger_is_unchanged() {
    check("dna-short");
}

#[test]
fn the_dna_long_ledger_is_unchanged() {
    check("dna-long");
}

#[test]
fn the_protein_blosum62_ledger_is_unchanged() {
    check("protein-blosum62");
}

#[test]
fn the_dna_short_baselines_are_unchanged() {
    check_baselines("dna-short");
}

#[test]
fn the_dna_long_baselines_are_unchanged() {
    check_baselines("dna-long");
}

#[test]
fn the_protein_blosum62_baselines_are_unchanged() {
    check_baselines("protein-blosum62");
}

#[test]
fn the_dna_short_plans_are_unchanged() {
    check_plans("dna-short");
}

#[test]
fn the_dna_long_plans_are_unchanged() {
    check_plans("dna-long");
}

#[test]
fn the_protein_blosum62_plans_are_unchanged() {
    check_plans("protein-blosum62");
}

#[test]
fn every_ledger_line_belongs_to_a_stream() {
    let lines = LEDGER.lines().filter(|l| !l.is_empty());
    let expected =
        STREAMS.len() * (CHUNKS.len() * THREADS.len() + Baseline::ALL.len() + plans().len());
    assert_eq!(lines.clone().count(), expected, "one line per stream");
    for line in lines {
        let mut fields = line.split(' ');
        let mut scenario = fields.next().unwrap_or_default();
        if let Some(engine) = scenario.strip_prefix("baseline=") {
            assert!(
                Baseline::ALL.iter().any(|b| format!("{b:?}") == engine),
                "unknown engine: {line}"
            );
            scenario = fields.next().unwrap_or_default();
        } else if let Some(plan) = scenario.strip_prefix("plan=") {
            assert!(plans().iter().any(|p| p.0 == plan), "unknown plan: {line}");
            scenario = fields.next().unwrap_or_default();
        }
        assert!(STREAMS.iter().any(|s| s.0 == scenario), "unknown stream: {line}");
    }
}
