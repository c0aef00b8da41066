//! One benchmark run of one workload, in either mode: the untraced
//! end-to-end run (the real binary as a subprocess) or the traced staged
//! replay (in-process, per layer). Both check their outputs against the
//! scalar oracle and report what they found beside the numbers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use agatha_align::block::FillTier;
use agatha_align::{Scoring, Task, MAX_BLOCK};
use agatha_core::AgathaConfig;

use crate::batch::{self, first_mismatch};
use crate::child::{target_dir, ChildUsage};
use crate::json::Json;
use crate::measure::{highest_supported_percentile, median, Summary};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay::{
    dispatch_probe, engine_stream, file_stream_s, kernel_split_probe, median_layer_seconds,
    pack_probe, staged_replay, Staged, CLI_DEFAULT_CHUNK, DISPATCH_TASKS,
};
use crate::serve_load::{
    closed_loop, grace, open_loop_step, stats_count, stats_ms, ClosedResult, Corpus, Daemon,
    StepResult,
};
use crate::serve_replay::staged_requests;
use crate::workloads::{quick_size, scenario_scoring, Admission, BatchWorkload, ServeWorkload};

/// `trace.staged_over_e2e` outside this band means the replay no longer
/// describes the program (see the README for how the band was set).
pub const STAGED_BAND: (f64, f64) = (0.6, 1.4);

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// ≈ 1/20 sizes, one rep: a smoke run whose numbers compare with
    /// nothing.
    pub quick: bool,
}

/// One reported number and, where it is a statistic of repeated samples
/// inside the run, those samples' summary.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<Summary>,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    /// Operations attempted: scores checked, or requests sent at the
    /// reference rate.
    pub attempted: u64,
    /// Operations that failed: wrong scores, or requests refused or left
    /// unanswered.
    pub failed: u64,
    /// Every output that was wrong, first offence first. A refused request
    /// is a failed operation, not a wrong output.
    pub problems: Vec<String>,
    /// Observations that do not fail the run but qualify its numbers.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    pub detail: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The run's result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every metric with all its digits.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.to_string()))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ];
            if let Some(s) = &m.samples {
                fields.push(("samples".to_string(), s.to_json()));
            }
            (m.name, Json::Obj(fields))
        });
        Json::obj([
            ("workload", Json::Str(self.workload.to_string())),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("problems", Json::Arr(self.problems.iter().cloned().map(Json::Str).collect())),
            ("notes", Json::Arr(self.notes.iter().cloned().map(Json::Str).collect())),
            ("metrics", Json::obj(metrics)),
            ("detail", self.detail.clone()),
        ])
    }
}

/// Scratch directory of a workload, inside cargo's target directory.
pub fn work_dir(workload: &str) -> PathBuf {
    target_dir().join("benchmark").join(workload)
}

fn end_to_end_metrics(values: &BTreeMap<&'static str, (f64, Option<Summary>)>) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = values.get(m.def.name).cloned().expect("every metric computed");
            Metric { name: m.def.name, unit: m.def.unit, value, samples }
        })
        .collect()
}

/// Every per-layer metric in declaration order; a layer the workload never
/// enters reads 0.
fn per_layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(PER_LAYER.iter().any(|m| m.name == *name), "undeclared per-layer metric {name}");
    }
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: values.get(m.name).copied().unwrap_or(0.0),
            samples: None,
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The untraced end-to-end run of a batch workload.
pub fn batch_end_to_end(
    binary: &Path,
    w: BatchWorkload,
    opts: RunOpts,
) -> Result<RunResult, String> {
    let pairs = if opts.quick { quick_size(w.pairs, 200) } else { w.pairs };
    let p = batch::prepare(w, opts.seed, pairs, &work_dir(w.name))?;
    let backend = batch::check_binary_is_vectorised(binary, &p)?;
    // --quick times a single rep; a full run times reps for `seconds`.
    let (seconds, min_reps) = if opts.quick { (0.0, 1) } else { (opts.seconds, 3) };
    let e = batch::measure(binary, &p, seconds, min_reps)?;

    // The fastest quartile of the reps, not their median: interference from
    // the host only ever adds time, and on this host it comes in bursts
    // that last for minutes (see the README), so the fast quartile repeats
    // from run to run where the median does not.
    let wall_ms = Summary::of(&e.reps.iter().map(|r| r.wall_s * 1e3).collect::<Vec<_>>());
    let rate = Summary::of(&e.reps.iter().map(|r| pairs as f64 / r.wall_s).collect::<Vec<_>>());
    let cpu_us =
        Summary::of(&e.reps.iter().map(|r| r.cpu_s * 1e6 / pairs as f64).collect::<Vec<_>>());
    let setup_s = Summary::of(&e.setup_s);
    let values = BTreeMap::from([
        ("tasks_per_s", (rate.q3, Some(rate))),
        ("latency_ms", (wall_ms.q1, Some(wall_ms))),
        ("cpu_us_per_task", (cpu_us.q1, Some(cpu_us))),
        ("peak_rss_mb", (e.peak_rss_mb, None)),
        ("setup_s", (setup_s.q1, Some(setup_s))),
    ]);
    Ok(RunResult {
        workload: w.name,
        traced: false,
        attempted: (pairs * e.reps.len()) as u64,
        failed: e.failed as u64,
        problems: e.problems.clone(),
        notes: Vec::new(),
        metrics: end_to_end_metrics(&values),
        detail: Json::obj([
            ("pairs", Json::Num(pairs as f64)),
            ("reps", Json::Num(e.reps.len() as f64)),
            ("sim_kernel_ms", Json::Num(e.kernel_ms)),
            ("fill_backend", Json::Str(backend)),
            ("input_bases", Json::Num(p.input.bases as f64)),
        ]),
    })
}

/// Tier and geometry shares of `tasks` under the default configuration.
fn dispatch_shares(tasks: &[Task], scoring: &Scoring, out: &mut BTreeMap<&'static str, f64>) {
    let cfg = AgathaConfig::agatha();
    let (mut i16s, mut i32s, mut wide) = (0u64, 0u64, 0u64);
    for t in tasks {
        match cfg.fill_tier_for(t.ref_len(), t.query_len(), scoring) {
            FillTier::I16 => i16s += 1,
            FillTier::I32 => i32s += 1,
            FillTier::Scalar => {}
        }
        wide += u64::from(cfg.block_dim_for(t.ref_len(), t.query_len(), scoring) == MAX_BLOCK);
    }
    let n = tasks.len() as f64;
    out.insert("align.block.tier_share_i16", ratio(i16s as f64, n));
    out.insert("align.block.tier_share_i32", ratio(i32s as f64, n));
    out.insert("align.block.geom_share_b16", ratio(wide as f64, n));
}

/// The kernel-side layers over `tasks`: what the kernel computed, and its
/// cost per block split into fill, fold and the rest (per-task reset,
/// profile build, slice and unit recording).
fn kernel_layers(
    tasks: &[Task],
    scoring: &Scoring,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let k = kernel_split_probe(tasks, scoring)?;
    out.insert("align.block.blocks", k.kernel_blocks as f64);
    out.insert("align.block.cells_computed", k.computed_cells as f64);
    out.insert(
        "align.block.useful_cell_ratio",
        ratio(k.reference_cells as f64, k.computed_cells as f64),
    );
    out.insert("align.block.fill_ns_per_block", k.fill_ns_per_block());
    out.insert("align.diag.fold_ns_per_block", k.fold_ns_per_block());
    out.insert("core.kernel.run_ns_per_block", k.run_ns_per_block());
    // Cells computed, not cells useful: the rate of the work actually done.
    out.insert("core.kernel.gcups", ratio(k.computed_cells as f64, k.kernel_s * 1e9));
    out.insert(
        "core.kernel.overhead_share",
        1.0 - ratio(k.fill_ns_per_block() + k.fold_ns_per_block(), k.run_ns_per_block()),
    );
    Ok(())
}

fn write_trace(workload: &str, tracer: &crate::spans::Tracer) -> Result<PathBuf, String> {
    let path = target_dir().join("benchmark").join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(path.parent().expect("path has a parent"))
        .map_err(|e| e.to_string())?;
    std::fs::write(&path, tracer.to_json().render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// The traced staged replay of a batch workload, on a prefix-sized input
/// generated from the same seed.
pub fn batch_traced(binary: &Path, w: BatchWorkload, opts: RunOpts) -> Result<RunResult, String> {
    let pairs = if opts.quick { quick_size(w.replay_pairs, 200) } else { w.replay_pairs };
    let repeats = if opts.quick { 1 } else { 3 };
    let dir = work_dir(w.name).join("trace");
    let p = batch::prepare(w, opts.seed, pairs, &dir)?;
    let mut problems = Vec::new();
    let mut notes = Vec::new();

    // The untraced program on the replay's own input: the wall time the
    // staged layers must add up to, and the outputs they must reproduce.
    let mut untraced = Vec::new();
    let mut program = None;
    for _ in 0..repeats {
        let run = batch::run_once(binary, &p, &dir.join("out"), false)?;
        untraced.push(run.usage);
        program = Some((run.scores, run.kernel_ms));
    }
    let (program_scores, program_ms) = program.expect("at least one untraced run");
    if let Some(why) = first_mismatch(&program_scores, &p.oracle) {
        problems.push(format!("{}: subprocess: {why}", w.name));
    }

    let mut replays: Vec<Staged> = Vec::new();
    for _ in 0..repeats {
        replays.push(staged_replay(&w, &p.input, &p.scoring, &dir.join("staged-out"))?);
    }
    let staged = &replays[0];
    let failed = staged.scores.iter().zip(&p.oracle).filter(|(g, o)| g != o).count();
    if let Some(why) = first_mismatch(&staged.scores, &p.oracle) {
        problems.push(format!("{}: staged replay: {why}", w.name));
    }
    if staged.scores != program_scores {
        problems.push(format!("{}: staged replay and subprocess scores differ", w.name));
    }
    if replays.iter().any(|r| r.counts != staged.counts) {
        problems.push(format!("{}: staged replay counts changed between replays", w.name));
    }
    // time.json keeps four decimals.
    if (staged.counts.kernel_ms * 1e4).round() != (program_ms * 1e4).round() {
        problems.push(format!(
            "{}: staged replay simulates {} ms, the program {program_ms} ms",
            w.name, staged.counts.kernel_ms
        ));
    }

    // Real engine streams on the same tasks: the staging the replay copies
    // (one worker), the pool path (two), and both ways of feeding it from
    // the files. Alternated, so a drift of the host hits each alike.
    let chunk = w.chunk.unwrap_or(CLI_DEFAULT_CHUNK);
    let (mut one_worker_s, mut two_workers_s) = (Vec::new(), Vec::new());
    let (mut inline_s, mut prefetched_s) = (Vec::new(), Vec::new());
    let mut one_worker = None;
    for _ in 0..repeats {
        let stream = engine_stream(&p.tasks, &p.scoring, 1, chunk);
        one_worker_s.push(stream.wall_s);
        one_worker.get_or_insert(stream);
        two_workers_s.push(engine_stream(&p.tasks, &p.scoring, 2, chunk).wall_s);
        inline_s.push(file_stream_s(&w, &p.input, &p.scoring, 0)?);
        prefetched_s.push(file_stream_s(&w, &p.input, &p.scoring, 2)?);
    }
    let one_worker = one_worker.expect("at least one engine stream");
    if one_worker.stats != staged.counts.stats
        || one_worker.chunks as u64 != staged.counts.chunks
        || one_worker.kernel_ms != staged.counts.kernel_ms
        || one_worker.scores != staged.scores
    {
        problems.push(format!("{}: staged replay diverges from BatchEngine", w.name));
    }
    let (one_worker_s, two_workers_s) = (median(&one_worker_s), median(&two_workers_s));
    let (inline_s, prefetched_s) = (median(&inline_s), median(&prefetched_s));
    let dispatch = dispatch_probe(
        opts.seed,
        if opts.quick { quick_size(DISPATCH_TASKS, 2_000) } else { DISPATCH_TASKS },
        &p.scoring,
    );
    let (pack_s, pack_bases) = pack_probe(&p.tasks, &p.scoring);

    let layers = median_layer_seconds(&replays);
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let c = &staged.counts;
    let tasks = c.tasks as f64;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert(
        "ioutil.fasta.parse_ns_per_base",
        ratio(layer("ioutil.fasta") * 1e9, p.input.bases as f64),
    );
    v.insert(
        "ioutil.fasta.parse_mb_per_s",
        ratio(p.input.bytes as f64 / 1e6, layer("ioutil.fasta")),
    );
    v.insert("ioutil.fasta.tasks", tasks);
    v.insert("ioutil.fasta.bases", p.input.bases as f64);
    v.insert("ioutil.output.write_ns_per_task", ratio(layer("ioutil.output") * 1e9, tasks));
    v.insert("align.pack.pack_ns_per_base", ratio(pack_s * 1e9, pack_bases as f64));
    dispatch_shares(&p.tasks, &p.scoring, &mut v);
    kernel_layers(&p.tasks, &p.scoring, &mut v)?;
    if v["align.block.blocks"] != c.blocks as f64
        || v["align.block.cells_computed"] != c.stats.computed_cells as f64
    {
        problems
            .push(format!("{}: kernel probe and staged replay computed different blocks", w.name));
    }
    v.insert("align.diag.zdrop_share", ratio(c.stats.zdropped_tasks as f64, tasks));
    v.insert("core.engine.dispatch_ns_per_task_1w", dispatch.ns_per_task_1w);
    v.insert("core.engine.dispatch_ns_per_task_2w", dispatch.ns_per_task_2w);
    v.insert("core.engine.chunk_overhead_us", dispatch.chunk_overhead_us);
    v.insert("core.engine.scaling_eff_2t", ratio(one_worker_s, 2.0 * two_workers_s));
    v.insert("core.engine.chunks", c.chunks as f64);
    v.insert("core.engine.recycled_buffers", one_worker.recycled_buffers as f64);
    v.insert("core.prefetch.overlap_gain", ratio(inline_s, prefetched_s));
    v.insert("core.bucketing.build_ns_per_task", ratio(layer("core.bucketing") * 1e9, tasks));
    v.insert("core.bucketing.warps", c.warps as f64);
    v.insert("core.bucketing.warp_fill_ratio", ratio(tasks, (c.warps * c.warp_capacity) as f64));
    v.insert("core.bucketing.carry_deferred", c.carry_deferred as f64);
    v.insert("core.warp_sim.sim_ns_per_task", ratio(layer("core.warp_sim") * 1e9, tasks));
    v.insert("core.warp_sim.idle_lane_share", c.idle_lane_share);
    v.insert(
        "gpu-sim.sched.schedule_ns_per_warp",
        ratio(layer("gpu-sim.sched") * 1e9, c.warps as f64),
    );
    v.insert("gpu-sim.sched.utilization", c.utilization);
    v.insert("gpu-sim.sched.sim_kernel_ms", c.kernel_ms);
    v.insert("gpu-sim.stats.eval_ns_per_task", ratio(layer("gpu-sim.stats") * 1e9, tasks));
    v.insert(
        "gpu-sim.stats.global_tx_per_cell",
        ratio(c.stats.mem.global_total() as f64, c.stats.computed_cells as f64),
    );
    v.insert("gpu-sim.stats.runahead_ratio", c.stats.runahead_ratio());

    let staged_s: f64 = layers.values().sum();
    let untraced_wall = median(&untraced.iter().map(|u| u.wall_s).collect::<Vec<_>>());
    let untraced_cpu = median(&untraced.iter().map(|u| u.cpu_s).collect::<Vec<_>>());
    // Against the program's CPU seconds, not its wall time: the replay is
    // one thread, the program up to two.
    let staged_over_e2e = ratio(staged_s, untraced_cpu);
    v.insert("trace.staged_over_e2e", staged_over_e2e);
    v.insert("trace.spans", staged.tracer.spans().len() as f64);
    if !opts.quick && !(STAGED_BAND.0..=STAGED_BAND.1).contains(&staged_over_e2e) {
        notes.push(format!(
            "{}: staged layers sum to {staged_over_e2e:.3} of the untraced CPU time, outside \
             {}-{}: the replay no longer describes the program",
            w.name, STAGED_BAND.0, STAGED_BAND.1
        ));
    }
    let trace_path = write_trace(w.name, &replays[replays.len() - 1].tracer)?;

    let layer_json = Json::obj(layers.iter().map(|(k, s)| (*k, Json::Num(*s))));
    Ok(RunResult {
        workload: w.name,
        traced: true,
        attempted: c.tasks,
        failed: failed as u64,
        problems,
        notes,
        metrics: per_layer_metrics(&v),
        detail: Json::obj([
            ("replay_pairs", Json::Num(pairs as f64)),
            ("replays", Json::Num(repeats as f64)),
            ("layer_self_s", layer_json),
            ("staged_s", Json::Num(staged_s)),
            ("untraced_wall_s", Json::Num(untraced_wall)),
            ("untraced_cpu_s", Json::Num(untraced_cpu)),
            ("engine_1w_s", Json::Num(one_worker_s)),
            ("engine_2w_s", Json::Num(two_workers_s)),
            ("file_inline_s", Json::Num(inline_s)),
            ("file_prefetched_s", Json::Num(prefetched_s)),
            ("trace_file", Json::Str(trace_path.display().to_string())),
        ]),
    })
}

/// One serve phase: what the client saw, what the phase's own daemon cost,
/// its peak RSS and the `serve_stats.json` it wrote.
pub struct Phase<T> {
    pub client: T,
    pub usage: ChildUsage,
    pub peak_rss_mb: f64,
    pub stats: Json,
}

/// Everything one pass over the serve phases measured. Each phase gets a
/// fresh daemon, so each has its own process cost, statistics file and
/// set-up sample.
pub struct ServeLoad {
    pub closed: Phase<ClosedResult>,
    /// Ladder steps in ascending rate.
    pub steps: Vec<Phase<StepResult>>,
    pub setup_s: Vec<f64>,
}

impl ServeLoad {
    pub fn reference(&self, w: &ServeWorkload) -> &Phase<StepResult> {
        &self.steps[w.ref_step]
    }

    pub fn top(&self) -> &Phase<StepResult> {
        self.steps.last().expect("the ladder has steps")
    }

    /// Highest ladder rate that, like every rate below it, met the limit.
    pub fn max_ok_rps(&self, w: &ServeWorkload) -> f64 {
        self.steps
            .iter()
            .take_while(|s| s.client.meets_limit(w))
            .last()
            .map_or(0.0, |s| f64::from(s.client.rate_rps))
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.steps.iter().map(|s| s.peak_rss_mb).fold(self.closed.peak_rss_mb, f64::max)
    }

    pub fn first_wrong(&self) -> Option<String> {
        self.closed
            .client
            .first_wrong
            .clone()
            .or_else(|| self.steps.iter().find_map(|s| s.client.first_wrong.clone()))
    }

    /// Notes about ladder steps whose generator fell behind its schedule.
    pub fn lag_notes(&self, w: &ServeWorkload) -> Vec<String> {
        self.steps
            .iter()
            .map(|s| &s.client)
            .filter(|s| !s.valid(w))
            .map(|s| {
                format!(
                    "{}: step {} req/s invalid: p99 send lag {:.3} ms exceeds a tenth of the {} ms \
                     limit",
                    w.name,
                    s.rate_rps,
                    s.send_lag_p99_ms(),
                    w.limit_ms
                )
            })
            .collect()
    }

    pub fn to_json(&self, w: &ServeWorkload) -> Json {
        let closed = &self.closed.client;
        Json::obj([
            (
                "closed",
                Json::obj([
                    ("outstanding", Json::Num(w.closed_outstanding as f64)),
                    ("seconds", Json::Num(closed.seconds)),
                    ("rps", Json::Num(closed.rps())),
                    (
                        "window_rps",
                        Json::Arr(closed.window_rps().into_iter().map(Json::Num).collect()),
                    ),
                    ("outcomes", closed.outcomes.to_json()),
                ]),
            ),
            ("ladder", Json::Arr(self.steps.iter().map(|s| s.client.to_json(w)).collect())),
            ("max_ok_rps", Json::Num(self.max_ok_rps(w))),
            ("limit_ms", Json::Num(w.limit_ms)),
            ("admission", admission_json(w.admission)),
            ("ref_admission", admission_json(w.ref_admission)),
        ])
    }
}

fn admission_json(a: Admission) -> Json {
    Json::obj([
        ("max_queue", Json::Num(a.max_queue as f64)),
        ("deadline_ms", Json::Num(a.deadline_ms as f64)),
    ])
}

/// Split `seconds` over the phases: a fifth closed loop, three tenths at the
/// reference rate (the latency metrics need its sample count), the rest
/// shared by the other steps.
pub fn phase_seconds(w: &ServeWorkload, seconds: f64) -> (f64, Vec<f64>) {
    let others = (w.ladder_rps.len() - 1) as f64;
    let steps = (0..w.ladder_rps.len())
        .map(|i| if i == w.ref_step { 0.3 * seconds } else { 0.5 * seconds / others })
        .collect();
    (0.2 * seconds, steps)
}

/// Daemons started and stopped before each phase for their set-up time
/// alone: with the phase's own that is thirty samples spread over the run,
/// where the six phases by themselves gave a median of six.
const SETUP_ONLY_DAEMONS: usize = 4;

/// Run one phase against a daemon of its own.
fn phase<T>(
    binary: &Path,
    w: &ServeWorkload,
    admission: Admission,
    dir: &Path,
    setup_s: &mut Vec<f64>,
    run: impl FnOnce(std::net::SocketAddr) -> Result<T, String>,
) -> Result<Phase<T>, String> {
    for _ in 0..SETUP_ONLY_DAEMONS {
        let daemon = Daemon::spawn(binary, w, admission, dir, setup_s.len())?;
        setup_s.push(daemon.setup_s);
        daemon.shutdown()?;
    }
    let daemon = Daemon::spawn(binary, w, admission, dir, setup_s.len())?;
    setup_s.push(daemon.setup_s);
    let client = run(daemon.addr);
    // Stop the daemon before looking at the client's result, so a failed
    // phase does not leave one running.
    let (usage, peak_rss_mb, stats) = daemon.shutdown()?;
    Ok(Phase { client: client?, usage, peak_rss_mb, stats })
}

pub fn serve_load(
    binary: &Path,
    w: &ServeWorkload,
    corpus: &Corpus,
    seconds: f64,
) -> Result<ServeLoad, String> {
    let dir = work_dir(w.name);
    let (closed_s, step_s) = phase_seconds(w, seconds);
    let mut setup_s = Vec::new();
    let closed = phase(binary, w, w.admission, &dir.join("closed"), &mut setup_s, |addr| {
        closed_loop(addr, corpus, w.closed_outstanding, closed_s, grace(w.admission))
    })?;
    let mut steps = Vec::new();
    for (i, (&rate, &secs)) in w.ladder_rps.iter().zip(&step_s).enumerate() {
        let admission = w.step_admission(i);
        let dir = dir.join(format!("step-{rate}"));
        steps.push(phase(binary, w, admission, &dir, &mut setup_s, |addr| {
            open_loop_step(addr, corpus, w, rate, secs, grace(admission))
        })?);
    }
    Ok(ServeLoad { closed, steps, setup_s })
}

fn corpus_for(w: &ServeWorkload, opts: RunOpts) -> Corpus {
    Corpus::generate(w, opts.seed, if opts.quick { quick_size(w.corpus, 128) } else { w.corpus })
}

/// The median over a phase's half-second windows, or `whole` when the phase
/// was too short to hold one (`--quick`).
fn median_of_windows(windows: &[f64], whole: f64) -> (f64, Option<Summary>) {
    if windows.is_empty() {
        (whole, None)
    } else {
        (median(windows), Some(Summary::of(windows)))
    }
}

/// The untraced end-to-end run of the serve workload.
pub fn serve_end_to_end(
    binary: &Path,
    w: ServeWorkload,
    opts: RunOpts,
) -> Result<RunResult, String> {
    let corpus = corpus_for(&w, opts);
    let load = serve_load(binary, &w, &corpus, opts.seconds)?;
    let closed = &load.closed;
    let reference = &load.reference(&w).client;
    let o = reference.outcomes;
    let setup_s = Summary::of(&load.setup_s);

    // Medians over half-second windows: a stall of the host spoils the
    // windows it falls in, a change of the daemon moves all of them.
    let values = BTreeMap::from([
        ("tasks_per_s", median_of_windows(&closed.client.window_rps(), closed.client.rps())),
        (
            "latency_ms",
            median_of_windows(&reference.window_percentiles_ms(50.0), reference.p50_ms()),
        ),
        (
            "cpu_us_per_task",
            (ratio(closed.usage.cpu_s * 1e6, closed.client.outcomes.ok as f64), None),
        ),
        ("peak_rss_mb", (load.peak_rss_mb(), None)),
        // The fastest quartile, like the batch workloads' (and for their reason).
        ("setup_s", (setup_s.q1, Some(setup_s))),
    ]);
    let mut detail = load.to_json(&w).fields().to_vec();
    detail.push(("corpus".to_string(), Json::Num(corpus.len() as f64)));
    if let Some(p) = highest_supported_percentile(reference.answered.len()) {
        detail.push(("highest_supported_percentile".to_string(), Json::Num(p)));
        detail.push((
            "highest_supported_percentile_ms".to_string(),
            Json::Num(reference.latency_percentile_ms(p)),
        ));
    }
    Ok(RunResult {
        workload: w.name,
        traced: false,
        attempted: o.sent,
        // A request sent at the reference rate that did not get a correct
        // `ok` reply. A late reply is not a failure; it is the tail.
        failed: o.sent - o.ok,
        problems: load.first_wrong().into_iter().collect(),
        notes: load.lag_notes(&w),
        metrics: end_to_end_metrics(&values),
        detail: Json::Obj(detail),
    })
}

/// The traced run of the serve workload: the same load against the real
/// daemon for its own per-phase statistics, plus the in-process staged
/// replay of the request path and the kernel-layer probes on its tasks.
pub fn serve_traced(binary: &Path, w: ServeWorkload, opts: RunOpts) -> Result<RunResult, String> {
    let corpus = corpus_for(&w, opts);
    let scoring = scenario_scoring(w.scenario);
    let load = serve_load(binary, &w, &corpus, opts.seconds)?;
    let reference = load.reference(&w);
    let top = load.top();

    let requests = corpus.len() as u64;
    let staged = staged_requests(&corpus, &w, &scoring, requests, w.closed_outstanding)?;
    let mut problems: Vec<String> = load.first_wrong().into_iter().collect();
    let failed =
        (0..requests).filter(|&id| staged.scores[id as usize] != corpus.expected_score(id)).count();
    if failed > 0 {
        problems.push(format!(
            "{}: staged request replay: {failed} scores differ from the oracle",
            w.name
        ));
    }

    let times = staged.tracer.layer_times();
    let secs = |name: &str| times.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e9);
    let n = requests as f64;
    let bases: u64 = staged.tasks.iter().map(|t| (t.ref_len() + t.query_len()) as u64).sum();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("serve.protocol.parse_ns_per_req", ratio(secs("serve.protocol.parse") * 1e9, n));
    v.insert("serve.protocol.format_ns_per_reply", ratio(secs("serve.protocol.format") * 1e9, n));
    v.insert("serve.window.offer_collect_ns_per_req", ratio(secs("serve.window") * 1e9, n));
    v.insert("align.pack.pack_ns_per_base", ratio(secs("align.pack") * 1e9, bases as f64));
    dispatch_shares(&staged.tasks, &scoring, &mut v);
    kernel_layers(&staged.tasks, &scoring, &mut v)?;

    // The daemon's own view: queueing and service at the reference rate,
    // refusals at the top of the ladder.
    let at_ref = &reference.stats;
    v.insert("serve.daemon.queue_p50_ms", stats_ms(at_ref, "queue_latency", "p50_us"));
    v.insert("serve.daemon.queue_p99_ms", stats_ms(at_ref, "queue_latency", "p99_us"));
    v.insert("serve.daemon.service_p50_ms", stats_ms(at_ref, "service_latency", "p50_us"));
    v.insert("serve.daemon.service_p99_ms", stats_ms(at_ref, "service_latency", "p99_us"));
    v.insert(
        "serve.daemon.mean_batch",
        ratio(stats_count(at_ref, "completed"), stats_count(at_ref, "batches")),
    );
    v.insert("serve.daemon.rejected", stats_count(&top.stats, "rejected"));
    v.insert("serve.daemon.dropped_deadline", stats_count(&top.stats, "dropped_deadline"));
    v.insert("serve.daemon.starved", stats_count(&top.stats, "starved"));
    // The client's view over whole phases: a stall of the host shows here
    // even where the end-to-end figures step over it.
    v.insert("serve.load.closed_rps", load.closed.client.rps());
    v.insert("serve.load.p50_ms", reference.client.p50_ms());
    v.insert("serve.load.p99_ms", reference.client.p99_ms());
    let window_p99 = reference.client.window_percentiles_ms(99.0);
    v.insert(
        "serve.load.window_p99_ms",
        if window_p99.is_empty() { reference.client.p99_ms() } else { median(&window_p99) },
    );
    v.insert("serve.load.max_ok_rps", load.max_ok_rps(&w));
    v.insert("serve.load.overload_goodput_rps", top.client.goodput_rps());
    let refused =
        top.client.outcomes.rejected + top.client.outcomes.dropped + top.client.outcomes.unanswered;
    v.insert("serve.load.overload_refused", refused as f64);
    v.insert("serve.load.send_lag_p99_ms", reference.client.send_lag_p99_ms());

    // Share of the closed loop's wall time per request that the staged
    // layers account for; the rest is sockets, threads and window wait.
    let staged_s: f64 = times.values().map(|l| l.self_ns as f64 / 1e9).sum();
    v.insert("trace.staged_over_e2e", ratio(staged_s / n, 1.0 / load.closed.client.rps()));
    v.insert("trace.spans", staged.tracer.spans().len() as f64);
    let trace_path = write_trace(w.name, &staged.tracer)?;

    let mut detail = load.to_json(&w).fields().to_vec();
    detail.push(("staged_requests".to_string(), Json::Num(n)));
    detail.push(("staged_batches".to_string(), Json::Num(staged.batches as f64)));
    detail.push(("trace_file".to_string(), Json::Str(trace_path.display().to_string())));
    Ok(RunResult {
        workload: w.name,
        traced: true,
        attempted: requests,
        failed: failed as u64,
        problems,
        notes: load.lag_notes(&w),
        metrics: per_layer_metrics(&v),
        detail: Json::Obj(detail),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SERVE_OPEN;

    fn result(failed: u64, problems: Vec<String>) -> RunResult {
        RunResult {
            workload: "short-batch",
            traced: false,
            attempted: 10,
            failed,
            problems,
            notes: Vec::new(),
            metrics: vec![
                Metric { name: "latency_ms", unit: "ms", value: 1.2034, samples: None },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.8127,
                    samples: Some(Summary::of(&[0.8127])),
                },
            ],
            detail: Json::Null,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result(0, Vec::new()).result_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.fields().len(), 2);
        let latency = m.get("latency_ms").unwrap();
        assert_eq!(latency.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(latency.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(latency.fields().len(), 2);
    }

    #[test]
    fn wrong_outputs_make_a_run_incorrect_and_refusals_do_not() {
        assert!(result(0, Vec::new()).correct());
        assert!(result(1, Vec::new()).correct(), "a refused request is not a wrong output");
        assert!(!result(0, vec!["pair 3".to_string()]).correct());
        let doc = result(2, vec!["pair 3".to_string()]).to_json();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn per_layer_lines_carry_every_declared_metric() {
        let metrics = per_layer_metrics(&BTreeMap::from([("trace.spans", 7.0)]));
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|m| crate::metrics::valid_name(m.name)));
        assert_eq!(metrics.iter().find(|m| m.name == "trace.spans").unwrap().value, 7.0);
        assert_eq!(metrics.iter().find(|m| m.name == "serve.daemon.rejected").unwrap().value, 0.0);
    }

    #[test]
    fn phases_share_out_the_whole_run() {
        let (closed, steps) = phase_seconds(&SERVE_OPEN, 20.0);
        assert_eq!(closed, 4.0);
        assert_eq!(steps, vec![2.5, 6.0, 2.5, 2.5, 2.5]);
        assert!((closed + steps.iter().sum::<f64>() - 20.0).abs() < 1e-9);
    }
}
