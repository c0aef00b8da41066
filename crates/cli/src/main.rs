//! `agatha` — command-line guided sequence alignment, mirroring the AGAThA
//! artifact's `AGAThA.sh` interface (Appendix A.2.6).
//!
//! ```text
//! agatha align [-a M] [-b X] [-q O] [-r E] [-z Z] [-w W] \
//!              [--engine NAME] [--gpus N] [--threads N] [--chunk N] \
//!              [-o DIR] REF.fasta QUERY.fasta
//! agatha demo  [--tech hifi|clr|ont] [--reads N] [-o DIR]
//! agatha serve [--port N] [--window-ms N] [--max-queue N] [--deadline-ms N]
//! agatha engines
//! agatha scenarios [--names]
//! ```
//!
//! `align` scores each pair `(REF[i], QUERY[i])` and writes `score.log`
//! plus `time.json` (simulated kernel time) into the output directory.
//! Under every `--engine` the input files are *streamed*: a reader thread
//! parses them up to two chunks ahead of kernel execution, tasks are aligned
//! on a persistent worker pool (one reusable kernel workspace per thread)
//! and released chunk by chunk, so memory stays bounded by `--chunk`
//! regardless of input size. Tasks that would seed an underfull trailing
//! warp are deferred into the next chunk's packing, which moves only
//! AGAThA's simulated schedule, never a score; a baseline takes its tasks
//! in incoming order, so its schedule does not move either.
//!
//! `serve` runs the online alignment daemon of `agatha-serve`: NDJSON
//! requests over a local TCP socket, admission-window batching, bounded
//! queue with 503-style rejections, deadline drops before kernel
//! dispatch, and a latency-histogram stats dump on shutdown (SIGTERM,
//! SIGINT, or a `{"cmd":"shutdown"}` request).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;

use std::sync::{Arc, Mutex};

use agatha_align::{FillTier, Scoring, Task};
use agatha_baselines::Baseline;
use agatha_core::options::DEFAULT_PREFETCH_DEPTH;
use agatha_core::{AgathaConfig, Pipeline, StreamOptions};
use agatha_datasets::{generate, scenarios, DatasetSpec, Scenario, Tech, SCENARIOS};
use agatha_io::{open_fasta_pairs_model, write_score_log, write_time_json, Args};
use agatha_serve::{termination_flag, ServeConfig};

/// Default `--chunk`: tasks held in memory at once when streaming.
const DEFAULT_CHUNK: usize = 4096;

/// `println!` through [`print_stdout`]: every line the CLI writes to stdout.
macro_rules! outln {
    ($($arg:tt)*) => {
        print_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write to stdout; a reader that went away (`agatha scenarios | head -1`)
/// ends the process quietly. std ignores SIGPIPE, so `println!` would panic
/// on the broken pipe instead, and restoring the signal takes the `unsafe`
/// this crate forbids.
fn print_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("agatha: writing stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // `--verbose` / `--names` are switches: without declaring them,
    // `--verbose REF.fasta` would swallow the first input path as the
    // flag's value.
    let args = Args::parse_with_switches(argv.into_iter().skip(1), &["verbose", "names"]);
    let result = check_flags(&command, &args).and_then(|()| match command.as_str() {
        "align" => cmd_align(&args),
        "demo" => cmd_demo(&args),
        "serve" => cmd_serve(&args),
        "engines" => {
            cmd_engines();
            Ok(())
        }
        "scenarios" => {
            cmd_scenarios(&args);
            Ok(())
        }
        "help" | "--help" | "-h" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("agatha: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  agatha align [options] REF.fasta QUERY.fasta   score sequence pairs
  agatha demo  [options]                         run on a synthetic dataset
  agatha serve [options]                         run the online alignment daemon
  agatha engines                                 list available engines
  agatha scenarios [--names]                     list registered scenarios

alignment options (AGAThA.sh compatible):
  -a N     match score            (default 2)
  -b N     mismatch penalty       (default 4)
  -q N     gap open penalty       (default 4)
  -r N     gap extension penalty  (default 2)
  -z N     termination threshold  (default 400)
  -w N     band width             (default 400)

common options:
  --scenario S    score under a registered scenario's model instead of the
                  -a/-b/-q/-r flags (which then conflict; -z/-w still
                  override the scenario's guides). `demo --scenario` also
                  generates the scenario's workload
  --engine NAME   agatha (default) or a baseline (see `agatha engines`)
  --gpus N        simulate N GPUs (align and demo + agatha engine only,
                  default 1)
  --threads N     host worker threads (default: all cores)
  --chunk N       streaming chunk size in tasks (align only, default 4096,
                  must be at least 1)
  --backend K     host wavefront backend (agatha engine only): auto |
                  avx512 | avx2 | sse41 | portable. auto runs the best
                  implementation the CPU supports; forcing a level the CPU
                  lacks clamps down to the detected one; results are
                  bit-identical across backends. The host tiles 32x32
                  blocks on avx512 (32-lane strips) wherever the task's
                  scoring keeps the 16-bit wavefront at 32, otherwise
                  16x16, and 8x8 on sse41 (8-wide lanes) and for a task
                  whose scoring keeps it at 8x8 only. Host-only:
                  the simulated device always runs the paper's 8x8 blocks,
                  so no simulated number depends on it
  --verbose       print per-task fill tier (the 16-bit wavefront, or
                  scalar for a task whose scoring spreads one block's
                  scores past 16 bits: demoted), geometry and backend
                  counts (align and demo + agatha engine only)
  -o DIR          output directory (default ./output)
  --tech T        demo technology: hifi | clr | ont (default clr)
  --reads N       demo task count (default 160)

serve options (plus the alignment options and --scenario, --threads,
--backend, -o above):
  --port N        TCP port on 127.0.0.1 (default 0 = ephemeral; the bound
                  address is printed on startup)
  --window-ms N   admission window: how long an idle engine with several
                  workers waits to give each a request; an idle engine
                  takes what is queued, whenever the window opened (with
                  --threads 1 it never waits) (default 5)
  --max-batch N   largest batch dispatched to the engine (default 1024)
  --max-queue N   admission queue bound; offers beyond it are answered
                  with an immediate 503-style rejection (default 4096)
  --deadline-ms N server-side default deadline; requests that overstay it
                  in the queue are dropped before kernel dispatch
                  (default: none — requests wait forever)";

/// Flags `align`, `demo` and `serve` all read: the scoring flags
/// ([`scoring_from_args`]), the fill plan and pool size ([`agatha_config`],
/// `--threads`) and the output directory. Only `align` and `demo` simulate
/// devices, so only they read `--gpus`.
const ENGINE_FLAGS: &[&str] =
    &["a", "b", "q", "r", "z", "w", "scenario", "threads", "backend", "o"];

/// The flags `command` reads, as (shared, own) lists; `None` for `help`,
/// which reads nothing, and for an unknown command. Keep the lists in step
/// with [`USAGE`] (a unit test checks both directions).
fn accepted_flags(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    match command {
        "align" => Some((ENGINE_FLAGS, &["gpus", "engine", "verbose", "chunk"])),
        "demo" => Some((ENGINE_FLAGS, &["gpus", "engine", "verbose", "tech", "reads"])),
        "serve" => {
            Some((ENGINE_FLAGS, &["port", "window-ms", "max-batch", "max-queue", "deadline-ms"]))
        }
        "scenarios" => Some((&[], &["names"])),
        "engines" => Some((&[], &[])),
        _ => None,
    }
}

/// A flag the subcommand does not read is a usage error, not a no-op: a
/// mistyped `--thraeds 1` must not quietly run on every core, and `demo
/// --chunk 8` (whole-batch, nothing to chunk) must not pretend it streamed.
fn check_flags(command: &str, args: &Args) -> Result<(), String> {
    // The caller reports unknown commands.
    let Some((shared, own)) = accepted_flags(command) else { return Ok(()) };
    match args.unknown(&[shared, own].concat()).as_slice() {
        [] => Ok(()),
        unknown => Err(format!(
            "unknown option{} {} for `agatha {command}` (see `agatha help`)",
            if unknown.len() == 1 { "" } else { "s" },
            unknown.join(", ")
        )),
    }
}

/// [`USAGE`] plus the registered `--scenario` values. The scenario list is
/// iterated from the registry so a newly declared scenario appears in the
/// help with no edit here.
fn usage() -> String {
    let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    format!("{USAGE}\n\nregistered scenarios (--scenario): {}", names.join(", "))
}

/// The scenario selected by `--scenario`, if any.
fn scenario_from_args(args: &Args) -> Result<Option<&'static Scenario>, String> {
    let Some(name) = args.get("scenario").filter(|s| !s.is_empty()) else { return Ok(None) };
    match scenarios::find(name) {
        Some(s) => Ok(Some(s)),
        None => {
            let known: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
            Err(format!("unknown scenario '{name}' (registered: {})", known.join(", ")))
        }
    }
}

/// A preset's scoring under the CLI flags: the preset `--{by} {name}`
/// selected carries the score model, so the substitution and gap flags
/// `-a/-b/-q/-r` conflict (they would be silently ignored) while the guide
/// flags `-z/-w` still override.
fn preset_scoring(args: &Args, by: &str, name: &str, preset: Scoring) -> Result<Scoring, String> {
    for flag in ["a", "b", "q", "r"] {
        if args.has(flag) {
            return Err(format!(
                "-{flag} conflicts with --{by} {name}: its score model defines the \
                 substitution scores (drop -{flag} or the --{by})"
            ));
        }
    }
    let scoring = preset
        .with_zdrop(args.get_num_checked("z", preset.zdrop)?)
        .with_band(args.get_num_checked("w", preset.band_width)?);
    scoring.validate().map_err(|e| format!("invalid scoring parameters (-z/-w): {e}"))?;
    Ok(scoring)
}

/// Scoring from the CLI flags, plus the scenario that supplied it (if any).
///
/// With `--scenario`, the scenario's preset scores ([`preset_scoring`]). All
/// parameters go through [`Scoring::try_new`]-style validation so invalid
/// values (`-a 0`, negative penalties) surface as usage errors instead of
/// panics.
fn scoring_from_args(args: &Args) -> Result<(Scoring, Option<&'static Scenario>), String> {
    let scenario = scenario_from_args(args)?;
    let scoring = match scenario {
        Some(s) => preset_scoring(args, "scenario", s.name, (s.scoring)())?,
        None => {
            let flags = Scoring::try_new(
                args.get_num_checked("a", 2)?,
                args.get_num_checked("b", 4)?,
                args.get_num_checked("q", 4)?,
                args.get_num_checked("r", 2)?,
                args.get_num_checked("z", 400)?,
                args.get_num_checked("w", 400)?,
            )
            .map_err(|e| format!("invalid scoring parameters (-a/-b/-q/-r/-z/-w): {e}"))?;
            flags.validate().map_err(|e| format!("invalid scoring parameters (-z/-w): {e}"))?;
            flags
        }
    };
    Ok((scoring, scenario))
}

/// Host options shared by `align`, `demo` and `serve` (a subcommand that
/// does not read one rejects its flag in [`check_flags`] and sees the
/// default here).
struct HostOpts {
    gpus: usize,
    threads: usize,
    chunk: usize,
    /// `--backend` when given explicitly; `None` keeps the default (best
    /// detected).
    backend: Option<agatha_align::simd::BackendChoice>,
    verbose: bool,
}

fn host_opts(args: &Args) -> Result<HostOpts, String> {
    let gpus = args.get_num_checked("gpus", 1usize)?;
    if gpus == 0 {
        // Like other malformed numeric flags, `--gpus 0` is an error: the
        // old `.max(1)` clamp silently simulated one GPU while claiming
        // zero.
        return Err("--gpus must be at least 1 (got 0)".to_string());
    }
    let backend = match args.get("backend") {
        None => None,
        Some(v) => Some(
            agatha_align::simd::BackendChoice::parse(v)
                .map_err(|e| format!("{e}\nusage: --backend auto|avx512|avx2|sse41|portable"))?,
        ),
    };
    let chunk = args.get_num_checked("chunk", DEFAULT_CHUNK)?;
    if chunk == 0 {
        // `--chunk 0` used to mean "whole batch in one chunk", which
        // silently unbounded the streaming path's memory; an explicit
        // large chunk says the same thing honestly.
        return Err("--chunk must be at least 1 (got 0)".to_string());
    }
    Ok(HostOpts {
        gpus,
        threads: args.get_num_checked("threads", 0usize)?,
        chunk,
        backend,
        verbose: args.has("verbose"),
    })
}

/// The kernel configuration implied by the host options: full AGAThA on
/// the default fill plan, `--backend` overriding its one field.
fn agatha_config(opts: &HostOpts) -> AgathaConfig {
    let cfg = AgathaConfig::agatha();
    match opts.backend {
        Some(k) => cfg.with_backend(k),
        None => cfg,
    }
}

/// Per-tier task counts for `--verbose`: how many tasks each fill tier
/// (i16 wavefront, scalar) served, and which block geometry each task
/// resolved to (the kernel's own rule, `AgathaConfig::block_dim_for`). Every
/// CLI plan asks for the wavefront, so each scalar task is one its exactness
/// gate demoted.
#[derive(Default)]
struct TierStats {
    counts: [u64; 2],
    /// Tasks resolved to the 8x8 / 16x16 / 32x32 geometry.
    blocks: [u64; 3],
    /// Tasks served by each wavefront backend, in the capability-chain
    /// order avx512, avx2, sse41, portable. Every task of one run resolves
    /// the same plan, so they all land in one bucket — the counts make the
    /// effective backend visible when `--backend` got clamped.
    backends: [u64; 4],
}

impl TierStats {
    fn tally(&mut self, cfg: &AgathaConfig, scoring: &Scoring, task: &Task) {
        use agatha_align::simd::WavefrontBackend;
        let (n, m) = (task.ref_len(), task.query_len());
        let tier = cfg.fill_tier_for(n, m, scoring);
        self.counts[usize::from(tier != FillTier::I16)] += 1;
        self.blocks[cfg.block_dim_for(n, m, scoring).ilog2() as usize - 3] += 1;
        let k = match cfg.backend.resolve() {
            WavefrontBackend::Avx512 => 0,
            WavefrontBackend::Avx2 => 1,
            WavefrontBackend::Sse41 => 2,
            WavefrontBackend::Portable => 3,
        };
        self.backends[k] += 1;
    }

    fn print(&self) {
        let [i16, scalar] = self.counts;
        let [b8, b16, b32] = self.blocks;
        let [avx512, avx2, sse41, portable] = self.backends;
        outln!("fill precision: i16={i16} scalar={scalar} (demoted={scalar})");
        outln!("block geometry: b8={b8} b16={b16} b32={b32}");
        outln!("fill backend: avx512={avx512} avx2={avx2} sse41={sse41} portable={portable}");
    }
}

/// Create the `-o` directory. Every subcommand calls it once its flags are
/// checked and before any work, so an unusable `-o` fails fast.
fn out_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from(args.get("o").filter(|s| !s.is_empty()).unwrap_or("output"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The pipeline `--engine` selects under the host options: AGAThA on its
/// fill plan, or a baseline on its own.
fn engine_pipeline(scoring: &Scoring, opts: &HostOpts, baseline: Option<Baseline>) -> Pipeline {
    let p = match baseline {
        None => Pipeline::new(*scoring, agatha_config(opts)),
        Some(which) => which.pipeline(*scoring),
    };
    let mut p = p.with_gpus(opts.gpus);
    p.host_threads = opts.threads;
    p
}

/// Reject agatha-only flags for engines that would silently ignore them:
/// the baselines model fixed published hardware setups on the default fill
/// plan, so pretending `--gpus` or `--backend` took effect would misreport
/// what was simulated. (`--gpus 1` is every baseline's own setup and passes.)
/// `--threads` and `--chunk` are the engine's, and every baseline runs on
/// it.
fn check_baseline_flags(engine: &str, args: &Args, opts: &HostOpts) -> Result<(), String> {
    let agatha_only = [
        ("gpus", opts.gpus > 1, "models a fixed device setup"),
        ("backend", args.has("backend"), "runs the default fill plan"),
        ("verbose", args.has("verbose"), "has no fill plan to report"),
    ];
    for (flag, given, reason) in agatha_only {
        if given {
            return Err(format!(
                "--{flag} is only supported by the agatha engine; baseline '{engine}' {reason} \
                 (drop --{flag} or use --engine agatha)"
            ));
        }
    }
    Ok(())
}

/// The baseline `--engine` selects, or `None` for the agatha engine (the
/// default). A baseline refuses the agatha-only flags
/// ([`check_baseline_flags`]).
fn baseline_from_args(args: &Args, opts: &HostOpts) -> Result<Option<Baseline>, String> {
    let engine = args.get("engine").filter(|s| !s.is_empty()).unwrap_or("agatha");
    let which = match engine.to_ascii_lowercase().as_str() {
        "agatha" => return Ok(None),
        "cpu" | "minimap2" => Baseline::CpuSse4,
        "cpu-avx512" => Baseline::CpuAvx512,
        "gasal2" => Baseline::Gasal2Mm2,
        "gasal2-diff" => Baseline::Gasal2Diff,
        "saloba" => Baseline::SalobaMm2,
        "saloba-diff" => Baseline::SalobaDiff,
        "manymap" => Baseline::ManymapMm2,
        "manymap-diff" => Baseline::ManymapDiff,
        "logan" => Baseline::Logan,
        other => return Err(format!("unknown engine '{other}' (try `agatha engines`)")),
    };
    check_baseline_flags(engine, args, opts)?;
    Ok(Some(which))
}

fn cmd_align(args: &Args) -> Result<(), String> {
    let pos = args.positional();
    if pos.len() != 2 {
        return Err(format!("align needs REF.fasta and QUERY.fasta\n{}", usage()));
    }
    let (scoring, _) = scoring_from_args(args)?;
    let opts = host_opts(args)?;
    let baseline = baseline_from_args(args, &opts)?;
    // Input packs under the score model's alphabet: a matrix scenario reads
    // the FASTA as 8-bit protein residues, the fixed model as 4-bit DNA.
    let pairs =
        open_fasta_pairs_model(&PathBuf::from(&pos[0]), &PathBuf::from(&pos[1]), &scoring.model)?;
    let dir = out_dir(args)?;

    // A reader thread parses the files up to `DEFAULT_PREFETCH_DEPTH` chunks
    // ahead of the persistent worker pool, one `--chunk` at a time. The tier
    // tally runs on the reader, so it lives behind a mutex (uncontended: one
    // reader, locked once per task, and only when `--verbose` asks for it;
    // a baseline refuses `--verbose`, so this is the agatha engine's plan).
    let tiers = Arc::new(Mutex::new(TierStats::default()));
    let tally = Arc::clone(&tiers);
    let (verbose, config) = (opts.verbose, agatha_config(&opts));
    let source = pairs.inspect(move |t| {
        if let (true, Ok(task)) = (verbose, t) {
            tally.lock().expect("tier stats lock poisoned").tally(&config, &scoring, task);
        }
    });
    let pipeline = engine_pipeline(&scoring, &opts, baseline);
    let name = pipeline.engine_name();
    let mut pool = pipeline.engine();
    let mut run = pool.align_stream_prefetched(
        source,
        DEFAULT_PREFETCH_DEPTH,
        StreamOptions::new(opts.chunk),
    );
    let mut scores = Vec::new();
    for chunk in run.by_ref() {
        scores.extend(chunk.report.results.iter().map(|r| r.score));
    }
    // A parse failure surfaces here as a `StreamError` naming the chunk it
    // interrupted; chunks before it were already scored.
    let summary = run.finish_checked().map_err(|e| e.to_string())?;
    if opts.verbose {
        tiers.lock().expect("tier stats lock poisoned").print();
    }
    let (ms, tasks) = (summary.elapsed_ms, summary.tasks);

    write_score_log(&dir.join("score.log"), &scores)?;
    write_time_json(&dir.join("time.json"), name, ms, tasks)?;
    outln!("{name}: {tasks} pairs, simulated kernel time {ms:.3} ms");
    outln!("wrote {}/score.log and {}/time.json", dir.display(), dir.display());
    Ok(())
}

/// A demo workload, generated only once every flag has been checked.
type Workload = Box<dyn FnOnce() -> (String, Vec<Task>)>;

fn cmd_demo(args: &Args) -> Result<(), String> {
    let reads = args.get_num_checked("reads", 160usize)?;
    if reads == 0 {
        return Err("--reads must be at least 1 (got 0)".to_string());
    }
    // `--scenario` runs the registered workload: its generator produces the
    // tasks and its preset scores them. Otherwise `--tech` selects one of
    // the paper's synthetic dataset profiles and scoring presets. Either
    // preset takes -z/-w overrides and refuses -a/-b/-q/-r.
    let (scoring, workload): (Scoring, Workload) = match scenario_from_args(args)? {
        Some(s) => {
            if args.has("tech") {
                return Err(format!(
                    "--tech conflicts with --scenario {}: the scenario defines the workload \
                     (drop --tech or the --scenario)",
                    s.name
                ));
            }
            let (scoring, _) = scoring_from_args(args)?;
            (scoring, Box::new(move || (format!("{} scenario", s.name), (s.tasks)(1234, reads))))
        }
        None => {
            let tech = match args.get("tech").unwrap_or("clr").to_ascii_lowercase().as_str() {
                "hifi" => Tech::HiFi,
                "clr" | "" => Tech::Clr,
                "ont" => Tech::Ont,
                other => return Err(format!("unknown tech '{other}'")),
            };
            let scoring = preset_scoring(args, "tech", tech.name(), tech.scoring())?;
            let spec =
                DatasetSpec { name: format!("{} demo", tech.name()), tech, seed: 1234, reads };
            (
                scoring,
                Box::new(move || {
                    let ds = generate(&spec);
                    (ds.name, ds.tasks)
                }),
            )
        }
    };
    let opts = host_opts(args)?;
    let baseline = baseline_from_args(args, &opts)?;
    let dir = out_dir(args)?;

    let (demo_name, tasks) = workload();
    let pipeline = engine_pipeline(&scoring, &opts, baseline);
    let name = pipeline.engine_name();
    let report = pipeline.align_batch(&tasks);
    let scores: Vec<i32> = report.results.iter().map(|r| r.score).collect();
    let ms = report.elapsed_ms;
    // A baseline refuses `--verbose`, so this is the agatha engine's plan.
    if opts.verbose {
        let config = agatha_config(&opts);
        let mut tiers = TierStats::default();
        for t in &tasks {
            tiers.tally(&config, &scoring, t);
        }
        tiers.print();
    }

    write_score_log(&dir.join("score.log"), &scores)?;
    write_time_json(&dir.join("time.json"), name, ms, tasks.len())?;
    outln!("{demo_name}: {} tasks via {name}: {ms:.3} ms simulated", tasks.len());
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let (scoring, _) = scoring_from_args(args)?;
    let opts = host_opts(args)?;
    let port: u16 = args.get_num_checked("port", 0u16)?;
    // Milliseconds → the daemon's nanosecond ticks, or a usage error naming
    // the flag when they do not fit.
    let ms_to_ns = |flag: &str, ms: u64| {
        ms.checked_mul(1_000_000).ok_or_else(|| {
            format!("--{flag} {ms} is too large (at most {} ms)", u64::MAX / 1_000_000)
        })
    };
    let window_ms: u64 = args.get_num_checked("window-ms", 5u64)?;
    if window_ms == 0 {
        return Err("--window-ms must be at least 1 (got 0)".to_string());
    }
    let window_ns = ms_to_ns("window-ms", window_ms)?;
    let max_batch: usize = args.get_num_checked("max-batch", 1024usize)?;
    if max_batch == 0 {
        return Err("--max-batch must be at least 1 (got 0)".to_string());
    }
    let max_queue: usize = args.get_num_checked("max-queue", 4096usize)?;
    if max_queue == 0 {
        return Err("--max-queue must be at least 1 (got 0)".to_string());
    }
    let deadline_ms: Option<u64> = match args.get("deadline-ms") {
        None => None,
        Some(_) => Some(args.get_num_checked("deadline-ms", 0u64)?),
    };
    if deadline_ms == Some(0) {
        return Err("--deadline-ms must be at least 1 (got 0)".to_string());
    }
    let default_deadline_ns = deadline_ms.map(|ms| ms_to_ns("deadline-ms", ms)).transpose()?;
    // Created before the daemon starts: the stats dump at shutdown must not
    // be the first to find that `-o` is unusable.
    let dir = out_dir(args)?;

    let mut cfg = ServeConfig::new(scoring);
    cfg.config = agatha_config(&opts);
    cfg.threads = opts.threads;
    cfg.window_ns = window_ns;
    cfg.max_batch = max_batch;
    cfg.max_queue = max_queue;
    cfg.default_deadline_ns = default_deadline_ns;
    cfg.addr = format!("127.0.0.1:{port}");
    let handle = agatha_serve::serve(cfg)?;

    // The address line is the daemon's contract with scripts (and the CLI
    // tests): flush so a piped stdout sees it before the first request.
    outln!("agatha serve: listening on {}", handle.addr());
    std::io::Write::flush(&mut std::io::stdout()).ok();

    // Park until either a termination signal or a client-requested
    // shutdown; both paths drain the queue before the stats dump.
    let term = termination_flag();
    loop {
        if term.load(Ordering::SeqCst) {
            eprintln!("agatha serve: termination signal, draining");
            handle.request_shutdown();
            break;
        }
        if handle.shutdown_requested() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let snapshot = handle.join();

    print_stdout(format_args!("{}", snapshot.render_table()));
    let stats_path = dir.join("serve_stats.json");
    std::fs::write(&stats_path, format!("{}\n", snapshot.to_json()))
        .map_err(|e| format!("write {}: {e}", stats_path.display()))?;
    outln!("wrote {}", stats_path.display());
    Ok(())
}

/// List the scenario registry. `--names` prints bare names (one per line)
/// for scripting — the CI scenario matrix iterates that output, so a newly
/// registered scenario joins the matrix with no workflow edit.
fn cmd_scenarios(args: &Args) {
    if args.has("names") {
        for s in SCENARIOS {
            outln!("{}", s.name);
        }
        return;
    }
    for s in SCENARIOS {
        let sc = (s.scoring)();
        let (n, m) = s.gate.typical_dims;
        outln!("{}", s.name);
        outln!("  {}", s.summary);
        outln!(
            "  model {} (scores {:+}..{:+}), gaps {}+{}k, z={} w={}",
            sc.model.name(),
            sc.min_score(),
            sc.max_score(),
            sc.gap_open,
            sc.gap_extend,
            sc.zdrop,
            sc.band_width
        );
        outln!(
            "  typical {n}x{m}: i16 wavefront {}; baselines: {}",
            if s.gate.i16_exact { "exact" } else { "demoted to scalar" },
            s.baselines.join(", ")
        );
    }
}

fn cmd_engines() {
    outln!("agatha            AGAThA (this paper): RW + SD + SR + UB");
    outln!("cpu               Minimap2 on 16C/32T SSE4 (reference)");
    outln!("cpu-avx512        mm2-fast on 48C/96T AVX512");
    outln!("gasal2[-diff]     GASAL2-like inter-query kernel");
    outln!("saloba[-diff]     SALoBa-like intra-query kernel");
    outln!("manymap[-diff]    Manymap-like anti-diagonal kernel");
    outln!("logan             LOGAN-like adaptive-band X-drop");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every subcommand with a flag list.
    const COMMANDS: [&str; 5] = ["align", "demo", "serve", "scenarios", "engines"];

    /// How a flag is spelled on the command line: `-x`, or `--name`.
    fn spelled(flag: &str) -> String {
        if flag.len() == 1 {
            format!("-{flag}")
        } else {
            format!("--{flag}")
        }
    }

    /// The `-x` / `--name` tokens of [`USAGE`], in their spelled form.
    fn usage_flags() -> Vec<&'static str> {
        USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|t| {
                let name = t.trim_start_matches('-');
                t.starts_with('-') && name.starts_with(|c: char| c.is_ascii_alphabetic())
            })
            .collect()
    }

    #[test]
    fn usage_and_the_accepted_flags_agree() {
        let documented = usage_flags();
        let mut accepted = Vec::new();
        for command in COMMANDS {
            let (shared, own) = accepted_flags(command).expect("a subcommand with flags");
            for flag in shared.iter().chain(own) {
                let flag = spelled(flag);
                assert!(
                    documented.contains(&flag.as_str()),
                    "`{command}` reads {flag}: not in USAGE"
                );
                accepted.push(flag);
            }
        }
        for flag in documented {
            assert!(
                accepted.iter().any(|f| f == flag),
                "USAGE names {flag}: no subcommand reads it"
            );
        }
    }
}
