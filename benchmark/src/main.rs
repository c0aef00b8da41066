//! `agatha_benchmark` — see `benchmark/README.md`.
//!
//! ```text
//! agatha_benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! agatha_benchmark [--workload W] [--seed N] [--runs R] [--seconds S] [--quick] [--out FILE]
//!                                                                 every metric of every workload
//! agatha_benchmark compare A.json B.json                           judge set B against set A
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use agatha_benchmark::child::{build_agatha, target_dir};
use agatha_benchmark::compare::compare_sets;
use agatha_benchmark::json::Json;
use agatha_benchmark::measure::{check_environment, host_block};
use agatha_benchmark::report::{run_workload, set_json, table, WorkloadRuns};
use agatha_benchmark::runs::RunOpts;
use agatha_benchmark::workloads::WORKLOAD_NAMES;
use agatha_io::Args;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 1234;
/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Default `--seconds` under `--quick`.
const QUICK_SECONDS: f64 = 3.0;

fn main() -> ExitCode {
    let args = Args::parse_with_switches(std::env::args().skip(1), &["quick"]);
    let outcome = match args.positional().first().map(String::as_str) {
        Some("compare") => compare(&args),
        Some(other) => Err(format!("unknown command '{other}' (expected compare, or flags only)")),
        None => measure(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("agatha_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn read_set(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

/// `Ok(false)` when any row is worse.
fn compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional() else {
        return Err("usage: agatha_benchmark compare A.json B.json".to_string());
    };
    let (text, any_worse) = compare_sets(&read_set(a)?, &read_set(b)?)?;
    print!("{text}");
    Ok(!any_worse)
}

/// `Ok(false)` when any output was wrong.
fn measure(args: &Args) -> Result<bool, String> {
    check_environment()?;
    let quick = args.has("quick");
    let opts = RunOpts {
        seed: args.get_num_checked("seed", DEFAULT_SEED)?,
        seconds: args
            .get_num_checked("seconds", if quick { QUICK_SECONDS } else { DEFAULT_SECONDS })?,
        quick,
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600] (got {})", opts.seconds));
    }
    let workloads: Vec<&str> = match args.get("workload") {
        Some(w) if WORKLOAD_NAMES.contains(&w) => vec![w],
        Some(w) => {
            return Err(format!("unknown workload '{w}' (known: {})", WORKLOAD_NAMES.join(", ")));
        }
        None => WORKLOAD_NAMES.to_vec(),
    };
    let traced = match args.get("trace") {
        None => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        Some(other) => return Err(format!("--trace takes 0 or 1 (got '{other}')")),
    };
    let runs: u64 = args.get_num_checked("runs", 1u64)?;
    if runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    let binary = build_agatha()?;

    // One run of one workload in one mode; the result line goes last.
    if let Some(traced) = traced {
        let [workload] = workloads[..] else {
            return Err("--trace runs one workload: name it with --workload".to_string());
        };
        let result = run_workload(&binary, workload, traced, opts)?;
        for line in result.problems.iter().chain(&result.notes) {
            eprintln!("agatha_benchmark: {line}");
        }
        println!("{}", result.to_json().render_pretty());
        println!("{}", result.result_line());
        return Ok(result.correct());
    }

    let mut sets = Vec::new();
    for workload in workloads {
        let mut end_to_end = Vec::new();
        for i in 0..runs {
            let seeded = RunOpts { seed: opts.seed + i, ..opts };
            eprintln!(
                "agatha_benchmark: {workload}: end-to-end run {} of {runs} (seed {})",
                i + 1,
                seeded.seed
            );
            end_to_end.push(run_workload(&binary, workload, false, seeded)?);
        }
        eprintln!("agatha_benchmark: {workload}: traced run (seed {})", opts.seed);
        let traced = run_workload(&binary, workload, true, opts)?;
        sets.push(WorkloadRuns { name: workload.to_string(), end_to_end, traced });
    }
    print!("{}", table(&sets));
    let doc = set_json(host_block(opts.seed), opts, &sets);
    let out = args
        .get("out")
        .filter(|p| !p.is_empty())
        .map_or_else(|| target_dir().join("benchmark").join("results.json"), PathBuf::from);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.render_pretty())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("\nhost: {}", doc.get("host").map(Json::render).unwrap_or_default());
    println!("wrote {}", out.display());
    Ok(sets.iter().all(WorkloadRuns::correct))
}
