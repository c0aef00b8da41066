//! End-to-end measurement of the batch workloads: the real `agatha align`
//! binary as a subprocess, tracing off, every output checked against the
//! scalar oracle.

use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::Instant;

use agatha_align::guided::guided_align;
use agatha_align::{Scoring, Task};

use crate::child::{agatha_command, run_capture, run_to_exit, ChildUsage, RunningChild};
use crate::workloads::{
    align_args, generate_tasks, scenario_scoring, write_fasta_pair, BatchWorkload, FastaInput,
};

/// Runs of the one-pair command line behind `setup_s` made before the
/// warm-up and before every timed rep. Spread over the whole run like this —
/// some eighty samples over 15 s — they see the host's quiet moments as well
/// as its busy ones; taken in one 150 ms burst at the start they read
/// 2.1-3.4 ms from run to run, whichever the host was in just then.
pub const SETUP_RUNS_PER_REP: usize = 8;

/// Residues per sequence of the one pair the set-up runs align.
pub const SETUP_PAIR_LEN: usize = 48;

/// A batch workload's inputs on disk plus the oracle's answer for them.
pub struct Prepared {
    pub workload: BatchWorkload,
    pub scoring: Scoring,
    pub tasks: Vec<Task>,
    pub input: FastaInput,
    /// A one-pair input for the set-up measurement.
    pub one_pair: FastaInput,
    /// `guided_align` scores, indexed like `tasks`.
    pub oracle: Vec<i32>,
    pub dir: PathBuf,
}

/// Scalar-oracle scores of every task, computed across the host's cores
/// (the oracle is the slowest engine in the repository by design).
pub fn oracle_scores(tasks: &[Task], scoring: &Scoring) -> Vec<i32> {
    let threads =
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(tasks.len().max(1));
    let mut scores = vec![0i32; tasks.len()];
    let per = tasks.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for (out, chunk) in scores.chunks_mut(per).zip(tasks.chunks(per)) {
            scope.spawn(move || {
                for (slot, t) in out.iter_mut().zip(chunk) {
                    *slot = guided_align(&t.reference, &t.query, scoring).score;
                }
            });
        }
    });
    scores
}

/// Generate `pairs` tasks of the workload from `seed`, write them under
/// `dir`, and score them with the oracle.
pub fn prepare(w: BatchWorkload, seed: u64, pairs: usize, dir: &Path) -> Result<Prepared, String> {
    let scoring = scenario_scoring(w.scenario);
    let tasks = generate_tasks(w.scenario, seed, pairs);
    let input = write_fasta_pair(dir, "input", &tasks, &scoring)?;
    // Set-up is measured on one short pair: a 48-residue prefix of the first
    // pair, so its cost does not depend on how long that pair happens to be.
    let first = &tasks[0];
    let prefix = |s: &agatha_align::PackedSeq| s.slice(0, s.len().min(SETUP_PAIR_LEN));
    let short = Task { id: 0, reference: prefix(&first.reference), query: prefix(&first.query) };
    let one_pair = write_fasta_pair(dir, "one-pair", &[short], &scoring)?;
    let oracle = oracle_scores(&tasks, &scoring);
    Ok(Prepared { workload: w, scoring, tasks, input, one_pair, oracle, dir: dir.to_path_buf() })
}

pub fn read_scores(path: &Path) -> Result<Vec<i32>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .map(|l| l.trim().parse::<i32>().map_err(|e| format!("{}: '{l}': {e}", path.display())))
        .collect()
}

/// `kernel_ms` from a `time.json` — the simulated GPU makespan.
pub fn read_kernel_ms(path: &Path) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    crate::json::Json::parse(&text)?
        .get("kernel_ms")
        .and_then(crate::json::Json::as_f64)
        .ok_or_else(|| format!("{}: no kernel_ms", path.display()))
}

/// First index at which `got` differs from `want`, described for the error
/// message that fails the run.
pub fn first_mismatch(got: &[i32], want: &[i32]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} scores written for {} pairs", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .map(|i| format!("pair {}: score {} but the oracle says {}", i + 1, got[i], want[i]))
}

/// Check from the binary's own `--verbose` tally that it was built with the
/// vectorised default fill, and return the backend it resolved. The default
/// build silently benches the scalar fill (1.7 k vs 12 k tasks/s on
/// `dna-short`), so a scalar binary is refused.
pub fn check_binary_is_vectorised(binary: &Path, p: &Prepared) -> Result<String, String> {
    let mut args = align_args(&p.workload, &p.one_pair, &p.dir.join("probe"));
    args.push("--verbose".to_string());
    let (usage, stdout) = run_capture(&mut agatha_command(binary, &args))?;
    if !usage.success {
        return Err(format!("{} {} failed", binary.display(), args.join(" ")));
    }
    let tally = |prefix: &str| -> Vec<(String, u64)> {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .map(|rest| {
                rest.split_whitespace()
                    .filter_map(|kv| kv.trim_matches(|c| c == '(' || c == ')').split_once('='))
                    .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let tiers = tally("fill precision:");
    if tiers.is_empty() {
        return Err(format!("no fill-precision tally in --verbose output:\n{stdout}"));
    }
    if tiers.iter().any(|(k, n)| k == "scalar" && *n > 0) {
        return Err(format!(
            "refusing to measure a scalar build of {}: rebuild with --features simd",
            binary.display()
        ));
    }
    tally("fill backend:")
        .into_iter()
        .find(|(_, n)| *n > 0)
        .map(|(k, _)| k)
        .ok_or_else(|| format!("no fill-backend tally in --verbose output:\n{stdout}"))
}

/// The untraced end-to-end samples of one batch workload.
pub struct E2e {
    /// Wall seconds of each one-pair run.
    pub setup_s: Vec<f64>,
    /// One entry per timed rep (the warm-up is not among them).
    pub reps: Vec<ChildUsage>,
    /// The warm-up run's peak RSS. Memory is sampled there, beside the one
    /// run that is not timed, so nothing polls beside the timed reps.
    pub peak_rss_mb: f64,
    /// Simulated kernel time of the warm-up run; every rep must repeat it.
    pub kernel_ms: f64,
    /// Scores that differ from the oracle, summed over the timed reps.
    pub failed: usize,
    /// What went wrong, first offence first; empty on a correct run.
    pub problems: Vec<String>,
}

/// One subprocess run of the workload's command line.
pub struct RunOutput {
    pub usage: ChildUsage,
    /// The child's peak RSS, when the run sampled it.
    pub peak_rss_mb: Option<f64>,
    pub scores: Vec<i32>,
    /// Simulated kernel time from `time.json`.
    pub kernel_ms: f64,
}

/// Run the workload's command line once, optionally sampling the child's
/// RSS while it runs, and read back what it wrote.
pub fn run_once(
    binary: &Path,
    p: &Prepared,
    out_dir: &Path,
    sample_rss: bool,
) -> Result<RunOutput, String> {
    let args = align_args(&p.workload, &p.input, out_dir);
    let mut cmd = agatha_command(binary, &args);
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::null());
    let child = RunningChild::spawn(&mut cmd)?;
    let (usage, peak_rss_mb) = if sample_rss {
        let (usage, peak) = child.finish_sampling_rss()?;
        (usage, Some(peak))
    } else {
        (child.finish()?, None)
    };
    if !usage.success {
        return Err(format!("{} {} failed", binary.display(), args.join(" ")));
    }
    Ok(RunOutput {
        usage,
        peak_rss_mb,
        scores: read_scores(&out_dir.join("score.log"))?,
        kernel_ms: read_kernel_ms(&out_dir.join("time.json"))?,
    })
}

/// Warm up once and time reps until `seconds` of wall time have passed (at
/// least `min_reps`), measuring set-up before each of those runs. Every
/// rep's scores are compared with the oracle and every rep's simulated
/// kernel time with the warm-up's.
pub fn measure(binary: &Path, p: &Prepared, seconds: f64, min_reps: usize) -> Result<E2e, String> {
    let setup_args = align_args(&p.workload, &p.one_pair, &p.dir.join("setup-out"));
    let mut setup_s = Vec::new();
    let mut measure_setup = || -> Result<(), String> {
        for _ in 0..SETUP_RUNS_PER_REP {
            let usage = run_to_exit(&mut agatha_command(binary, &setup_args))?;
            if !usage.success {
                return Err(format!("{} {} failed", binary.display(), setup_args.join(" ")));
            }
            setup_s.push(usage.wall_s);
        }
        Ok(())
    };

    let name = p.workload.name;
    let out_dir = p.dir.join("out");
    let mut problems = Vec::new();
    measure_setup()?;
    let warm_up = run_once(binary, p, &out_dir, true)?;
    if let Some(why) = first_mismatch(&warm_up.scores, &p.oracle) {
        problems.push(format!("{name}: warm-up run: {why}"));
    }

    let mut reps = Vec::new();
    let mut failed = 0usize;
    let started = Instant::now();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        measure_setup()?;
        let rep = run_once(binary, p, &out_dir, false)?;
        if rep.kernel_ms != warm_up.kernel_ms {
            problems.push(format!(
                "{name}: rep {}: simulated kernel time {} ms, warm-up had {} ms",
                reps.len() + 1,
                rep.kernel_ms,
                warm_up.kernel_ms
            ));
        }
        if let Some(why) = first_mismatch(&rep.scores, &p.oracle) {
            failed += rep.scores.iter().zip(&p.oracle).filter(|(g, w)| g != w).count().max(1);
            problems.push(format!("{name}: rep {}: {why}", reps.len() + 1));
        }
        reps.push(rep.usage);
    }
    Ok(E2e {
        setup_s,
        reps,
        peak_rss_mb: warm_up.peak_rss_mb.expect("the warm-up samples RSS"),
        kernel_ms: warm_up.kernel_ms,
        failed,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SHORT_BATCH;

    #[test]
    fn oracle_is_order_preserving_across_threads() {
        let scoring = scenario_scoring(SHORT_BATCH.scenario);
        let tasks = generate_tasks(SHORT_BATCH.scenario, 5, 37);
        let want: Vec<i32> =
            tasks.iter().map(|t| guided_align(&t.reference, &t.query, &scoring).score).collect();
        assert_eq!(oracle_scores(&tasks, &scoring), want);
        assert!(oracle_scores(&[], &scoring).is_empty());
    }

    #[test]
    fn mismatch_names_the_first_offending_pair() {
        assert_eq!(first_mismatch(&[1, 2, 3], &[1, 2, 3]), None);
        let why = first_mismatch(&[1, 9, 8], &[1, 2, 3]).unwrap();
        assert!(why.contains("pair 2") && why.contains('9') && why.contains('2'), "{why}");
        assert!(first_mismatch(&[1], &[1, 2]).unwrap().contains("1 scores written for 2 pairs"));
    }
}
