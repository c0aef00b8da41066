//! The four workloads: what each runs, why it exists, and how its inputs are
//! made from the seed.
//!
//! Sizes are frozen here (and restated in `BENCHMARK.json` / the README);
//! nothing is derived from a measurement at run time, so two runs with the
//! same seed execute exactly the same work.

use std::io::Write;
use std::path::{Path, PathBuf};

use agatha_align::{Base, PackedSeq, Scoring, Task};
use agatha_datasets::scenarios;

/// One `agatha align` workload.
#[derive(Debug, Clone, Copy)]
pub struct BatchWorkload {
    pub name: &'static str,
    /// Registered scenario: supplies the score model and the task generator.
    pub scenario: &'static str,
    /// Pairs per timed rep.
    pub pairs: usize,
    /// `--threads`.
    pub threads: usize,
    /// `--chunk`; `None` keeps the CLI default (4096).
    pub chunk: Option<usize>,
    /// Pairs the traced staged replay runs (generated from the same seed).
    pub replay_pairs: usize,
}

/// The bounds a daemon sheds load by: `--max-queue` and `--deadline-ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    pub max_queue: usize,
    pub deadline_ms: u64,
}

/// The `agatha serve` workload: one daemon per phase, one connection, a
/// sender thread and a receiver thread.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    pub name: &'static str,
    pub scenario: &'static str,
    /// Distinct pairs cycled through by the load generator.
    pub corpus: usize,
    /// Requests outstanding in the closed-loop phase.
    pub closed_outstanding: usize,
    /// Open-loop ladder in requests per second, ascending. Fixed numbers,
    /// calibrated once against the closed-loop capacity of the reference
    /// host (see the README); never derived at run time.
    pub ladder_rps: [u32; 5],
    /// Index into `ladder_rps` of the reference rate the latency metrics
    /// are read at.
    pub ref_step: usize,
    /// A request meets the limit when its `ok` reply arrives within this
    /// many milliseconds of the instant it was due to be sent.
    pub limit_ms: f64,
    pub window_ms: u64,
    /// Bounds of every phase but the reference step: the queue and deadline
    /// the overload step is there to exercise.
    pub admission: Admission,
    /// Bounds of the reference step's daemon. Its requests are the run's
    /// `attempted` operations and none of them may fail, so the bounds are
    /// wide enough that a stall of the host (which at the bounds above turns
    /// into a burst of deadline drops or rejections, a quarter of capacity
    /// or not) delays replies instead of shedding them.
    pub ref_admission: Admission,
}

impl ServeWorkload {
    /// The bounds of ladder step `step`'s daemon.
    pub fn step_admission(&self, step: usize) -> Admission {
        if step == self.ref_step {
            self.ref_admission
        } else {
            self.admission
        }
    }
}

/// 180-300 bp pairs, i16 tier, two workers: per-task engine, parse and
/// bookkeeping costs at their largest share.
pub const SHORT_BATCH: BatchWorkload = BatchWorkload {
    name: "short-batch",
    scenario: "dna-short",
    pairs: 24_000,
    threads: 2,
    chunk: None,
    replay_pairs: 8_000,
};

/// Heavy-tailed kb-scale CLR pairs, i32 tier, z-drops: fill/fold is ~97% of
/// time, engine and parse changes should not show.
pub const LONG_BATCH: BatchWorkload = BatchWorkload {
    name: "long-batch",
    scenario: "dna-long",
    pairs: 1_800,
    threads: 2,
    chunk: None,
    replay_pairs: 450,
};

/// BLOSUM62 matrix profile and 8-bit packing, 200 chunks of 100 on the
/// one-worker inline path, carry-over fires (100 % 8 = 4).
pub const PROTEIN_STREAM: BatchWorkload = BatchWorkload {
    name: "protein-stream100",
    scenario: "protein-blosum62",
    pairs: 20_000,
    threads: 1,
    chunk: Some(100),
    replay_pairs: 8_000,
};

/// The request path (protocol, admission window, queue, run_tagged, reply) under
/// closed- and open-loop load up to overload.
pub const SERVE_OPEN: ServeWorkload = ServeWorkload {
    name: "serve-open",
    scenario: "dna-short",
    corpus: 4_096,
    closed_outstanding: 64,
    ladder_rps: [1_000, 2_000, 4_000, 5_500, 16_000],
    ref_step: 1,
    limit_ms: 25.0,
    window_ms: 2,
    admission: Admission { max_queue: 512, deadline_ms: 100 },
    ref_admission: Admission { max_queue: 65_536, deadline_ms: 10_000 },
};

pub const BATCH_WORKLOADS: [BatchWorkload; 3] = [SHORT_BATCH, LONG_BATCH, PROTEIN_STREAM];

/// Every workload name, in reporting order.
pub const WORKLOAD_NAMES: [&str; 4] =
    [SHORT_BATCH.name, LONG_BATCH.name, PROTEIN_STREAM.name, SERVE_OPEN.name];

pub fn find_batch(name: &str) -> Option<BatchWorkload> {
    BATCH_WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The scoring a scenario's CLI preset resolves to (`--scenario NAME` with no
/// `-z`/`-w` override).
pub fn scenario_scoring(scenario: &str) -> Scoring {
    (scenarios::find(scenario).expect("workloads name registered scenarios").scoring)()
}

/// `count` tasks of `scenario`, a pure function of `seed`.
pub fn generate_tasks(scenario: &str, seed: u64, count: usize) -> Vec<Task> {
    (scenarios::find(scenario).expect("workloads name registered scenarios").tasks)(seed, count)
}

/// Scale a full size down for `--quick`, keeping at least `floor`.
pub fn quick_size(full: usize, floor: usize) -> usize {
    (full / 20).max(floor)
}

/// A sequence as the ASCII text a FASTA file or a serve request carries:
/// DNA letters under the fixed model, the matrix's residue letters under a
/// substitution-matrix model.
pub fn seq_text(seq: &PackedSeq, scoring: &Scoring) -> String {
    match scoring.model.matrix() {
        None => (0..seq.len()).map(|i| Base::from_code(seq.code(i)).to_char()).collect(),
        Some(m) => {
            let alphabet: Vec<char> = m.alphabet.chars().collect();
            (0..seq.len()).map(|i| alphabet[usize::from(seq.code(i)).min(m.dim - 1)]).collect()
        }
    }
}

/// The reference / query FASTA pair of one batch workload on disk.
#[derive(Debug, Clone)]
pub struct FastaInput {
    pub refs: PathBuf,
    pub queries: PathBuf,
    /// Sequence characters in both files (headers and newlines excluded).
    pub bases: u64,
    /// Size of both files in bytes.
    pub bytes: u64,
}

/// Write `tasks` as `<dir>/<stem>.ref.fasta` and `<dir>/<stem>.query.fasta`
/// (60-column wrapping, like `agatha_io::write_fasta`, which cannot render
/// protein residues).
pub fn write_fasta_pair(
    dir: &Path,
    stem: &str,
    tasks: &[Task],
    scoring: &Scoring,
) -> Result<FastaInput, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let refs = dir.join(format!("{stem}.ref.fasta"));
    let queries = dir.join(format!("{stem}.query.fasta"));
    let mut bases = 0u64;
    let mut bytes = 0u64;
    for (path, pick) in [
        (&refs, (|t: &Task| &t.reference) as fn(&Task) -> &PackedSeq),
        (&queries, |t: &Task| &t.query),
    ] {
        let mut out = Vec::new();
        for t in tasks {
            let text = seq_text(pick(t), scoring);
            bases += text.len() as u64;
            writeln!(out, ">{}", t.id + 1).expect("write to Vec");
            for line in text.as_bytes().chunks(60) {
                out.extend_from_slice(line);
                out.push(b'\n');
            }
        }
        bytes += out.len() as u64;
        std::fs::write(path, &out).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(FastaInput { refs, queries, bases, bytes })
}

/// The `agatha align` argument list of a batch workload (everything after
/// the program name), output directory last.
pub fn align_args(w: &BatchWorkload, input: &FastaInput, out_dir: &Path) -> Vec<String> {
    let mut args = vec![
        "align".to_string(),
        "--scenario".to_string(),
        w.scenario.to_string(),
        "--threads".to_string(),
        w.threads.to_string(),
    ];
    if let Some(chunk) = w.chunk {
        args.push("--chunk".to_string());
        args.push(chunk.to_string());
    }
    args.push("-o".to_string());
    args.push(out_dir.display().to_string());
    args.push(input.refs.display().to_string());
    args.push(input.queries.display().to_string());
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use agatha_io::open_fasta_pairs_model;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for w in BATCH_WORKLOADS {
            let a = generate_tasks(w.scenario, 7, 12);
            let b = generate_tasks(w.scenario, 7, 12);
            let c = generate_tasks(w.scenario, 8, 12);
            assert_eq!(a.len(), 12);
            assert!(a
                .iter()
                .zip(&b)
                .all(|(x, y)| x.reference == y.reference && x.query == y.query));
            assert!(a.iter().zip(&c).any(|(x, y)| x.query != y.query), "{}", w.name);
        }
    }

    #[test]
    fn fasta_round_trips_under_each_score_model() {
        let dir = std::env::temp_dir().join(format!("agatha_bm_fasta_{}", std::process::id()));
        for w in BATCH_WORKLOADS {
            let scoring = scenario_scoring(w.scenario);
            let tasks = generate_tasks(w.scenario, 3, 9);
            let input = write_fasta_pair(&dir, w.name, &tasks, &scoring).unwrap();
            let back: Vec<Task> =
                open_fasta_pairs_model(&input.refs, &input.queries, &scoring.model)
                    .unwrap()
                    .collect::<Result<_, _>>()
                    .unwrap();
            assert_eq!(back.len(), tasks.len());
            for (a, b) in tasks.iter().zip(&back) {
                assert_eq!(a.reference, b.reference, "{}", w.name);
                assert_eq!(a.query, b.query, "{}", w.name);
            }
            let want: u64 = tasks.iter().map(|t| (t.ref_len() + t.query_len()) as u64).sum();
            assert_eq!(input.bases, want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_the_reference_step_runs_with_the_wide_bounds() {
        let w = SERVE_OPEN;
        for step in 0..w.ladder_rps.len() {
            let want = if step == w.ref_step { w.ref_admission } else { w.admission };
            assert_eq!(w.step_admission(step), want);
        }
        // A stall of a second at the reference rate must fit in the queue
        // and inside the deadline.
        assert!(w.ref_admission.max_queue >= w.ladder_rps[w.ref_step] as usize);
        assert!(w.ref_admission.deadline_ms >= 1_000);
        assert!(w.admission.max_queue < w.ladder_rps[w.ladder_rps.len() - 1] as usize);
    }

    #[test]
    fn protein_chunk_leaves_a_carry_remainder() {
        let chunk = PROTEIN_STREAM.chunk.unwrap();
        assert_ne!(chunk % 8, 0, "chunk must not be a warp-capacity multiple");
        assert_eq!(SHORT_BATCH.chunk, None);
    }
}
