//! # agatha-io
//!
//! File formats and small host utilities: FASTA reading/writing (both
//! standard `>`-headers and the AGAThA artifact's `>>> n` variant) with a
//! streaming record/pair reader for bounded-memory ingestion, the
//! artifact's `score.log` / `time.json` outputs (Appendix A), and a
//! dependency-free command-line flag parser.

#![forbid(unsafe_code)]

pub mod args;
pub mod fasta;
pub mod output;

pub use args::Args;
pub use fasta::{
    open_fasta, open_fasta_pairs, open_fasta_pairs_model, read_fasta, read_fasta_str, write_fasta,
    FastaPairs, FastaReader, FastaRecord,
};
pub use output::{write_score_log, write_time_json};

/// Per-process-unique scratch dir for unit tests, so concurrent test runs
/// (two checkouts, parallel CI jobs) never race on the same files.
#[cfg(test)]
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("agatha_io_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
