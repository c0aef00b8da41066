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
