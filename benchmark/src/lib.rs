//! The repository's benchmark: the real `agatha` binary end to end
//! (`agatha align` on three batch workloads, `agatha serve` under closed-
//! and open-loop load), every output checked against the scalar oracle, and
//! a separate traced staged replay that decomposes the same work by module.
//! See `README.md` for the workloads, the metrics and their bounds.

pub mod batch;
pub mod child;
pub mod compare;
pub mod gridfill;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod runs;
pub mod serve_load;
pub mod serve_replay;
pub mod spans;
pub mod workloads;
