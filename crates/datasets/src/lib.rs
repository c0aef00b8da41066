//! # agatha-datasets
//!
//! Synthetic stand-ins for the paper's evaluation data (§5.1): GRCh38 as
//! the reference and nine Genome-in-a-Bottle query sets — HiFi HG005–007,
//! CLR HG002–004 and ONT HG002–004 — pre-processed by Minimap2's
//! seed-and-chain stage into extension-alignment tasks.
//!
//! What matters for reproducing the paper's *performance* results is the
//! task-size and termination-behaviour distribution, not genomic content:
//! the simulated device trace is computed from each task's shape and the
//! anti-diagonal where it stopped (the README's "Host and device"). The
//! generators therefore model:
//!
//! * technology-specific read-length distributions (log-normal bodies with
//!   Pareto tails; ONT's tail is the heaviest),
//! * technology-specific error profiles (HiFi ≈ 0.4 %, CLR ≈ 12 %,
//!   ONT ≈ 8 %),
//! * chimeric/divergent reads whose alignments Z-drop partway — the source
//!   of the unpredictable termination the paper's §3.1 diagnosis centres
//!   on,
//! * the far-right workload peak of Fig. 3(b) (5–20 % of alignments).
//!
//! Everything is seeded and deterministic.

#![forbid(unsafe_code)]

pub mod chain;
pub mod distributions;
pub mod genome;
pub mod mixes;
pub mod profiles;
pub mod reads;
pub mod scenarios;
pub mod spec;

pub use mixes::long_short_mix;
pub use profiles::{Tech, TechProfile};
pub use scenarios::{Scenario, ALL as SCENARIOS};
pub use spec::{generate, Dataset, DatasetSpec};
