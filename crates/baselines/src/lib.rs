//! # agatha-baselines
//!
//! Every comparator engine from the paper's evaluation (§5.2):
//!
//! | Engine | Design | Diff-Target | MM2-Target |
//! |---|---|---|---|
//! | Minimap2 CPU | multithreaded scalar/SIMD guided DP | — | exact (reference) |
//! | GASAL2 | inter-query parallelism + input packing, banded kernel | banded, no termination | guided, per-cell global max updates |
//! | SALoBa | intra-query parallelism, horizontal chunks + banding | banded, no termination | guided, naive (= ablation baseline) |
//! | Manymap | whole-warp anti-diagonal sweeps | *inexact* termination | exact per-diagonal termination |
//! | LOGAN | X-drop with adaptive band, linear gaps | own algorithm | — |
//!
//! Diff-Target is each library's original algorithm; MM2-Target is the
//! faithful extension "to provide output equal to the reference algorithm"
//! (§5.2). Every MM2-Target engine is verified to produce results identical
//! to the scalar reference; Manymap-Diff is verified to *differ* on inputs
//! that expose its inexact termination.
//!
//! No engine here executes anything itself: each module supplies a
//! [`agatha_core::BaselinePlan`] (one task's DP and price, and how many tasks
//! share a warp), and [`Baseline::pipeline`] runs it on AGAThA's streaming
//! engine. [`run_baseline`] is one chunk on that engine.

#![forbid(unsafe_code)]

pub mod cpu;
pub mod gasal2;
pub mod logan;
pub mod manymap;
pub mod report;
pub mod saloba;

pub use report::{run_baseline, Baseline, EngineReport};
