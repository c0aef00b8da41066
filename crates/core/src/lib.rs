//! # agatha-core
//!
//! The paper's contribution: the AGAThA guided-alignment kernel and its
//! host-side scheduling, built on the `agatha-gpu-sim` execution model.
//!
//! The four techniques map to modules as follows:
//!
//! * **Rolling window** (§4.1) — anti-diagonal maxima tracked in shared
//!   memory with periodic spills: cost accounting in [`trace`], semantics
//!   delegated to [`agatha_align::diag::DiagTracker`].
//! * **Sliced diagonal** (§4.2) — the device's tiling, computed in
//!   [`trace`] from each task's shape: diagonal slices of `slice_width` 8×8
//!   blocks bound run-ahead and let the local-max buffer fit in shared
//!   memory. The host side ([`kernel`]) only has to produce the scores.
//! * **Subwarp rejoining** (§4.3) — the intra-warp work-stealing simulation
//!   in [`warp_sim`].
//! * **Uneven bucketing** (§4.4) — the task-to-warp assignment in
//!   [`bucketing`].
//!
//! [`pipeline::Pipeline`] ties everything into a batch aligner; every
//! feature can be toggled independently through [`options::AgathaConfig`]
//! for the ablation study (Fig. 9). [`engine::BatchEngine`] is the one host
//! execution path under it, for AGAThA and for every comparator engine
//! ([`pipeline::BaselinePlan`]): the calling thread plus persistent helpers
//! claim the jobs of a published chunk from one counter, each into its own
//! reusable [`kernel::KernelWorkspace`] — whole batches
//! ([`pipeline::Pipeline::align_batch`]) and bounded-memory streams
//! ([`engine::BatchEngine::align_stream_with`]), whose jobs are warps
//! planned from the a-priori workloads before any kernel runs, and serve
//! requests ([`engine::BatchEngine::run_tagged`]), aligned and never
//! priced.

#![forbid(unsafe_code)]

pub mod bucketing;
pub mod clock;
pub mod engine;
pub mod kernel;
pub mod model;
pub mod options;
pub mod pipeline;
pub(crate) mod prefetch;
pub mod trace;
pub mod warp_sim;

pub use bucketing::OrderingStrategy;
pub use clock::{Clock, MockClock, SystemClock};
pub use engine::{
    BatchEngine, ChunkReport, JobMeta, JobOutcome, StreamError, StreamOptions, StreamRun,
    StreamSummary,
};
pub use kernel::{align_task_ws, run_task, run_task_ws, HostRun, KernelWorkspace, TaskRun};
pub use options::AgathaConfig;
pub use pipeline::{BaselinePlan, BaselineRun, BaselineTask, BatchReport, Pipeline};
