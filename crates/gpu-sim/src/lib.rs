//! # agatha-gpu-sim
//!
//! A discrete SIMT execution-model simulator — the substitute for the CUDA
//! GPUs the paper evaluates on (the README's "Host and device" section says
//! which half of a run is computed and which is simulated).
//!
//! The simulator is deliberately *not* a cycle-accurate microarchitecture
//! model. It follows the paper's own performance model (Table 1):
//!
//! ```text
//! latency ≈ MAX/AVG over warps ( MAX/AVG over subwarps (
//!     Cells × ( 1/Comp.TP + (AR_anti + AR_inter + AR_term)/Mem.TP ) ) )
//! ```
//!
//! Engines execute the *real* DP (so termination, run-ahead and divergence
//! emerge from real data) and charge this crate's cost model for: lockstep
//! block-steps, global-memory transactions by category (anti-diagonal max
//! tracking, intermediate values, termination checks, sequence loads),
//! shared-memory traffic, warp reductions and synchronisation. Warp
//! latencies are then placed onto the device's warp slots by a list
//! scheduler to produce the kernel makespan.
//!
//! Everything is deterministic: identical inputs give identical simulated
//! times on every host. The crate prices and schedules; it executes
//! nothing and owns no threads — every engine, AGAThA's and the baselines',
//! runs on `agatha-core`'s streaming engine.

#![forbid(unsafe_code)]

pub mod cost;
pub mod cpu;
pub mod mem;
pub mod sched;
pub mod spec;
pub mod stats;

pub use cost::CostModel;
pub use cpu::CpuSpec;
pub use mem::{AccessKind, MemCounters};
pub use sched::{makespan_cycles, DeviceReport};
pub use spec::GpuSpec;
pub use stats::KernelStats;

/// Lanes per warp, fixed by the architecture.
pub const WARP_LANES: usize = 32;

/// The simulator models a `1/SIM_SCALE` slice of each device: warp slots
/// and the CPU baseline's throughput are both divided by this factor, so
/// every engine-to-engine and GPU-to-CPU *ratio* is preserved while batch
/// sizes stay tractable (the paper uses 50,000-read batches; benchmark
/// scale uses hundreds).
pub const SIM_SCALE: u32 = 32;

/// Cells per block-step per lane (8×8 blocks; §2.2).
pub const BLOCK_CELLS: u64 = 64;
