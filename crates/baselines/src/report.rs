//! Uniform engine interface for the scorecard and the tests: each engine is a
//! [`BaselinePlan`] that a [`Pipeline`] runs on the streaming engine.

use agatha_align::{Scoring, Task};
use agatha_core::{
    align_task_ws, AgathaConfig, BaselinePlan, BaselineTask, HostRun, KernelWorkspace, Pipeline,
};
use agatha_gpu_sim::{CpuSpec, GpuSpec, WARP_LANES};

/// Output of running one engine over one dataset.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Engine display name (figure row label).
    pub name: String,
    /// Alignment scores in task order. Diff-Target engines may legitimately
    /// differ from the reference here.
    pub scores: Vec<i32>,
    /// Simulated execution time in milliseconds.
    pub elapsed_ms: f64,
    /// Total DP cells the engine computed.
    pub total_cells: u64,
}

/// Registry of all baseline engines, for sweeping in the scorecard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Minimap2 on the default CPU (16C/32T SSE4).
    CpuSse4,
    /// mm2-fast on the stronger CPU (48C/96T AVX512).
    CpuAvx512,
    /// GASAL2's own banded kernel.
    Gasal2Diff,
    /// GASAL2 extended with the exact guiding algorithm.
    Gasal2Mm2,
    /// SALoBa's own banded kernel.
    SalobaDiff,
    /// SALoBa extended with the exact guiding algorithm (the ablation
    /// baseline of Fig. 9).
    SalobaMm2,
    /// Manymap with its original inexact termination.
    ManymapDiff,
    /// Manymap with exact per-anti-diagonal termination.
    ManymapMm2,
    /// LOGAN's X-drop algorithm (Diff-Target only; §5.2).
    Logan,
}

impl Baseline {
    /// All engines, in the order Fig. 8 lists them.
    pub const ALL: [Baseline; 9] = [
        Baseline::CpuSse4,
        Baseline::CpuAvx512,
        Baseline::Gasal2Diff,
        Baseline::Gasal2Mm2,
        Baseline::SalobaDiff,
        Baseline::SalobaMm2,
        Baseline::ManymapDiff,
        Baseline::ManymapMm2,
        Baseline::Logan,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::CpuSse4 => "Minimap2 (16C32T SSE4)",
            Baseline::CpuAvx512 => "Minimap2 (48C96T AVX512)",
            Baseline::Gasal2Diff => "GASAL2 (Diff-Target)",
            Baseline::Gasal2Mm2 => "GASAL2 (MM2-Target)",
            Baseline::SalobaDiff => "SALoBa (Diff-Target)",
            Baseline::SalobaMm2 => "SALoBa (MM2-Target)",
            Baseline::ManymapDiff => "Manymap (Diff-Target)",
            Baseline::ManymapMm2 => "Manymap (MM2-Target)",
            Baseline::Logan => "LOGAN (Diff-Target)",
        }
    }

    /// Whether this engine claims exact MM2 semantics.
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            Baseline::CpuSse4
                | Baseline::CpuAvx512
                | Baseline::Gasal2Mm2
                | Baseline::SalobaMm2
                | Baseline::ManymapMm2
        )
    }

    /// The engine as a plan the streaming engine runs: its module's task,
    /// and its warp as queues × tasks per queue. GASAL2 runs one task per
    /// lane, SALoBa [`AgathaConfig::baseline`]'s subwarps, Manymap and LOGAN
    /// a whole warp per task, and the CPU one task per claim.
    pub fn plan(self) -> BaselinePlan {
        use crate::{cpu, gasal2, logan, manymap, saloba};
        let cfg = AgathaConfig::baseline();
        let subwarps = (cfg.subwarps_per_warp(), cfg.tasks_per_subwarp);
        let (run, (queues, tasks_per_queue)): (BaselineTask, _) = match self {
            Baseline::CpuSse4 | Baseline::CpuAvx512 => (cpu::task, (1, 1)),
            Baseline::Gasal2Diff => (gasal2::task::<false>, (WARP_LANES, 1)),
            Baseline::Gasal2Mm2 => (gasal2::task::<true>, (WARP_LANES, 1)),
            Baseline::SalobaDiff => (saloba::task::<false>, subwarps),
            Baseline::SalobaMm2 => (saloba::task::<true>, subwarps),
            Baseline::ManymapDiff => (manymap::task::<false>, (1, 1)),
            Baseline::ManymapMm2 => (manymap::task::<true>, (1, 1)),
            Baseline::Logan => (logan::task, (1, 1)),
        };
        let cpu = match self {
            Baseline::CpuSse4 => Some(CpuSpec::sse4_16c32t()),
            Baseline::CpuAvx512 => Some(CpuSpec::avx512_48c96t()),
            _ => None,
        };
        let name = cpu.as_ref().map_or(self.name(), |cpu| cpu.name);
        BaselinePlan { name, run, queues, tasks_per_queue, cpu }
    }

    /// A pipeline that runs this engine under `scoring` on the paper's
    /// device, on every host core, with [`AgathaConfig::baseline`]: SALoBa's
    /// design, and the fill plan of every engine that runs the kernel.
    pub fn pipeline(self, scoring: Scoring) -> Pipeline {
        let pipeline = Pipeline::new(scoring, AgathaConfig::baseline());
        Pipeline { baseline: Some(self.plan()), ..pipeline }
    }
}

/// The kernel's host half on the worker's workspace: under MM2-Target the
/// exact result, bit-identical to the scalar reference, and under
/// Diff-Target the whole band, without the Z-drop.
pub(crate) fn kernel(
    ws: &mut KernelWorkspace,
    task: &Task,
    pipeline: &Pipeline,
    mm2_target: bool,
) -> (HostRun, Scoring) {
    let scoring = pipeline.scoring;
    let scoring = if mm2_target { scoring } else { scoring.with_zdrop(Scoring::NO_ZDROP) };
    (align_task_ws(ws, task, &scoring, &pipeline.config), scoring)
}

/// Run one baseline engine on a GPU spec (ignored by the CPU engines): one
/// chunk on the engine.
pub fn run_baseline(
    which: Baseline,
    tasks: &[Task],
    scoring: &Scoring,
    spec: &GpuSpec,
) -> EngineReport {
    let pipeline = which.pipeline(*scoring).with_spec(spec.clone());
    let report = pipeline.align_batch(tasks);
    EngineReport {
        name: pipeline.engine_name().to_string(),
        scores: report.results.iter().map(|r| r.score).collect(),
        elapsed_ms: report.elapsed_ms,
        total_cells: report.stats.device_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<&str> =
            Baseline::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), Baseline::ALL.len());
    }

    #[test]
    fn exactness_flags() {
        assert!(Baseline::SalobaMm2.is_exact());
        assert!(!Baseline::SalobaDiff.is_exact());
        assert!(!Baseline::Logan.is_exact());
        assert!(!Baseline::ManymapDiff.is_exact());
        assert!(Baseline::ManymapMm2.is_exact());
    }
}
