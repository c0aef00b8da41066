//! The Minimap2 CPU baseline: the exact guided algorithm, with a calibrated
//! multithreaded throughput model (§5.1's 16C/32T SSE4 machine and §5.8's
//! 48C/96T AVX512 machine).
//!
//! Reads are distributed across CPU threads; at tens of thousands of reads
//! per batch the balance is near-perfect, so the time model is simply total
//! reference cells over aggregate throughput: the plan's warps cost nothing,
//! and the engine times the stream's summed reference cells on the CPU.

use agatha_align::Task;
use agatha_core::{BaselineRun, KernelWorkspace, Pipeline};

use crate::report::kernel;

pub(crate) fn task(ws: &mut KernelWorkspace, task: &Task, pipeline: &Pipeline) -> BaselineRun {
    let result = kernel(ws, task, pipeline, true).0.result;
    BaselineRun { cells: result.cells, result, cycles: 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{run_baseline, Baseline, EngineReport};
    use agatha_align::guided::guided_align;
    use agatha_align::Scoring;
    use agatha_gpu_sim::CpuSpec;
    use agatha_gpu_sim::GpuSpec;

    fn run(tasks: &[Task], scoring: &Scoring, cpu: &CpuSpec) -> EngineReport {
        let which =
            if *cpu == CpuSpec::sse4_16c32t() { Baseline::CpuSse4 } else { Baseline::CpuAvx512 };
        run_baseline(which, tasks, scoring, &GpuSpec::rtx_a6000())
    }

    fn tasks() -> Vec<Task> {
        vec![
            Task::from_strs(0, "ACGTACGTACGT", "ACGTACGTACGT"),
            Task::from_strs(1, "ACGTACGTACGT", "ACGTTCGTACGA"),
            Task::from_strs(2, "AAAACCCCGGGG", "AAAAGGGG"),
        ]
    }

    #[test]
    fn scores_match_reference() {
        let s = Scoring::new(2, 4, 4, 2, 100, 8);
        let rep = run(&tasks(), &s, &CpuSpec::sse4_16c32t());
        for (t, &score) in tasks().iter().zip(&rep.scores) {
            assert_eq!(score, guided_align(&t.reference, &t.query, &s).score);
        }
        assert!(rep.elapsed_ms > 0.0);
    }

    #[test]
    fn stronger_cpu_faster_same_scores() {
        let s = Scoring::new(2, 4, 4, 2, 100, 8);
        let a = run(&tasks(), &s, &CpuSpec::sse4_16c32t());
        let b = run(&tasks(), &s, &CpuSpec::avx512_48c96t());
        assert_eq!(a.scores, b.scores);
        assert!(b.elapsed_ms < a.elapsed_ms);
        assert_eq!(a.total_cells, b.total_cells);
    }
}
