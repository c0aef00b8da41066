//! GASAL2-like engine [1]: input packing + **inter-query parallelism** —
//! each GPU thread processes one whole alignment sequentially, 32 alignments
//! per warp ("we use the banding kernel in GASAL2", §5.2).
//!
//! The design has no intra-task parallelism: a lane walks its banded table
//! row by row. That keeps the kernel simple, but (a) per-lane sequential
//! processing is slower per cell, (b) warp latency is the maximum over 32
//! independent alignments, and (c) the MM2-Target extension must update the
//! per-anti-diagonal maxima in global memory *uncoalesced* — each lane
//! works on a different task, so neighbouring lanes never share a buffer.
//! This is why GASAL2 (MM2-Target) ends up slower than the CPU in Fig. 8.
//!
//! A lane's result comes from the kernel: the exact guided result under
//! MM2-Target, and under Diff-Target the kernel with Z-drop off, which fills
//! the same banded table as the banded kernel (`banded_align`), cell for
//! cell.

use agatha_align::Task;
use agatha_core::{BaselineRun, KernelWorkspace, Pipeline};

use crate::report::kernel;

/// Global transactions per cell for the MM2-Target per-cell max update
/// (uncoalesced: one transaction per lane access).
const MM2_ANTI_TX_PER_CELL: f64 = 0.25;
/// Global transactions per cell for sequence loads and boundary values
/// (well coalesced within a lane's row walk).
const BASE_TX_PER_CELL: f64 = 1.0 / 16.0;

/// One lane's alignment: sequential cell processing plus global traffic.
pub(crate) fn task<const MM2: bool>(
    ws: &mut KernelWorkspace,
    task: &Task,
    pipeline: &Pipeline,
) -> BaselineRun {
    let result = kernel(ws, task, pipeline, MM2).0.result;
    let cells = result.cells;
    let tx_per_cell = BASE_TX_PER_CELL + if MM2 { MM2_ANTI_TX_PER_CELL } else { 0.0 };
    let cycles = pipeline.cost.sequential_cycles(cells, (cells as f64 * tx_per_cell) as u64);
    BaselineRun { result, cells, cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{run_baseline, Baseline, EngineReport};
    use agatha_align::guided::guided_align;
    use agatha_align::Scoring;
    use agatha_gpu_sim::GpuSpec;

    fn run(tasks: &[Task], scoring: &Scoring, spec: &GpuSpec, mm2: bool) -> EngineReport {
        let which = if mm2 { Baseline::Gasal2Mm2 } else { Baseline::Gasal2Diff };
        run_baseline(which, tasks, scoring, spec)
    }

    fn mk_tasks(n: usize) -> Vec<Task> {
        let mut out = Vec::new();
        let mut x = 5u64;
        for id in 0..n {
            let mut r = String::new();
            let mut q = String::new();
            for k in 0..120 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
                r.push(c);
                q.push(if k % 17 == 0 { 'G' } else { c });
            }
            out.push(Task::from_strs(id as u32, &r, &q));
        }
        out
    }

    #[test]
    fn mm2_target_exact() {
        let s = Scoring::new(2, 4, 4, 2, 40, 12);
        let tasks = mk_tasks(8);
        let rep = run(&tasks, &s, &GpuSpec::rtx_a6000(), true);
        for (t, &score) in tasks.iter().zip(&rep.scores) {
            assert_eq!(score, guided_align(&t.reference, &t.query, &s).score);
        }
    }

    #[test]
    fn mm2_extension_is_much_slower() {
        // Uncoalesced per-cell max updates dominate: the MM2 extension costs
        // far more than the banded original (Fig. 3a / Fig. 8).
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 12);
        let tasks = mk_tasks(64);
        let diff = run(&tasks, &s, &GpuSpec::rtx_a6000(), false);
        let mm2 = run(&tasks, &s, &GpuSpec::rtx_a6000(), true);
        assert!(mm2.elapsed_ms > 3.0 * diff.elapsed_ms);
    }

    #[test]
    fn warp_latency_is_max_of_lanes() {
        // One long task among 31 short ones: warp as slow as the long one.
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 12);
        let mut tasks = mk_tasks(31);
        let long = {
            let base = mk_tasks(1).remove(0);
            let r = base.reference.to_string_seq().repeat(8);
            Task::from_strs(31, &r, &r)
        };
        tasks.push(long);
        let mixed = run(&tasks, &s, &GpuSpec::rtx_a6000(), false);
        let only_long = run(&tasks[31..], &s, &GpuSpec::rtx_a6000(), false);
        assert!(mixed.elapsed_ms >= only_long.elapsed_ms * 0.99);
    }
}
