//! LOGAN-like engine [57]: X-drop alignment with an adaptive band and
//! linear gap scores, processed one anti-diagonal at a time by a full warp.
//!
//! LOGAN "implements its own guiding algorithm. It adjusts the band width
//! during score table filling after calculating each anti-diagonal" (§5.2).
//! It is evaluated Diff-Target only, since its algorithm is not Minimap2's.
//! Its linear gap score "is less expensive in both computation and memory"
//! (§5.3), modelled as a reduced per-cell cost.

use agatha_align::result::StopReason;
use agatha_align::xdrop::{xdrop_align, XDropParams, XDropResult};
use agatha_align::{GuidedResult, Task};
use agatha_core::{BaselineRun, KernelWorkspace, Pipeline};
use agatha_gpu_sim::WARP_LANES;

/// Linear-gap DP computes one running score instead of H/E/F — fewer
/// registers, fewer max operations.
const LINEAR_GAP_CELL_FACTOR: f64 = 0.6;

/// One warp's X-drop alignment, an anti-diagonal at a time. It reports its
/// score, best cell and workload; X-drop has no Z-drop stop and no end
/// score.
pub(crate) fn task(_: &mut KernelWorkspace, task: &Task, pipeline: &Pipeline) -> BaselineRun {
    let Pipeline { scoring, cost, .. } = pipeline;
    let params = XDropParams::from_scoring(scoring);
    let XDropResult { score, max, antidiags, cells, .. } =
        xdrop_align(&task.reference, &task.query, scoring, &params);
    let stop = StopReason::Completed;
    let result = GuidedResult { score, max, qend_score: None, stop, antidiags, cells };
    let diags = result.antidiags as f64;
    let rounds = (result.cells as f64 / WARP_LANES as f64).max(diags);
    let compute =
        rounds * WARP_LANES as f64 * cost.effective_cell_cycles() * LINEAR_GAP_CELL_FACTOR;
    let sync = diags * cost.sync_cycles;
    // Band trimming per diagonal: one reduction, no global traffic.
    let trim = diags * cost.reduce_cycles;
    let exchange = diags * 6.0 * cost.sync_cycles; // boundary shuffles per diagonal
    let seq = diags / 4.0 * cost.global_tx_cycles;
    BaselineRun { cells: result.cells, result, cycles: compute + sync + exchange + trim + seq }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{run_baseline, Baseline, EngineReport};
    use agatha_align::Scoring;
    use agatha_gpu_sim::GpuSpec;

    fn run(tasks: &[Task], scoring: &Scoring, spec: &GpuSpec) -> EngineReport {
        run_baseline(Baseline::Logan, tasks, scoring, spec)
    }

    fn mk_tasks(n: usize, junk_tail: bool) -> Vec<Task> {
        let mut out = Vec::new();
        let mut x = 23u64;
        for id in 0..n {
            let mut r = String::new();
            let mut q = String::new();
            for k in 0..160 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
                r.push(c);
                q.push(if k % 31 == 0 { 'T' } else { c });
            }
            if junk_tail {
                r.push_str(&"G".repeat(200));
                q.push_str(&"C".repeat(200));
            }
            out.push(Task::from_strs(id as u32, &r, &q));
        }
        out
    }

    #[test]
    fn produces_scores_and_time() {
        let s = Scoring::new(2, 4, 4, 2, 100, 32);
        let rep = run(&mk_tasks(8, false), &s, &GpuSpec::rtx_a6000());
        assert_eq!(rep.scores.len(), 8);
        assert!(rep.elapsed_ms > 0.0);
        assert!(rep.scores.iter().all(|&sc| sc > 0));
    }

    #[test]
    fn adaptive_band_computes_fewer_cells_on_junk() {
        // The adaptive band prunes the junk tail; the full-band engines
        // without termination would compute all of it.
        let s = Scoring::new(2, 4, 4, 2, 30, 32);
        let with_junk = run(&mk_tasks(4, true), &s, &GpuSpec::rtx_a6000());
        let clean = run(&mk_tasks(4, false), &s, &GpuSpec::rtx_a6000());
        // Junk adds 200 bases each side but X-drop stops within ~Z of it.
        let per_task_extra = (with_junk.total_cells as f64 - clean.total_cells as f64) / 4.0;
        assert!(
            per_task_extra < 20_000.0,
            "adaptive band should prune most of the junk, extra {per_task_extra}"
        );
    }
}
