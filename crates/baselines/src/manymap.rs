//! Manymap-like engine [12]: a GPU port of Minimap2's own kernel that fills
//! the score table **one whole anti-diagonal at a time** with a full warp
//! per alignment.
//!
//! Because every anti-diagonal completes before the next starts, the
//! termination condition can be evaluated after each one — there is *no*
//! run-ahead, which is why Manymap is "the only version that benefits from
//! implementing the guided alignment algorithm" (§5.3). The price is poor
//! lane utilisation (the band rarely fills 32 lanes' worth of work) and a
//! synchronisation per anti-diagonal.
//!
//! * **MM2-Target**: exact per-anti-diagonal Z-drop (verified against the
//!   reference).
//! * **Diff-Target**: the original's *inexact interpretation* of the
//!   termination condition: the score drop is compared against `Z` alone
//!   (no gap-length adjustment, no position constraint) and only every 8th
//!   anti-diagonal — faster to check, but can terminate differently.

use agatha_align::guided::{guided_align_until, GuidedWorkspace};
use agatha_align::result::{GuidedResult, MaxCell};
use agatha_align::{PackedSeq, Scoring, Task};
use agatha_core::{BaselineRun, KernelWorkspace, Pipeline};
use agatha_gpu_sim::WARP_LANES;

use crate::report::kernel;

/// How often the Diff-Target variant evaluates its (approximate)
/// termination condition.
const DIFF_CHECK_INTERVAL: i64 = 8;

/// One warp's alignment. Per anti-diagonal, the warp computes
/// ceil(cells/32) lockstep rounds of 32 cells plus a synchronisation and a
/// termination check.
pub(crate) fn task<const MM2: bool>(
    ws: &mut KernelWorkspace,
    task: &Task,
    pipeline: &Pipeline,
) -> BaselineRun {
    let result = if MM2 {
        kernel(ws, task, pipeline, true).0.result
    } else {
        inexact_guided(&task.reference, &task.query, &pipeline.scoring)
    };
    let cost = &pipeline.cost;
    let diags = result.antidiags as f64;
    let rounds = (result.cells as f64 / WARP_LANES as f64).max(diags); // >= 1 round per diag
    let compute = rounds * WARP_LANES as f64 * cost.effective_cell_cycles();
    let sync = diags * cost.sync_cycles;
    // boundary shuffles per diagonal
    let exchange = diags * 6.0 * cost.sync_cycles;
    // MM2-Target keeps the GMB in a register and checks with one warp
    // reduction per anti-diagonal; the original (Diff-Target) check reads
    // its max buffer from global memory every 8th anti-diagonal. Combined
    // with the exact variant's slightly earlier termination, guiding *helps*
    // Manymap (§5.3).
    let term = if MM2 {
        diags * cost.reduce_cycles
    } else {
        diags / DIFF_CHECK_INTERVAL as f64 * (cost.reduce_cycles + cost.global_tx_cycles)
    };
    let seq = diags / 4.0 * cost.global_tx_cycles; // packed loads every 8 diagonals, 2 streams
    BaselineRun { cells: result.cells, result, cycles: compute + sync + exchange + term + seq }
}

/// The Diff-Target scalar: the guided DP loop with the approximate drop
/// condition — a plain score drop greater than `Z`, sampled every
/// `DIFF_CHECK_INTERVAL` anti-diagonals.
pub fn inexact_guided(reference: &PackedSeq, query: &PackedSeq, scoring: &Scoring) -> GuidedResult {
    let ws = &mut GuidedWorkspace::new();
    let diff_target = |c: i64, global: MaxCell, local: MaxCell| {
        scoring.zdrop_enabled()
            && c % DIFF_CHECK_INTERVAL == DIFF_CHECK_INTERVAL - 1
            && (global.score as i64 - local.score as i64) > scoring.zdrop as i64
    };
    guided_align_until(reference, query, scoring, ws, diff_target, |_, _, _, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{run_baseline, Baseline, EngineReport};
    use agatha_align::guided::guided_align;
    use agatha_gpu_sim::GpuSpec;

    fn run(tasks: &[Task], scoring: &Scoring, spec: &GpuSpec, mm2: bool) -> EngineReport {
        let which = if mm2 { Baseline::ManymapMm2 } else { Baseline::ManymapDiff };
        run_baseline(which, tasks, scoring, spec)
    }

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_str_seq(s)
    }

    fn mk_tasks(n: usize) -> Vec<Task> {
        let mut out = Vec::new();
        let mut x = 17u64;
        for id in 0..n {
            let mut r = String::new();
            let mut q = String::new();
            for k in 0..140 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
                r.push(c);
                q.push(if k % 29 == 0 { 'C' } else { c });
            }
            out.push(Task::from_strs(id as u32, &r, &q));
        }
        out
    }

    #[test]
    fn mm2_target_exact() {
        let s = Scoring::new(2, 4, 4, 2, 40, 12);
        let tasks = mk_tasks(6);
        let rep = run(&tasks, &s, &GpuSpec::rtx_a6000(), true);
        for (t, &score) in tasks.iter().zip(&rep.scores) {
            assert_eq!(score, guided_align(&t.reference, &t.query, &s).score);
        }
    }

    #[test]
    fn diff_target_differs_on_gap_heavy_input() {
        // A long single gap: the exact condition tolerates it (the drop is
        // explained by |Δi - Δj| · β), the inexact one terminates.
        let pref = "ACGTACGTACGTACGTACGTACGTACGT";
        let r = format!("{pref}{}", "ACGT".repeat(12));
        let q = format!("{pref}{}{}", "T".repeat(16), "ACGT".repeat(12));
        let s = Scoring::new(2, 4, 4, 2, 30, Scoring::NO_BAND);
        let exact = guided_align(&seq(&r), &seq(&q), &s);
        let inexact = inexact_guided(&seq(&r), &seq(&q), &s);
        assert!(
            !exact.stop.z_dropped(),
            "exact Z-drop must tolerate the long gap: {:?}",
            exact.stop
        );
        assert!(
            inexact.stop.z_dropped(),
            "inexact X-drop-style check must fire: {:?}",
            inexact.stop
        );
        assert!(inexact.score < exact.score);
    }

    #[test]
    fn diff_target_agrees_on_easy_input() {
        let s = Scoring::new(2, 4, 4, 2, 100, 16);
        for t in mk_tasks(4) {
            let exact = guided_align(&t.reference, &t.query, &s);
            let inexact = inexact_guided(&t.reference, &t.query, &s);
            assert_eq!(exact.score, inexact.score, "task {}", t.id);
        }
    }

    #[test]
    fn no_runahead_means_cells_equal_reference() {
        let s = Scoring::new(2, 4, 4, 2, 40, 12);
        let tasks = mk_tasks(6);
        let rep = run(&tasks, &s, &GpuSpec::rtx_a6000(), true);
        let expect: u64 =
            tasks.iter().map(|t| guided_align(&t.reference, &t.query, &s).cells).sum();
        assert_eq!(rep.total_cells, expect);
    }
}
