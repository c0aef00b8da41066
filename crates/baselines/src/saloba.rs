//! SALoBa-like engine [42]: intra-query parallelism with subwarps and
//! horizontal chunk sweeps, "with the banding heuristic that gives further
//! speedup" (§5.2).
//!
//! * **Diff-Target**: plain banded alignment (no termination, no max
//!   tracking beyond a register) — SALoBa's own algorithm plus banding.
//! * **MM2-Target**: the exact guided algorithm implemented naively on the
//!   same design — identical to the ablation study's "Baseline" (Fig. 9):
//!   per-cell global-memory max updates, termination checked at chunk ends
//!   with full-band run-ahead.
//!
//! Both reuse `agatha-core`'s kernel executor with all §4 techniques
//! disabled, differing only in termination semantics and cost profile.

use agatha_align::{Scoring, Task};
use agatha_core::trace::unit_cost;
use agatha_core::{kernel, AgathaConfig};
use agatha_gpu_sim::{host, sched, CostModel, GpuSpec, BLOCK_CELLS};

use crate::report::EngineReport;

/// Run the SALoBa-like engine. `mm2_target` selects the guided (exact)
/// variant; otherwise the banded Diff-Target variant runs.
pub fn run(tasks: &[Task], scoring: &Scoring, spec: &GpuSpec, mm2_target: bool) -> EngineReport {
    let cfg = AgathaConfig::baseline();
    let cost = CostModel::for_spec(spec);
    let scoring_eff = if mm2_target { *scoring } else { scoring.with_zdrop(Scoring::NO_ZDROP) };

    let runs =
        host::parallel_map(tasks.len(), 0, |i| kernel::run_task(&tasks[i], &scoring_eff, &cfg));

    // Subwarp latencies; tasks fill warps in incoming order, no rejoining.
    let lanes = cfg.subwarp_lanes;
    let task_cycles: Vec<f64> = runs
        .iter()
        .map(|r| r.units.iter().map(|u| unit_cost(u, lanes, &cfg, &cost, mm2_target).cycles).sum())
        .collect();

    let warps = agatha_core::bucketing::build_warps(
        &tasks.iter().map(|t| t.antidiags() as u64).collect::<Vec<_>>(),
        cfg.subwarps_per_warp(),
        cfg.tasks_per_subwarp,
        agatha_core::OrderingStrategy::Original,
    );
    let warp_cycles: Vec<f64> = warps
        .iter()
        .map(|w| {
            w.queues
                .iter()
                .map(|q| q.iter().map(|&i| task_cycles[i]).sum::<f64>())
                .fold(0.0, f64::max)
        })
        .collect();

    let makespan = sched::makespan_cycles(&warp_cycles, spec.warp_slots());
    EngineReport {
        name: if mm2_target { "SALoBa (MM2-Target)" } else { "SALoBa (Diff-Target)" }.to_string(),
        scores: runs.iter().map(|r| r.result.score).collect(),
        elapsed_ms: spec.cycles_to_ms(makespan),
        total_cells: runs.iter().map(|r| r.device_blocks() * BLOCK_CELLS).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agatha_align::guided::guided_align;

    fn mk_tasks() -> Vec<Task> {
        let mut out = Vec::new();
        let mut x = 99u64;
        for id in 0..12 {
            let mut r = String::new();
            let mut q = String::new();
            for k in 0..150 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
                r.push(c);
                q.push(if k % 23 == 0 { 'A' } else { c });
            }
            out.push(Task::from_strs(id, &r, &q));
        }
        out
    }

    #[test]
    fn mm2_target_is_exact() {
        let s = Scoring::new(2, 4, 4, 2, 40, 16);
        let rep = run(&mk_tasks(), &s, &GpuSpec::rtx_a6000(), true);
        for (t, &score) in mk_tasks().iter().zip(&rep.scores) {
            assert_eq!(score, guided_align(&t.reference, &t.query, &s).score);
        }
    }

    #[test]
    fn diff_target_ignores_zdrop() {
        let s = Scoring::new(2, 4, 4, 2, 40, 16);
        let unbounded = s.with_zdrop(Scoring::NO_ZDROP);
        let rep = run(&mk_tasks(), &s, &GpuSpec::rtx_a6000(), false);
        for (t, &score) in mk_tasks().iter().zip(&rep.scores) {
            assert_eq!(score, guided_align(&t.reference, &t.query, &unbounded).score);
        }
    }

    #[test]
    fn mm2_target_slower_than_diff_target() {
        // The paper's central observation (Fig. 3a): adding exact guiding to
        // the naive design makes it much slower despite computing fewer
        // cells, because of max-tracking traffic.
        let s = Scoring::new(2, 4, 4, 2, 40, 16);
        let diff = run(&mk_tasks(), &s, &GpuSpec::rtx_a6000(), false);
        let mm2 = run(&mk_tasks(), &s, &GpuSpec::rtx_a6000(), true);
        assert!(
            mm2.elapsed_ms > diff.elapsed_ms,
            "MM2-target {} vs Diff-target {}",
            mm2.elapsed_ms,
            diff.elapsed_ms
        );
    }
}
