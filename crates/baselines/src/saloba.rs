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
//! Both run `agatha-core`'s kernel under `AgathaConfig::baseline()` (all §4
//! techniques off, the subwarps a warp packs) and price its device trace,
//! differing only in termination semantics and cost profile: Diff-Target
//! prices without maxima tracking.

use agatha_align::Task;
use agatha_core::trace::unit_cost;
use agatha_core::{BaselineRun, KernelWorkspace, Pipeline};
use agatha_gpu_sim::BLOCK_CELLS;

use crate::report::kernel;

/// One subwarp's task: the kernel's result and its device trace, priced at
/// the subwarp's lanes.
pub(crate) fn task<const MM2: bool>(
    ws: &mut KernelWorkspace,
    task: &Task,
    pipeline: &Pipeline,
) -> BaselineRun {
    let Pipeline { config, cost, .. } = pipeline;
    let (host, scoring) = kernel(ws, task, pipeline, MM2);
    let run = host.priced(task, &scoring, config);
    let lanes = config.subwarp_lanes;
    let cycles = run.units.iter().map(|u| unit_cost(u, lanes, config, cost, MM2).cycles).sum();
    BaselineRun { cells: run.device_blocks() * BLOCK_CELLS, result: run.result, cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{run_baseline, Baseline, EngineReport};
    use agatha_align::guided::guided_align;
    use agatha_align::Scoring;
    use agatha_gpu_sim::GpuSpec;

    fn run(tasks: &[Task], scoring: &Scoring, spec: &GpuSpec, mm2: bool) -> EngineReport {
        let which = if mm2 { Baseline::SalobaMm2 } else { Baseline::SalobaDiff };
        run_baseline(which, tasks, scoring, spec)
    }

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
