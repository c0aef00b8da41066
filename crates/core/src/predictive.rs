//! Predictive bucketing — the §6 "Different Bucketing Parameters"
//! discussion, implemented: "if we predict exactly when the termination
//! condition is met before execution, then the kernel could remove most of
//! the remaining workload imbalance. We would like to explore this
//! possibility in future work."
//!
//! Uneven bucketing sorts by the *a-priori* workload (anti-diagonal count),
//! which mis-ranks tasks that Z-drop early. This module provides workload
//! predictors at three fidelity levels:
//!
//! * [`Predictor::AntiDiags`] — the paper's estimator (task dimensions only);
//! * [`Predictor::SeedDivergence`] — a cheap heuristic: probe every k-th
//!   base pair for equality and damp the estimate by the expected
//!   termination point;
//! * [`Predictor::Oracle`] — the true executed block count (an upper bound
//!   on what prediction could achieve).
//!
//! The predictors feed the ordinary uneven-bucketing machinery; tests
//! verify the oracle never loses to the a-priori estimator, quantifying
//! the head-room the paper anticipates.

use agatha_align::Task;

use crate::kernel::TaskRun;

/// Workload predictor fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predictor {
    /// `n + m - 1` (the paper's sorting key, §5.6).
    AntiDiags,
    /// Anti-diagonals damped by a sampled divergence probe.
    SeedDivergence,
    /// The device's executed block count (requires the runs; perfect
    /// prediction).
    Oracle,
}

/// Probe stride for [`Predictor::SeedDivergence`].
const PROBE_STRIDE: usize = 64;
/// Consecutive mismatching probes that suggest an early Z-drop.
const DIVERGED_PROBES: usize = 2;

/// Estimate per-task workloads under the chosen predictor.
///
/// `runs` is only consulted by [`Predictor::Oracle`]; pass the kernel runs
/// in task order.
pub fn predict_workloads(tasks: &[Task], runs: Option<&[TaskRun]>, p: Predictor) -> Vec<u64> {
    match p {
        Predictor::AntiDiags => tasks.iter().map(|t| t.antidiags() as u64).collect(),
        Predictor::SeedDivergence => tasks.iter().map(estimate_divergence).collect(),
        Predictor::Oracle => {
            let runs = runs.expect("oracle predictor needs the executed runs");
            assert_eq!(runs.len(), tasks.len());
            runs.iter().map(|r| r.device_blocks().max(1)).collect()
        }
    }
}

/// Probe the main diagonal every [`PROBE_STRIDE`] bases; when several
/// consecutive probes mismatch, assume the extension Z-drops near the first
/// of them.
fn estimate_divergence(task: &Task) -> u64 {
    let full = task.antidiags() as u64;
    let len = task.ref_len().min(task.query_len());
    if len < PROBE_STRIDE * (DIVERGED_PROBES + 1) {
        return full.max(1);
    }
    let mut misses = 0usize;
    let mut probe = PROBE_STRIDE;
    while probe < len {
        if task.reference.code(probe) != task.query.code(probe) {
            misses += 1;
            if misses >= DIVERGED_PROBES {
                // Diverged around `probe - (DIVERGED_PROBES-1)*stride`.
                let at = probe - (DIVERGED_PROBES - 1) * PROBE_STRIDE;
                return (2 * at as u64).max(1);
            }
        } else {
            misses = 0;
        }
        probe += PROBE_STRIDE;
    }
    full.max(1)
}

/// Rank-correlation-style quality measure: fraction of task pairs the
/// predictor orders the same way as the oracle.
pub fn pairwise_agreement(predicted: &[u64], oracle: &[u64]) -> f64 {
    assert_eq!(predicted.len(), oracle.len());
    let n = predicted.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0u64;
    let mut total = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            if oracle[i] == oracle[j] {
                continue;
            }
            total += 1;
            let o = oracle[i] > oracle[j];
            let p = predicted[i] > predicted[j];
            if o == p {
                agree += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        agree as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucketing::{build_warps, OrderingStrategy};
    use crate::options::AgathaConfig;
    use crate::pipeline::Pipeline;
    use crate::warp_sim::simulate_warp;
    use agatha_align::Scoring;
    use agatha_gpu_sim::{sched, CostModel, GpuSpec};

    fn mixed_tasks() -> (Vec<Task>, Scoring) {
        // Half the tasks are clean long matches; half are long tasks whose
        // tail diverges early (the a-priori estimator misranks them).
        let mut tasks = Vec::new();
        let mut x = 3u64;
        for id in 0..32u32 {
            let len = if id % 2 == 0 { 1600 } else { 1700 };
            let mut r = String::new();
            for _ in 0..len {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                r.push(['A', 'C', 'G', 'T'][(x >> 33) as usize % 4]);
            }
            let q = if id % 2 == 0 {
                r.clone()
            } else {
                // Diverge after 200 bases (every base rotated, so nothing
                // matches): Z-drop long before the end.
                let mut q = r[..200].to_string();
                for ch in r[200..].chars() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let rot = 1 + ((x >> 35) as usize % 3);
                    let idx = ['A', 'C', 'G', 'T'].iter().position(|&c| c == ch).unwrap();
                    q.push(['A', 'C', 'G', 'T'][(idx + rot) % 4]);
                }
                q
            };
            tasks.push(Task::from_strs(id, &r, &q));
        }
        (tasks, Scoring::new(2, 4, 4, 2, 100, 64))
    }

    #[test]
    fn divergence_probe_detects_early_zdrop() {
        let (tasks, _) = mixed_tasks();
        let est = predict_workloads(&tasks, None, Predictor::SeedDivergence);
        let apriori = predict_workloads(&tasks, None, Predictor::AntiDiags);
        // Diverging tasks (odd ids) must be estimated far smaller than their
        // a-priori size; clean tasks keep it.
        for (k, (&e, &a)) in est.iter().zip(&apriori).enumerate() {
            if k % 2 == 1 {
                assert!(e < a / 2, "task {k}: est {e} vs a-priori {a}");
            } else {
                assert_eq!(e, a, "clean task {k} must keep its estimate");
            }
        }
    }

    #[test]
    fn oracle_agrees_with_itself_and_probe_beats_apriori() {
        let (tasks, scoring) = mixed_tasks();
        let pipeline = Pipeline::new(scoring, AgathaConfig::agatha());
        let runs = pipeline.engine().run_tasks(tasks.clone());
        let oracle = predict_workloads(&tasks, Some(&runs), Predictor::Oracle);
        let probe = predict_workloads(&tasks, None, Predictor::SeedDivergence);
        let apriori = predict_workloads(&tasks, None, Predictor::AntiDiags);
        let probe_q = pairwise_agreement(&probe, &oracle);
        let apriori_q = pairwise_agreement(&apriori, &oracle);
        assert!(
            probe_q > apriori_q,
            "divergence probe ({probe_q:.2}) must rank better than anti-diagonals ({apriori_q:.2})"
        );
        assert!((pairwise_agreement(&oracle, &oracle) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_bucketing_never_loses() {
        let (tasks, scoring) = mixed_tasks();
        let cfg = AgathaConfig::agatha();
        let cost = CostModel::for_spec(&GpuSpec::rtx_a6000());
        let pipeline = Pipeline::new(scoring, cfg.clone());
        let runs = pipeline.engine().run_tasks(tasks.clone());

        let makespan = |workloads: &[u64]| {
            let warps = build_warps(
                workloads,
                cfg.subwarps_per_warp(),
                cfg.tasks_per_subwarp,
                OrderingStrategy::UnevenBucketing,
            );
            let cycles: Vec<f64> = warps
                .iter()
                .map(|w| {
                    let queues: Vec<Vec<&TaskRun>> =
                        w.queues.iter().map(|q| q.iter().map(|&i| &runs[i]).collect()).collect();
                    simulate_warp(&queues, &cfg, &cost).cycles
                })
                .collect();
            sched::makespan_cycles(&cycles, 4)
        };

        let apriori = makespan(&predict_workloads(&tasks, None, Predictor::AntiDiags));
        let oracle = makespan(&predict_workloads(&tasks, Some(&runs), Predictor::Oracle));
        assert!(oracle <= apriori * 1.001, "oracle bucketing must not lose: {oracle} vs {apriori}");
    }
}
