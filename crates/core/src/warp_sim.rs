//! Intra-warp execution simulation, with and without subwarp rejoining
//! (§4.3, Fig. 6).
//!
//! Without rejoining, each subwarp processes its task queue independently
//! and the warp's latency is the slowest subwarp (the `MAX_Subwarps` of
//! Table 1). With rejoining, subwarps synchronise at slice boundaries:
//! a subwarp whose task finished goes idle, finds an active subwarp, and
//! joins it from the next slice on — the merged group computes subsequent
//! slices with more lanes. New tasks are fetched only when *no* active
//! subwarp remains ("Reset Subwarps" in Fig. 6), i.e. generation by
//! generation.
//!
//! A merged group re-prices the rest of its task at its new width, and
//! every such price is O(1): each [`crate::trace::SliceUnit`] carries its
//! lockstep steps at every lane count a group can reach, folded by the
//! trace walk on the worker that ran the task, so the simulation never
//! re-derives a unit's rows.

use agatha_gpu_sim::CostModel;

use crate::kernel::TaskRun;
use crate::options::AgathaConfig;
use crate::trace::unit_cost;

/// Result of simulating one warp.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpOutcome {
    /// Warp latency in cycles.
    pub cycles: f64,
    /// Device blocks executed attributed to each subwarp slot (after rejoining,
    /// lanes execute parts of other subwarps' tasks — Fig. 12's data).
    pub subwarp_blocks: Vec<f64>,
    /// Lane-cycles spent idle waiting at generation barriers or (without
    /// rejoining) for the slowest subwarp.
    pub idle_lane_cycles: f64,
}

/// Simulate one warp whose subwarp `s` processes `queues[s]` in order.
pub fn simulate_warp(
    queues: &[Vec<&TaskRun>],
    cfg: &AgathaConfig,
    cost: &CostModel,
) -> WarpOutcome {
    if cfg.subwarp_rejoining {
        simulate_with_rejoining(queues, cfg, cost)
    } else {
        simulate_independent(queues, cfg, cost)
    }
}

fn simulate_independent(
    queues: &[Vec<&TaskRun>],
    cfg: &AgathaConfig,
    cost: &CostModel,
) -> WarpOutcome {
    let lanes = cfg.subwarp_lanes;
    let mut busy: Vec<f64> = Vec::with_capacity(queues.len());
    let mut blocks: Vec<f64> = Vec::with_capacity(queues.len());
    for q in queues {
        let mut t = 0.0;
        let mut bl = 0.0;
        for run in q {
            t += run.cycles(lanes, cfg, cost);
            bl += run.device_blocks() as f64;
        }
        busy.push(t);
        blocks.push(bl);
    }
    let cycles = busy.iter().copied().fold(0.0, f64::max);
    let idle: f64 = busy.iter().map(|&b| (cycles - b) * lanes as f64).sum();
    WarpOutcome { cycles, subwarp_blocks: blocks, idle_lane_cycles: idle }
}

/// One merged execution group during rejoining.
struct Group<'a> {
    /// Subwarp slots contributing lanes (first = the owner of the task).
    members: Vec<usize>,
    lanes: usize,
    run: &'a TaskRun,
    next_unit: usize,
    /// Completion time of the last processed unit.
    time: f64,
}

fn simulate_with_rejoining(
    queues: &[Vec<&TaskRun>],
    cfg: &AgathaConfig,
    cost: &CostModel,
) -> WarpOutcome {
    let lanes0 = cfg.subwarp_lanes;
    let n = queues.len();
    let generations = queues.iter().map(Vec::len).max().unwrap_or(0);
    let mut total = 0.0f64;
    let mut blocks = vec![0.0f64; n];
    let mut idle_cycles = 0.0f64;

    for g in 0..generations {
        // Active groups for this generation; subwarps without a task in
        // this generation start in the idle pool at time 0.
        let mut groups: Vec<Group<'_>> = Vec::new();
        let mut idle: Vec<(usize, usize, f64)> = Vec::new(); // (subwarp, lanes, since)
        for (s, q) in queues.iter().enumerate() {
            match q.get(g) {
                Some(run) => groups.push(Group {
                    members: vec![s],
                    lanes: lanes0,
                    run,
                    next_unit: 0,
                    time: 0.0,
                }),
                None => idle.push((s, lanes0, 0.0)),
            }
        }

        let mut gen_end = 0.0f64;
        while !groups.is_empty() {
            // The group at the earliest boundary acts next (it is the one
            // idle subwarps can join soonest).
            let gi = groups
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.time.partial_cmp(&b.1.time).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty");
            let now = groups[gi].time;

            // Absorb every subwarp that went idle at or before this
            // boundary (Fig. 6 steps 3a–3d).
            let mut absorbed = Vec::new();
            idle.retain(|&(s, l, since)| {
                if since <= now {
                    absorbed.push((s, l, since));
                    false
                } else {
                    true
                }
            });
            for (s, l, since) in absorbed {
                idle_cycles += (now - since) * l as f64;
                groups[gi].members.push(s);
                groups[gi].lanes += l;
            }

            let group = &mut groups[gi];
            if group.next_unit < group.run.units.len() {
                let unit = &group.run.units[group.next_unit];
                let c = unit_cost(unit, group.lanes, cfg, cost, true);
                group.time += c.cycles;
                group.next_unit += 1;
                // Attribute the unit's blocks to member subwarps by lane share.
                let share = unit.blocks as f64 / group.lanes as f64 * lanes0 as f64;
                for &m in &group.members {
                    blocks[m] += share;
                }
            } else {
                // Task complete: all member lanes go idle at `time`.
                let done = groups.swap_remove(gi);
                gen_end = gen_end.max(done.time);
                for &m in &done.members {
                    idle.push((m, lanes0, done.time));
                }
            }
        }
        // Remaining idle lanes wait for the generation barrier.
        for &(_, l, since) in &idle {
            idle_cycles += (gen_end - since) * l as f64;
        }
        total += gen_end;
    }

    WarpOutcome { cycles: total, subwarp_blocks: blocks, idle_lane_cycles: idle_cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agatha_align::{Scoring, Task};
    use agatha_gpu_sim::GpuSpec;

    use crate::kernel::run_task;

    fn cost() -> CostModel {
        CostModel::for_spec(&GpuSpec::rtx_a6000())
    }

    fn mk_run(len: usize, seed: u64, cfg: &AgathaConfig) -> TaskRun {
        let mut r = String::new();
        let mut x = seed | 1;
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            r.push(['A', 'C', 'G', 'T'][(x >> 33) as usize % 4]);
        }
        let t = Task::from_strs(0, &r, &r);
        // Band wide enough that a slice spans more block rows than one
        // subwarp's lanes — the regime where rejoining can help.
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 64);
        run_task(&t, &s, cfg)
    }

    #[test]
    fn independent_takes_max() {
        let cfg = AgathaConfig::agatha().with_sr(false);
        let big = mk_run(600, 3, &cfg);
        let small = mk_run(100, 5, &cfg);
        let queues = vec![vec![&big], vec![&small], vec![&small], vec![&small]];
        let out = simulate_warp(&queues, &cfg, &cost());
        let big_alone = big.cycles(cfg.subwarp_lanes, &cfg, &cost());
        assert!((out.cycles - big_alone).abs() < 1e-6);
        assert!(out.idle_lane_cycles > 0.0);
    }

    #[test]
    fn rejoining_speeds_up_imbalanced_warp() {
        let cfg = AgathaConfig::agatha();
        let big = mk_run(600, 3, &cfg);
        let small = mk_run(100, 5, &cfg);
        let queues = vec![vec![&big], vec![&small], vec![&small], vec![&small]];
        let without = simulate_warp(&queues, &cfg.clone().with_sr(false), &cost());
        let with = simulate_warp(&queues, &cfg, &cost());
        assert!(
            with.cycles < without.cycles,
            "rejoining must help: {} vs {}",
            with.cycles,
            without.cycles
        );
    }

    #[test]
    fn rejoining_never_slower_than_slowest_subwarp_alone() {
        let cfg = AgathaConfig::agatha();
        let a = mk_run(500, 7, &cfg);
        let b = mk_run(300, 11, &cfg);
        let c = mk_run(200, 13, &cfg);
        let d = mk_run(50, 17, &cfg);
        let queues = vec![vec![&a], vec![&b], vec![&c], vec![&d]];
        let with = simulate_warp(&queues, &cfg, &cost());
        let without = simulate_warp(&queues, &cfg.clone().with_sr(false), &cost());
        assert!(with.cycles <= without.cycles + 1e-6);
    }

    #[test]
    fn balanced_warp_unchanged_by_rejoining() {
        let cfg = AgathaConfig::agatha();
        let a = mk_run(300, 7, &cfg);
        let queues = vec![vec![&a], vec![&a], vec![&a], vec![&a]];
        let with = simulate_warp(&queues, &cfg, &cost());
        let without = simulate_warp(&queues, &cfg.clone().with_sr(false), &cost());
        // All subwarps finish together: nothing to steal; tiny tolerance for
        // boundary-order effects.
        assert!((with.cycles - without.cycles).abs() / without.cycles < 0.05);
    }

    #[test]
    fn generations_are_barriers() {
        let cfg = AgathaConfig::agatha();
        let big = mk_run(400, 3, &cfg);
        let small = mk_run(80, 5, &cfg);
        // Two generations: [big, small] / [small, small] etc.
        let queues = vec![
            vec![&big, &small],
            vec![&small, &small],
            vec![&small, &big],
            vec![&small, &small],
        ];
        let out = simulate_warp(&queues, &cfg, &cost());
        // Lower bound: each generation costs at least the merged-execution
        // time of its biggest task.
        assert!(out.cycles > 0.0);
        let blocks_total: f64 = out.subwarp_blocks.iter().sum();
        let expect: f64 = queues.iter().flatten().map(|r| r.device_blocks() as f64).sum();
        assert!(
            (blocks_total - expect).abs() < 1e-6,
            "block attribution must conserve work: {blocks_total} vs {expect}"
        );
    }

    #[test]
    fn empty_warp() {
        let cfg = AgathaConfig::agatha();
        let out = simulate_warp(&[vec![], vec![], vec![], vec![]], &cfg, &cost());
        assert_eq!(out.cycles, 0.0);
    }
}
