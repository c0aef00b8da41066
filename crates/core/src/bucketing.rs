//! Task-to-warp assignment strategies (§4.4, Fig. 7, and the §5.6
//! comparison set).
//!
//! * `Original` — tasks go to subwarps in incoming order, the baseline
//!   behaviour the paper diagnoses ("existing approaches assign tasks to
//!   warps in the order in which the input is given", §3.1).
//! * `Sorted` — tasks sorted by workload (number of anti-diagonals) before
//!   sequential assignment; the "simple and intuitive" comparison of §5.6.
//! * `UnevenBucketing` — the paper's scheme: sort, pick the longest `1/N`
//!   tasks (`N` = subwarps per warp), and redistribute them one per warp so
//!   no subwarp queue serialises two extreme tasks; the rest flow to the
//!   least-loaded warps, so bucket *sizes* end up uneven while bucket
//!   *workloads* equalise.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordering strategy for building warp assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingStrategy {
    /// Incoming order (the baseline).
    Original,
    /// Sort by workload, descending, then assign sequentially.
    Sorted,
    /// §4.4 uneven bucketing.
    UnevenBucketing,
}

/// One warp's task assignment: `queues[s][g]` is the task index subwarp `s`
/// processes in generation `g`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpAssignment {
    /// Per-subwarp task queues. `Original` and `Sorted` bound every queue at
    /// `tasks_per_subwarp` entries; `UnevenBucketing` deliberately does not —
    /// queues piled with short tasks run extra generations, so consumers
    /// must iterate depths dynamically rather than assume the configured
    /// bound.
    pub queues: Vec<Vec<usize>>,
}

impl WarpAssignment {
    /// All task indices assigned to this warp.
    pub fn task_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.queues.iter().flatten().copied()
    }
}

/// Build warp assignments for `workloads.len()` tasks, where `workloads[i]`
/// is the a-priori size estimate of task `i` (the paper sorts "by the
/// number of anti-diagonals", §5.6).
pub fn build_warps(
    workloads: &[u64],
    subwarps_per_warp: usize,
    tasks_per_subwarp: usize,
    strategy: OrderingStrategy,
) -> Vec<WarpAssignment> {
    assert!(subwarps_per_warp >= 1 && tasks_per_subwarp >= 1);
    let t = workloads.len();
    if t == 0 {
        return Vec::new();
    }
    let n = subwarps_per_warp;
    let g = tasks_per_subwarp;
    let capacity = n * g;
    let num_warps = t.div_ceil(capacity);

    let order: Vec<usize> = match strategy {
        OrderingStrategy::Original => (0..t).collect(),
        OrderingStrategy::Sorted => {
            let mut idx: Vec<usize> = (0..t).collect();
            // Stable sort keeps incoming order among equal workloads.
            idx.sort_by_key(|&i| Reverse(workloads[i]));
            idx
        }
        OrderingStrategy::UnevenBucketing => {
            return uneven_buckets(workloads, n, g, num_warps);
        }
    };

    sequential_fill(&order, n, num_warps, g)
}

/// Fill warps in order: warp `w` takes the next `n*g` tasks, distributed
/// round-robin across subwarps generation by generation.
fn sequential_fill(order: &[usize], n: usize, num_warps: usize, g: usize) -> Vec<WarpAssignment> {
    let mut warps: Vec<WarpAssignment> =
        (0..num_warps).map(|_| WarpAssignment { queues: vec![Vec::new(); n] }).collect();
    for (pos, &task) in order.iter().enumerate() {
        let w = pos / (n * g);
        let within = pos % (n * g);
        let s = within % n;
        warps[w].queues[s].push(task);
    }
    warps
}

/// §4.4: the longest `1/N` of the tasks (= one per warp per generation) go
/// to distinct warps so no subwarp queue serialises two extremes; the
/// remaining tasks fill largest-first into whichever warp currently has the
/// *least total workload* (ties broken towards fewer tasks, then lower
/// index, keeping the fill deterministic).
///
/// This is what makes the buckets *uneven*: a warp that holds an extreme
/// task receives few fillers, while warps of short tasks take deep queues —
/// task counts differ, a-priori workloads equalise. A count-balanced fill
/// would hand every extreme-holding warp a full complement of short tasks
/// on top of its straggler, recreating the inter-warp imbalance the scheme
/// exists to remove.
fn uneven_buckets(workloads: &[u64], n: usize, g: usize, num_warps: usize) -> Vec<WarpAssignment> {
    let t = workloads.len();
    let mut idx: Vec<usize> = (0..t).collect();
    idx.sort_by_key(|&i| Reverse(workloads[i]));
    // One long task per warp per generation.
    let long_count = (num_warps * g).min(t);
    let (long, rest) = idx.split_at(long_count);
    // Everything else, largest first (LPT): big fillers place at shallow
    // queue depths where they overlap the warp's other work, and the tail
    // of short tasks stacks into deep, cheap generations. Ties keep the
    // incoming order (`idx` is a stable sort of `0..t`).

    let mut warps: Vec<WarpAssignment> =
        (0..num_warps).map(|_| WarpAssignment { queues: vec![Vec::new(); n] }).collect();
    // Per-queue a-priori workload totals for the within-warp placement.
    let mut queue_load: Vec<Vec<u64>> = vec![vec![0u64; n]; num_warps];
    // Long tasks: one per warp per generation, rotated across subwarps so a
    // warp's long tasks land in *different* subwarps — they overlap instead
    // of serialising in one queue.
    for (k, &task) in long.iter().enumerate() {
        let w = k % num_warps;
        let gen = k / num_warps;
        warps[w].queues[gen % n].push(task);
        queue_load[w][gen % n] += workloads[task];
    }
    // Remaining tasks: each goes to the least-loaded warp (ties towards
    // fewer tasks, then lower index), and within it to the least-loaded
    // subwarp queue. Queue depths are unbounded — the warp simply runs more
    // generations where the bucketing piled short tasks together. The warp
    // ordering lives in a min-heap keyed by (load, task count, index), the
    // single source of per-warp totals; the index makes every key unique,
    // so the heap pops exactly the least one, and each placement is
    // O(log warps + n), not a rescan of every warp.
    let mut by_load: BinaryHeap<Reverse<(u64, usize, usize)>> = (0..num_warps)
        .map(|w| {
            let load = queue_load[w].iter().sum::<u64>();
            let count = warps[w].queues.iter().map(Vec::len).sum::<usize>();
            Reverse((load, count, w))
        })
        .collect();
    for &task in rest {
        let Reverse((load, count, w)) = by_load.pop().expect("at least one warp");
        let s = (0..n)
            .min_by_key(|&s| (queue_load[w][s], warps[w].queues[s].len(), s))
            .expect("at least one subwarp");
        warps[w].queues[s].push(task);
        queue_load[w][s] += workloads[task];
        by_load.push(Reverse((load + workloads[task], count + 1, w)));
    }
    warps
}

/// Split a chunk's task pool into tasks to pack now and tasks to carry into
/// the next chunk's fill.
///
/// Per-chunk bucketing strands stragglers: a trailing warp seeded with the
/// `len % capacity` leftover tasks runs underfull, and the next chunk can't
/// amortise it. Deferring exactly that remainder — the *smallest* workloads,
/// which lose the least from waiting — keeps every packed warp full while
/// the deferred tasks join the next chunk's largest-first fill. At stream
/// end the caller packs the pool whole (`flush`), so the carry drains
/// deterministically.
///
/// Returns `(keep, defer)` as index vectors into `workloads`, each in
/// ascending (pool) order. Ties defer the later-arriving task, keeping the
/// split deterministic.
pub fn carry_split(workloads: &[u64], capacity: usize) -> (Vec<usize>, Vec<usize>) {
    assert!(capacity >= 1);
    let t = workloads.len();
    let spill = t % capacity;
    if spill == 0 {
        return ((0..t).collect(), Vec::new());
    }
    let mut idx: Vec<usize> = (0..t).collect();
    // Stable sort, descending workload: the tail holds the smallest
    // workloads, later pool positions last among equals.
    idx.sort_by_key(|&i| Reverse(workloads[i]));
    let mut defer: Vec<usize> = idx[t - spill..].to_vec();
    defer.sort_unstable();
    let deferred: Vec<bool> = {
        let mut d = vec![false; t];
        for &i in &defer {
            d[i] = true;
        }
        d
    };
    let keep: Vec<usize> = (0..t).filter(|&i| !deferred[i]).collect();
    (keep, defer)
}

/// Per-warp a-priori workload totals (for balance diagnostics and tests).
pub fn warp_workloads(warps: &[WarpAssignment], workloads: &[u64]) -> Vec<u64> {
    warps.iter().map(|w| w.task_indices().map(|i| workloads[i]).sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(warps: &[WarpAssignment], t: usize) {
        let mut seen = vec![false; t];
        for w in warps {
            for i in w.task_indices() {
                assert!(!seen[i], "task {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some task unassigned");
    }

    #[test]
    fn original_preserves_order() {
        let wl = vec![10u64; 16];
        let warps = build_warps(&wl, 4, 2, OrderingStrategy::Original);
        assert_eq!(warps.len(), 2);
        assert_partition(&warps, 16);
        // First warp's subwarp 0 gets tasks 0 and 4 (round-robin).
        assert_eq!(warps[0].queues[0], vec![0, 4]);
        assert_eq!(warps[0].queues[3], vec![3, 7]);
        assert_eq!(warps[1].queues[0], vec![8, 12]);
    }

    #[test]
    fn sorted_orders_by_workload() {
        let wl = vec![1, 100, 2, 90, 3, 80, 4, 70];
        let warps = build_warps(&wl, 4, 1, OrderingStrategy::Sorted);
        assert_partition(&warps, 8);
        // Longest four land in warp 0.
        let w0: Vec<usize> = warps[0].task_indices().collect();
        assert_eq!(w0, vec![1, 3, 5, 7]);
    }

    #[test]
    fn uneven_spreads_long_tasks() {
        // 4 extreme tasks among 16; 4 warps of 4 subwarps × 1 generation.
        let mut wl = vec![10u64; 16];
        for i in [0, 1, 2, 3] {
            wl[i] = 1000;
        }
        let warps = build_warps(&wl, 4, 1, OrderingStrategy::UnevenBucketing);
        assert_eq!(warps.len(), 4);
        assert_partition(&warps, 16);
        // Each warp holds exactly one long task.
        for w in &warps {
            let longs = w.task_indices().filter(|&i| wl[i] == 1000).count();
            assert_eq!(longs, 1, "warp {w:?}");
        }
        // Balance: max/min warp workload ratio far below the sorted case.
        let ub = warp_workloads(&warps, &wl);
        let sorted = warp_workloads(&build_warps(&wl, 4, 1, OrderingStrategy::Sorted), &wl);
        let spread = |v: &[u64]| *v.iter().max().unwrap() as f64 / *v.iter().min().unwrap() as f64;
        assert!(spread(&ub) < spread(&sorted));
    }

    #[test]
    fn uneven_with_generations() {
        let mut wl = vec![5u64; 32];
        for w in wl.iter_mut().take(8) {
            *w = 500;
        }
        // 4 warps × 4 subwarps × 2 generations = 32 slots.
        let warps = build_warps(&wl, 4, 2, OrderingStrategy::UnevenBucketing);
        assert_eq!(warps.len(), 4);
        assert_partition(&warps, 32);
        for w in &warps {
            let longs = w.task_indices().filter(|&i| wl[i] == 500).count();
            assert_eq!(longs, 2, "one long task per generation");
            // The two long tasks sit in different subwarps so they overlap.
            let in_one_queue =
                w.queues.iter().map(|q| q.iter().filter(|&&i| wl[i] == 500).count()).max().unwrap();
            assert_eq!(in_one_queue, 1, "long tasks must not share a queue: {w:?}");
        }
    }

    #[test]
    fn ragged_task_count() {
        let wl = vec![7u64; 13];
        for strat in [
            OrderingStrategy::Original,
            OrderingStrategy::Sorted,
            OrderingStrategy::UnevenBucketing,
        ] {
            let warps = build_warps(&wl, 4, 2, strat);
            assert_partition(&warps, 13);
        }
    }

    #[test]
    fn single_subwarp_degenerate() {
        let wl = vec![1u64, 2, 3, 4];
        let warps = build_warps(&wl, 1, 2, OrderingStrategy::UnevenBucketing);
        assert_partition(&warps, 4);
    }

    #[test]
    fn empty_input() {
        assert!(build_warps(&[], 4, 2, OrderingStrategy::Original).is_empty());
    }

    #[test]
    fn carry_split_defers_the_smallest_remainder() {
        // 11 tasks, capacity 4 → spill 3: the three smallest workloads defer.
        let wl = vec![50u64, 3, 40, 1, 30, 2, 20, 10, 60, 70, 80];
        let (keep, defer) = carry_split(&wl, 4);
        assert_eq!(defer, vec![1, 3, 5]); // workloads 3, 1, 2
        assert_eq!(keep, vec![0, 2, 4, 6, 7, 8, 9, 10]);
        assert_eq!(keep.len() % 4, 0);
    }

    #[test]
    fn carry_split_exact_multiple_defers_nothing() {
        let wl = vec![5u64; 8];
        let (keep, defer) = carry_split(&wl, 4);
        assert_eq!(keep, (0..8).collect::<Vec<_>>());
        assert!(defer.is_empty());
        assert_eq!(carry_split(&[], 4), (Vec::new(), Vec::new()));
    }

    #[test]
    fn carry_split_underfull_chunk_defers_everything() {
        // Fewer tasks than one warp's capacity: all of them wait.
        let wl = vec![9u64, 8, 7];
        let (keep, defer) = carry_split(&wl, 8);
        assert!(keep.is_empty());
        assert_eq!(defer, vec![0, 1, 2]);
    }

    #[test]
    fn carry_split_ties_defer_later_arrivals() {
        // All-equal workloads: the stable sort leaves pool order, so the
        // deferred tail is the latest-arriving tasks.
        let wl = vec![5u64; 10];
        let (keep, defer) = carry_split(&wl, 4);
        assert_eq!(keep, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(defer, vec![8, 9]);
    }

    #[test]
    fn carry_split_is_a_partition() {
        let wl: Vec<u64> = (0..29).map(|i| (i * 13 % 7) as u64).collect();
        for cap in [1, 2, 8, 29, 64] {
            let (keep, defer) = carry_split(&wl, cap);
            let mut all: Vec<usize> = keep.iter().chain(&defer).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..29).collect::<Vec<_>>(), "capacity {cap}");
            assert_eq!(keep.len() % cap, 0, "capacity {cap}");
            assert!(defer.len() < cap, "capacity {cap}");
            // Every kept workload ≥ every deferred workload.
            let kmin = keep.iter().map(|&i| wl[i]).min();
            let dmax = defer.iter().map(|&i| wl[i]).max();
            if let (Some(kmin), Some(dmax)) = (kmin, dmax) {
                assert!(kmin >= dmax, "capacity {cap}");
            }
        }
    }
}
