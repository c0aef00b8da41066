//! The AGAThA kernel executor: computes one task's real DP values under the
//! configured tiling (horizontal chunks or sliced diagonal), feeds the
//! shared [`DiagTracker`], and emits per-checkpoint-unit cost descriptors.
//!
//! Exactness: the DP values and termination decisions are identical across
//! every configuration — tiling affects only *which extra cells get
//! computed* (run-ahead) and what the memory traffic costs. This is
//! verified against the scalar reference in this module's tests and by
//! property tests at the workspace level.

use agatha_align::block::BlockCtx;
use agatha_align::diag::DiagTracker;
use agatha_align::sweep::{NorthRows, RowCarry, Sweep};
use agatha_align::{GuidedResult, QueryProfile, Scoring, Task, BLOCK, MAX_BLOCK};
use agatha_gpu_sim::{CostModel, KernelStats};

use crate::options::AgathaConfig;
use crate::trace::{unit_cost, SliceUnit};

/// Output of executing one task through the kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRun {
    /// Task identifier (copied from the input).
    pub id: u32,
    /// Exact guided-alignment result.
    pub result: GuidedResult,
    /// Cost descriptors, one per checkpoint unit, in execution order.
    pub units: Vec<SliceUnit>,
    /// Total blocks computed (including run-ahead).
    pub blocks: u64,
    /// Block side this task was tiled with (the per-task resolution of
    /// [`AgathaConfig::block_dim_for`]): 8 or 16.
    pub block_dim: u32,
}

impl TaskRun {
    /// Cells actually computed by the device (blocks × block_dim²; at the
    /// paper's 8×8 geometry this is blocks × [`agatha_gpu_sim::BLOCK_CELLS`]).
    pub fn computed_cells(&self) -> u64 {
        self.blocks * u64::from(self.block_dim) * u64::from(self.block_dim)
    }

    /// Aggregate stats at a fixed lane count under a cost model.
    pub fn stats(&self, lanes: usize, cfg: &AgathaConfig, cost: &CostModel) -> KernelStats {
        let mut s = KernelStats::new();
        s.computed_cells = self.computed_cells();
        s.reference_cells = self.result.cells;
        s.tasks = 1;
        s.zdropped_tasks = u64::from(self.result.stop.z_dropped());
        for u in &self.units {
            let c = unit_cost(u, lanes, cfg, cost);
            s.steps += c.steps;
            s.idle_lane_steps += c.idle_lane_steps;
            s.mem.add(&c.mem);
        }
        s
    }

    /// Subwarp latency in cycles at a fixed lane count.
    pub fn cycles(&self, lanes: usize, cfg: &AgathaConfig, cost: &CostModel) -> f64 {
        crate::trace::units_cycles(&self.units, lanes, cfg, cost)
    }
}

/// A row segment scheduled in one unit: query-block row `bj` sweeping
/// reference blocks `bi_from..=bi_to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowSeg {
    bj: i64,
    bi_from: i64,
    bi_to: i64,
}

/// Reusable per-worker scratch for [`run_task_ws`]: the stored north rows,
/// the per-row carries (one [`RowCarry`] per block row, carried across
/// slices), the unit-schedule staging area, recycled output buffers, and the
/// align-layer [`DiagTracker`]. All of these are grow-only and
/// geometry-agnostic (carries store the widest boundary; rows pad to the
/// active block side), so one workspace serves tasks of either block
/// geometry back to back and reaches a steady state in which executing a
/// task performs no heap allocation on the kernel hot path — the
/// fixed-size block staging buffer lives in the [`Sweep`], on the kernel's
/// stack frame — and with [`KernelWorkspace::recycle_units`] fed by the
/// engine, not even the returned [`TaskRun`]'s cost descriptors allocate.
///
/// This is the `block-aligner` idiom: build one long-lived aligner object
/// and feed it tasks, instead of reallocating per call.
#[derive(Debug, Clone)]
pub struct KernelWorkspace {
    rows: NorthRows,
    carries: Vec<RowCarry>,
    unit_rows: Vec<RowSeg>,
    tracker: DiagTracker,
    /// Spent outer `units` vectors returned by [`KernelWorkspace::recycle_units`].
    units_pool: Vec<Vec<SliceUnit>>,
    /// Spent `row_cols` vectors harvested from recycled units.
    row_cols_pool: Vec<Vec<u32>>,
    /// Per-query substitution rows for matrix score models (inactive under
    /// fixed models); rebuilt per task, reusing the allocation.
    profile: QueryProfile,
}

/// Bounds on the recycled-buffer pools: a task needs one `units` vector and
/// one `row_cols` per unit, so small pools reach steady state; anything
/// beyond is dropped rather than hoarded.
const UNITS_POOL_CAP: usize = 4;
const ROW_COLS_POOL_CAP: usize = 256;

impl KernelWorkspace {
    /// Empty workspace; buffers grow on first use.
    pub fn new() -> KernelWorkspace {
        KernelWorkspace {
            rows: NorthRows::default(),
            carries: Vec::new(),
            unit_rows: Vec::new(),
            tracker: DiagTracker::new(0, 0, &Scoring::default()),
            units_pool: Vec::new(),
            row_cols_pool: Vec::new(),
            profile: QueryProfile::new(),
        }
    }

    /// Total capacity currently held by the DP row buffers, in cells.
    /// Exposed so tests can assert that steady-state reuse stops growing.
    pub fn row_capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// Return a spent [`TaskRun`]'s output buffers for reuse by the next
    /// [`run_task_ws`] call. Callers (the streaming engine, batch drivers)
    /// invoke this after folding a run's stats, closing the last per-task
    /// allocation in the stream path: the recycled `units` vector and its
    /// `row_cols` vectors are handed back out by subsequent runs.
    pub fn recycle_units(&mut self, mut units: Vec<SliceUnit>) {
        for u in units.drain(..) {
            if self.row_cols_pool.len() >= ROW_COLS_POOL_CAP {
                break;
            }
            let mut rc = u.row_cols;
            rc.clear();
            self.row_cols_pool.push(rc);
        }
        units.clear();
        if self.units_pool.len() < UNITS_POOL_CAP {
            self.units_pool.push(units);
        }
    }

    /// Buffers currently waiting in the recycle pools (outer `units`
    /// vectors, inner `row_cols` vectors) — test/diagnostic visibility.
    pub fn recycled_buffers(&self) -> (usize, usize) {
        (self.units_pool.len(), self.row_cols_pool.len())
    }
}

impl Default for KernelWorkspace {
    fn default() -> KernelWorkspace {
        KernelWorkspace::new()
    }
}

/// Execute one task under `cfg`, producing the exact result plus cost
/// descriptors. Thin wrapper over [`run_task_ws`] with a throwaway
/// workspace; batch and streaming callers should hold a [`KernelWorkspace`]
/// per worker and call [`run_task_ws`] directly.
pub fn run_task(task: &Task, scoring: &Scoring, cfg: &AgathaConfig) -> TaskRun {
    run_task_ws(&mut KernelWorkspace::new(), task, scoring, cfg)
}

/// Execute one task under `cfg` reusing `ws` for every piece of scratch
/// state. Results are bit-identical to [`run_task`] regardless of what the
/// workspace was previously used for.
///
/// Geometry dispatch happens here, once per task: the configured
/// [`agatha_align::block::BlockDim`] resolves to a concrete block side
/// (adaptive under `Auto`) and selects the matching monomorphization of the
/// kernel body. The alignment result is bit-identical across geometries;
/// only the tiling (unit schedules, block counts) differs.
pub fn run_task_ws(
    ws: &mut KernelWorkspace,
    task: &Task,
    scoring: &Scoring,
    cfg: &AgathaConfig,
) -> TaskRun {
    match cfg.block_dim_for(task.ref_len(), task.query_len(), scoring) {
        MAX_BLOCK => run_task_geom::<MAX_BLOCK>(ws, task, scoring, cfg),
        _ => run_task_geom::<BLOCK>(ws, task, scoring, cfg),
    }
}

/// One task in flight: the open [`Sweep`], the per-row carries its segments
/// resume from, the unit schedule's cursor and staging area, and the cost
/// descriptors recorded so far.
struct TaskExec<'a, const B: usize> {
    sweep: Sweep<'a, B>,
    carries: &'a mut [RowCarry],
    unit_rows: &'a mut Vec<RowSeg>,
    row_cols_pool: &'a mut Vec<Vec<u32>>,
    /// The next slice (sliced mode) or block row (horizontal mode) to stage.
    cursor: i64,
    units: Vec<SliceUnit>,
    blocks: u64,
}

impl<const B: usize> TaskExec<'_, B> {
    /// Stage the next non-empty checkpoint unit of the schedule into
    /// `unit_rows` (no per-task schedule materialisation); `false` once the
    /// schedule is exhausted.
    fn stage_unit(&mut self, ctx: &BlockCtx<'_>, cfg: &AgathaConfig) -> bool {
        let (rb, qb) = (ctx.ref_blocks(), ctx.query_blocks());
        self.unit_rows.clear();
        if cfg.sliced_diagonal {
            // §4.2: slice `k` is block anti-diagonals `k·s ..= k·s + s − 1`.
            let s = cfg.slice_width as i64;
            while self.unit_rows.is_empty() && self.cursor * s < rb + qb - 1 {
                let k = self.cursor;
                self.cursor += 1;
                for bj in 0..qb {
                    let Some((rlo, rhi)) = ctx.row_block_range(bj) else { continue };
                    let w_lo = (k * s - bj).max(rlo);
                    let w_hi = (k * s + s - 1 - bj).min(rhi);
                    if w_lo <= w_hi {
                        self.unit_rows.push(RowSeg { bj, bi_from: w_lo, bi_to: w_hi });
                    }
                }
            }
        } else {
            // Horizontal mode: chunks of `subwarp_lanes` full-band rows.
            while self.unit_rows.len() < cfg.subwarp_lanes && self.cursor < qb {
                let bj = self.cursor;
                self.cursor += 1;
                if let Some((rlo, rhi)) = ctx.row_block_range(bj) {
                    self.unit_rows.push(RowSeg { bj, bi_from: rlo, bi_to: rhi });
                }
            }
        }
        !self.unit_rows.is_empty()
    }

    /// Execute the staged checkpoint unit, record its cost descriptor and
    /// advance the tracker. Returns true on termination.
    fn run_unit(&mut self, lmb_fits: bool) -> bool {
        let mut unit_blocks = 0u64;
        let mut row_cols = self.row_cols_pool.pop().unwrap_or_default();
        row_cols.clear();
        row_cols.reserve(self.unit_rows.len());
        for seg in self.unit_rows.iter() {
            let carry = &mut self.carries[seg.bj as usize];
            let blocks = self.sweep.segment(carry, seg.bj, seg.bi_from, seg.bi_to);
            unit_blocks += blocks;
            // A segment spans at most one block row (< 2^28 blocks under
            // task admission), so this narrowing is checked, like the one below.
            row_cols.push(
                u32::try_from(blocks)
                    .expect("blocks in one row segment exceed u32: task admission must bound n"),
            );
        }
        self.blocks += unit_blocks;
        let before = self.sweep.frontier();
        let stop = self.sweep.advance();
        // Task admission bounds n+m-1 (the total diagonal count) to i32, so
        // this narrowing is checked rather than silently wrapping.
        let completed = u32::try_from(self.sweep.frontier() - before)
            .expect("diagonals completed in one unit exceed u32: task admission must bound n+m");
        self.units.push(SliceUnit {
            row_cols,
            blocks: unit_blocks,
            diags_completed: completed,
            lmb_fits,
        });
        stop.is_some()
    }
}

/// The kernel body, monomorphized per block side `B`: what is the kernel's
/// own — the §4.2 slice / horizontal-chunk schedule, the cost descriptors,
/// buffer recycling — over the shared block-row [`Sweep`].
fn run_task_geom<const B: usize>(
    ws: &mut KernelWorkspace,
    task: &Task,
    scoring: &Scoring,
    cfg: &AgathaConfig,
) -> TaskRun {
    let n = task.ref_len();
    let m = task.query_len();
    let KernelWorkspace { rows, carries, unit_rows, tracker, units_pool, row_cols_pool, profile } =
        ws;
    // Matrix score models get their per-query substitution rows built once
    // per task (a no-op that deactivates the profile under fixed models).
    profile.prepare(&task.query, scoring);
    // The fill follows the plan's backend, and the fold follows the fill
    // (the staging buffer carries the backend that filled it).
    let ctx = BlockCtx::with_block_dim(n, m, scoring, B)
        .with_backend(cfg.backend)
        .with_profile(Some(&*profile));
    // Per-task tier resolution: the narrowest fill whose exactness gate
    // holds (i16 → i32 → scalar under Auto/I16; see BlockCtx::fill_tier).
    let tier = ctx.fill_tier(cfg.fill_mode(), cfg.fill_precision);
    tracker.reset(n, m, scoring);
    if n == 0 || m == 0 {
        return TaskRun {
            id: task.id,
            result: tracker.take_result(),
            units: Vec::new(),
            blocks: 0,
            block_dim: B as u32,
        };
    }

    carries.clear();
    carries.resize(ctx.query_blocks() as usize, RowCarry::fresh());
    let mut units: Vec<SliceUnit> = units_pool.pop().unwrap_or_default();
    units.clear();
    let lmb_fits = cfg.sliced_diagonal && B * cfg.slice_width + B - 1 <= cfg.lmb_max_diags;

    let mut exec = TaskExec {
        sweep: Sweep::<B>::new(ctx, tier, &task.reference, &task.query, rows, Some(&mut *tracker)),
        carries,
        unit_rows,
        row_cols_pool,
        cursor: 0,
        units,
        blocks: 0,
    };
    while exec.stage_unit(&ctx, cfg) {
        if exec.run_unit(lmb_fits) {
            break;
        }
    }
    let TaskExec { units, blocks, .. } = exec;

    TaskRun { id: task.id, result: tracker.take_result(), units, blocks, block_dim: B as u32 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agatha_align::guided::guided_align;
    use agatha_gpu_sim::GpuSpec;

    fn task(r: &str, q: &str) -> Task {
        Task::from_strs(0, r, q)
    }

    fn pseudo_seq(len: usize, seed: u64, mutate_every: usize) -> (String, String) {
        let mut r = String::new();
        let mut q = String::new();
        let mut x = seed | 1;
        for k in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
            r.push(c);
            if mutate_every > 0 && k % mutate_every == 0 {
                let c2 = ['A', 'C', 'G', 'T'][(x >> 35) as usize % 4];
                q.push(c2);
            } else {
                q.push(c);
            }
        }
        (r, q)
    }

    fn all_configs() -> Vec<AgathaConfig> {
        vec![
            AgathaConfig::baseline(),
            AgathaConfig::baseline().with_rw(true),
            AgathaConfig::baseline().with_rw(true).with_sd(true),
            AgathaConfig::agatha(),
            AgathaConfig::agatha().with_slice_width(1),
            AgathaConfig::agatha().with_slice_width(8),
            AgathaConfig::agatha().with_slice_width(64),
            AgathaConfig::agatha().with_subwarp(16),
            AgathaConfig::agatha().with_subwarp(32),
        ]
    }

    fn check_exact(r: &str, q: &str, scoring: &Scoring) {
        let t = task(r, q);
        let want = guided_align(&t.reference, &t.query, scoring);
        for cfg in all_configs() {
            let got = run_task(&t, scoring, &cfg);
            assert!(
                got.result.same_alignment(&want),
                "config {cfg:?}\n got {:?}\nwant {want:?}",
                got.result
            );
            assert_eq!(got.result.cells, want.cells, "reference cells, config {cfg:?}");
        }
    }

    #[test]
    fn exact_small() {
        let s = Scoring::figure1();
        check_exact("AGATAGAT", "AGACTATC", &s);
        check_exact("ACGT", "ACGTACGTACGTACGT", &s);
    }

    #[test]
    fn exact_banded_zdrop() {
        let s = Scoring::new(2, 4, 4, 2, 30, 20);
        let (r, q) = pseudo_seq(400, 7, 13);
        check_exact(&r, &q, &s);
    }

    #[test]
    fn exact_terminating_junk_tail() {
        let s = Scoring::new(2, 4, 4, 2, 20, 16);
        let (mut r, _) = pseudo_seq(150, 11, 0);
        let (tail_r, _) = pseudo_seq(200, 13, 0);
        let (tail_q, _) = pseudo_seq(200, 17, 0);
        let mut q = r.clone();
        r.push_str(&tail_r);
        q.push_str(&tail_q);
        let want = guided_align(
            &agatha_align::PackedSeq::from_str_seq(&r),
            &agatha_align::PackedSeq::from_str_seq(&q),
            &s,
        );
        assert!(want.stop.z_dropped(), "test needs a z-dropping input");
        check_exact(&r, &q, &s);
    }

    #[test]
    fn exact_asymmetric_lengths() {
        let s = Scoring::new(2, 4, 4, 2, 50, 12);
        let (r, _) = pseudo_seq(300, 23, 0);
        let (q, _) = pseudo_seq(80, 23, 9); // same seed prefix → aligned start
        check_exact(&r, &q, &s);
        check_exact(&q, &r, &s);
    }

    #[test]
    fn cost_descriptor_counts_every_block_of_a_long_row() {
        // In horizontal mode a row segment spans the whole band: an unbanded
        // 1,048,592 × 8 pair is one block row of 131,074 (B = 8) or 65,537
        // (B = 16) blocks, more than a `u16` holds. `SliceUnit` documents
        // `blocks == Σ row_cols`, and the simulated unit is charged from
        // `row_cols`, so it must hold in every mode.
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let t = task(&"ACGTTGCA".repeat(131_074), "ACGTTGCA");
        for cfg in all_configs() {
            let run = run_task(&t, &s, &cfg);
            assert!(run.blocks > u64::from(u16::MAX), "config {cfg:?}: {} blocks", run.blocks);
            let mut total = 0;
            for unit in &run.units {
                let cols: u64 = unit.row_cols.iter().map(|&c| u64::from(c)).sum();
                assert_eq!(unit.blocks, cols, "config {cfg:?}: a unit's blocks vs its row_cols");
                total += cols;
            }
            assert_eq!(total, run.blocks, "config {cfg:?}: the task's blocks vs its units");
        }
    }

    #[test]
    fn sliced_reduces_runahead_on_termination() {
        let s = Scoring::new(2, 4, 4, 2, 20, 32);
        let (mut r, _) = pseudo_seq(200, 31, 0);
        let (tail_r, _) = pseudo_seq(400, 37, 0);
        let (tail_q, _) = pseudo_seq(400, 41, 0);
        let mut q = r.clone();
        r.push_str(&tail_r);
        q.push_str(&tail_q);
        let t = task(&r, &q);
        let horiz = run_task(&t, &s, &AgathaConfig::baseline().with_rw(true));
        let sliced = run_task(&t, &s, &AgathaConfig::baseline().with_rw(true).with_sd(true));
        assert!(horiz.result.stop.z_dropped());
        assert!(
            sliced.blocks < horiz.blocks,
            "sliced diagonal must bound run-ahead: {} vs {}",
            sliced.blocks,
            horiz.blocks
        );
    }

    #[test]
    fn wider_slices_more_runahead() {
        let s = Scoring::new(2, 4, 4, 2, 20, 32);
        let (mut r, _) = pseudo_seq(200, 43, 0);
        let (tr, _) = pseudo_seq(400, 47, 0);
        let (tq, _) = pseudo_seq(400, 53, 0);
        let mut q = r.clone();
        r.push_str(&tr);
        q.push_str(&tq);
        let t = task(&r, &q);
        let narrow = run_task(&t, &s, &AgathaConfig::agatha().with_slice_width(2));
        let wide = run_task(&t, &s, &AgathaConfig::agatha().with_slice_width(64));
        assert!(narrow.blocks <= wide.blocks);
    }

    #[test]
    fn unit_blocks_cover_whole_band_when_no_termination() {
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 16);
        let (r, q) = pseudo_seq(250, 3, 11);
        let t = task(&r, &q);
        let cfgs = [AgathaConfig::baseline(), AgathaConfig::agatha()];
        let counts: Vec<u64> = cfgs.iter().map(|c| run_task(&t, &s, c).blocks).collect();
        // Without termination, every schedule computes exactly the band's
        // block cover, so totals agree.
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn cycles_monotone_in_lane_count() {
        // Band wide enough that slices span more rows than one subwarp —
        // at the paper's 8×8 geometry, which this test pins: the wide
        // geometry halves the rows per slice, and 8 lanes then already
        // cover every row, making c32 == c8.
        let s = Scoring::new(2, 4, 4, 2, 400, 64);
        let (r, q) = pseudo_seq(400, 5, 17);
        let t = task(&r, &q);
        let cfg = AgathaConfig::agatha().with_block_dim(agatha_align::BlockDim::B8);
        let run = run_task(&t, &s, &cfg);
        let cost = CostModel::for_spec(&GpuSpec::rtx_a6000());
        let c8 = run.cycles(8, &cfg, &cost);
        let c32 = run.cycles(32, &cfg, &cost);
        assert!(c32 < c8, "more lanes must not be slower: {c32} vs {c8}");
    }

    #[test]
    fn stats_consistency() {
        let s = Scoring::new(2, 4, 4, 2, 100, 24);
        let (r, q) = pseudo_seq(200, 19, 23);
        let t = task(&r, &q);
        let cfg = AgathaConfig::agatha();
        let run = run_task(&t, &s, &cfg);
        let cost = CostModel::for_spec(&GpuSpec::rtx_a6000());
        let st = run.stats(8, &cfg, &cost);
        let block_cells = u64::from(run.block_dim) * u64::from(run.block_dim);
        assert_eq!(st.computed_cells, run.blocks * block_cells);
        assert!(st.computed_cells >= st.reference_cells);
        assert_eq!(st.tasks, 1);
    }

    #[test]
    fn empty_task() {
        let t = task("", "ACGT");
        let run = run_task(&t, &Scoring::figure1(), &AgathaConfig::agatha());
        assert_eq!(run.result.score, 0);
        assert_eq!(run.blocks, 0);
        assert!(run.units.is_empty());
    }

    /// Tasks of deliberately varying geometry, including a z-dropping one
    /// in the middle and an empty one, to stress workspace reuse.
    fn mixed_tasks() -> (Vec<Task>, Scoring) {
        let s = Scoring::new(2, 4, 4, 2, 20, 16);
        let (r1, q1) = pseudo_seq(350, 7, 13);
        let (mut r2, _) = pseudo_seq(150, 11, 0);
        let (tail_r, _) = pseudo_seq(200, 13, 0);
        let (tail_q, _) = pseudo_seq(200, 17, 0);
        let mut q2 = r2.clone();
        r2.push_str(&tail_r);
        q2.push_str(&tail_q);
        let (r3, q3) = pseudo_seq(40, 19, 5);
        let (r4, q4) = pseudo_seq(700, 23, 29);
        let tasks = vec![
            Task::from_strs(0, &r1, &q1),
            Task::from_strs(1, &r2, &q2), // z-drops under this scoring
            Task::from_strs(2, "", &q3),
            Task::from_strs(3, &r3, &q3),
            Task::from_strs(4, &r4, &q4),
        ];
        (tasks, s)
    }

    #[test]
    fn workspace_reuse_matches_fresh_allocation() {
        let (tasks, s) = mixed_tasks();
        for cfg in all_configs() {
            let mut ws = KernelWorkspace::new();
            for t in &tasks {
                let fresh = run_task(t, &s, &cfg);
                let reused = run_task_ws(&mut ws, t, &s, &cfg);
                assert_eq!(reused, fresh, "config {cfg:?}, task {}", t.id);
            }
        }
        // The z-drop input really exercised the early-termination path.
        let zdropped = run_task(&tasks[1], &s, &AgathaConfig::agatha());
        assert!(zdropped.result.stop.z_dropped());
    }

    #[test]
    fn simd_and_scalar_fill_produce_identical_runs() {
        // Full TaskRun equality (results, unit schedules, block counts)
        // between the two fill paths, across every configuration and the
        // mixed task set (including z-drop early termination). Geometry is
        // pinned so both paths tile identically — the scalar fill never
        // resolves to the wide geometry under Auto, and TaskRun equality is
        // only meaningful at one tiling; cross-geometry identity is covered
        // by `geometries_produce_identical_results`.
        use agatha_align::block::BlockDim;
        let (tasks, s) = mixed_tasks();
        for bd in [BlockDim::B8, BlockDim::B16] {
            for cfg in all_configs() {
                let scalar_cfg = cfg.clone().with_simd_fill(false).with_block_dim(bd);
                let simd_cfg = cfg.clone().with_simd_fill(true).with_block_dim(bd);
                for t in &tasks {
                    let a = run_task(t, &s, &scalar_cfg);
                    let b = run_task(t, &s, &simd_cfg);
                    assert_eq!(a, b, "config {cfg:?}, block dim {}, task {}", bd.name(), t.id);
                }
            }
        }
    }

    /// [`mixed_tasks`]' scoring with a match score so large that one block's
    /// scores spread past the i16 offset range: every task demotes to i32.
    fn hot_scoring(s: &Scoring) -> Scoring {
        Scoring::new(300, 4, s.gap_open, s.gap_extend, s.zdrop, s.band_width)
    }

    #[test]
    fn fill_tiers_produce_identical_runs() {
        // Full TaskRun equality across the three-tier matrix (scalar, i32
        // wavefront, i16 wavefront) at both pinned geometries, across every
        // configuration and the mixed task set — once under a scoring the
        // i16 gate admits (so the 700 bp member, past the i16 range in
        // absolute score, runs rebased lanes) and once under one it rejects,
        // so the same assertions also cover the i16→i32 auto-demotion path.
        use agatha_align::block::{BlockDim, FillPrecision, FillTier};
        let (tasks, s) = mixed_tasks();
        let i16_cfg =
            AgathaConfig::agatha().with_simd_fill(true).with_fill_precision(FillPrecision::I16);
        for (s, want) in [(s, FillTier::I16), (hot_scoring(&s), FillTier::I32)] {
            for t in &tasks {
                assert_eq!(i16_cfg.fill_tier_for(t.ref_len(), t.query_len(), &s), want);
            }
            for bd in [BlockDim::B8, BlockDim::B16] {
                for cfg in all_configs() {
                    let cfg = cfg.with_block_dim(bd);
                    let scalar_cfg = cfg.clone().with_simd_fill(false);
                    let wide_cfg =
                        cfg.clone().with_simd_fill(true).with_fill_precision(FillPrecision::I32);
                    let narrow_cfg =
                        cfg.clone().with_simd_fill(true).with_fill_precision(FillPrecision::I16);
                    // One shared workspace alternates tiers across the stream
                    // to prove reuse carries no state between them.
                    let mut ws = KernelWorkspace::new();
                    for t in &tasks {
                        let a = run_task(t, &s, &scalar_cfg);
                        let b = run_task_ws(&mut ws, t, &s, &wide_cfg);
                        let c = run_task_ws(&mut ws, t, &s, &narrow_cfg);
                        assert_eq!(a, b, "config {cfg:?}, task {}: scalar vs i32 tier", t.id);
                        assert_eq!(a, c, "config {cfg:?}, task {}: scalar vs i16 tier", t.id);
                    }
                }
            }
        }
    }

    #[test]
    fn geometries_produce_identical_results() {
        // One shared workspace alternating block geometries task by task:
        // the alignment result (and reference-cell accounting) must be
        // bit-identical across B — only the tiling-level observables (unit
        // schedules, block counts, block_dim) may differ — and workspace
        // recycling must carry no state across geometry switches.
        use agatha_align::block::BlockDim;
        let (tasks, s) = mixed_tasks();
        for cfg in all_configs() {
            let cfg8 = cfg.clone().with_block_dim(BlockDim::B8);
            let cfg16 = cfg.clone().with_block_dim(BlockDim::B16);
            let auto = cfg.clone().with_block_dim(BlockDim::Auto);
            let mut ws = KernelWorkspace::new();
            for t in &tasks {
                let narrow = run_task(t, &s, &cfg8);
                let wide = run_task_ws(&mut ws, t, &s, &cfg16);
                let narrow_reused = run_task_ws(&mut ws, t, &s, &cfg8);
                let adaptive = run_task_ws(&mut ws, t, &s, &auto);
                assert_eq!(narrow.block_dim, 8);
                assert_eq!(wide.block_dim, 16);
                assert_eq!(
                    narrow.result, wide.result,
                    "config {cfg:?}, task {}: result must not depend on geometry",
                    t.id
                );
                // Same geometry after a wide run on the same workspace:
                // full TaskRun equality proves recycling holds across B.
                assert_eq!(narrow, narrow_reused, "config {cfg:?}, task {}", t.id);
                // Auto resolves per task; whatever it picks, the result is
                // the same and the pick matches the config resolver.
                assert_eq!(narrow.result, adaptive.result, "config {cfg:?}, task {}", t.id);
                assert_eq!(
                    adaptive.block_dim as usize,
                    auto.block_dim_for(t.ref_len(), t.query_len(), &s),
                    "config {cfg:?}, task {}",
                    t.id
                );
            }
        }
    }

    #[test]
    fn backends_produce_identical_results() {
        // Full TaskRun equality across every backend this machine supports,
        // at both pinned geometries and both wavefront precisions, over the
        // mixed task stream — plus, at the i16 precision, under a scoring
        // the i16 gate rejects, so the i16→i32 demotion path is swept per
        // backend too. One shared workspace alternates backends task by
        // task — each run carries its backend in its config — proving both
        // that every backend computes the same runs and that workspace reuse
        // carries no backend-specific state. On an AVX-512 machine this pits
        // the zmm kernels and the four-quarter tracker fold directly against
        // the portable reference.
        use agatha_align::block::{BlockDim, FillPrecision};
        use agatha_align::simd::{self, BackendChoice, WavefrontBackend};
        let (tasks, s) = mixed_tasks();
        let hot = hot_scoring(&s);
        let backends = simd::supported_backends();
        assert_eq!(backends.last(), Some(&WavefrontBackend::Portable));
        for bd in [BlockDim::B8, BlockDim::B16] {
            for (prec, s) in
                [(FillPrecision::I32, &s), (FillPrecision::I16, &s), (FillPrecision::I16, &hot)]
            {
                let cfg = AgathaConfig::agatha()
                    .with_simd_fill(true)
                    .with_fill_precision(prec)
                    .with_block_dim(bd);
                let on = |b| cfg.clone().with_backend(BackendChoice::Fixed(b));
                let mut ws = KernelWorkspace::new();
                for t in &tasks {
                    let reference = run_task_ws(&mut ws, t, s, &on(WavefrontBackend::Portable));
                    for &b in &backends {
                        assert_eq!(on(b).backend.resolve(), b, "a supported backend survives");
                        let run = run_task_ws(&mut ws, t, s, &on(b));
                        assert_eq!(
                            reference,
                            run,
                            "geometry {}, precision {prec:?}, task {}: portable vs {}",
                            bd.name(),
                            t.id,
                            b.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn recycled_unit_buffers_are_reused() {
        let (tasks, s) = mixed_tasks();
        let cfg = AgathaConfig::agatha();
        let mut ws = KernelWorkspace::new();
        let baseline = run_task_ws(&mut ws, &tasks[0], &s, &cfg);
        let run = run_task_ws(&mut ws, &tasks[0], &s, &cfg);
        let units_ptr = run.units.as_ptr();
        assert!(!run.units.is_empty());
        ws.recycle_units(run.units);
        let (outer, inner) = ws.recycled_buffers();
        assert_eq!(outer, 1);
        assert!(inner >= 1);
        // The next run must draw the same outer allocation back out of the
        // pool — and produce identical output.
        let again = run_task_ws(&mut ws, &tasks[0], &s, &cfg);
        assert_eq!(again.units.as_ptr(), units_ptr, "outer units buffer must be reused");
        assert_eq!(again, baseline);
        assert_eq!(ws.recycled_buffers().0, 0, "pool drained by the run");
    }

    #[test]
    fn workspace_reaches_allocation_steady_state() {
        let (tasks, s) = mixed_tasks();
        let cfg = AgathaConfig::agatha();
        let mut ws = KernelWorkspace::new();
        for t in &tasks {
            run_task_ws(&mut ws, t, &s, &cfg);
        }
        let cap = ws.row_capacity();
        assert!(cap > 0);
        for _ in 0..3 {
            for t in &tasks {
                run_task_ws(&mut ws, t, &s, &cfg);
            }
        }
        assert_eq!(ws.row_capacity(), cap, "steady-state reuse must not regrow buffers");
    }
}
