//! The AGAThA kernel executor, in two halves that share only the result.
//!
//! **What the host computes.** One task's real DP values: the row-major
//! schedule of the shared block-row [`Sweep`] — every band row one segment,
//! a termination check after it — at whatever tile, tier and backend the plan
//! resolves for the host CPU. [`TaskRun::blocks`], [`TaskRun::block_dim`] and
//! [`TaskRun::computed_cells`] count that work.
//!
//! **What the device would have done.** [`TaskRun::units`], the per-unit cost
//! descriptors every simulated number is folded from, are
//! [`crate::trace::DeviceGrid::trace`] of the task's shape and of where it
//! stopped: the §4.2 slices (or horizontal chunks) at the paper's 8×8 blocks,
//! independent of the host half.
//!
//! Exactness: the DP values and termination decisions are identical across
//! every configuration — tiling affects only *which extra cells get
//! computed* (run-ahead) and what the memory traffic costs. This is
//! verified against the scalar reference in this module's tests and by
//! property tests at the workspace level.

use agatha_align::block::BlockCtx;
use agatha_align::diag::DiagTracker;
use agatha_align::sweep::{NorthRows, Sweep};
use agatha_align::{GuidedResult, QueryProfile, Scoring, Task, BLOCK, MAX_BLOCK};
use agatha_gpu_sim::{CostModel, KernelStats, BLOCK_CELLS};

use crate::options::AgathaConfig;
use crate::trace::{unit_cost, DeviceGrid, SliceUnit};

/// Output of executing one task through the kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRun {
    /// Task identifier (copied from the input).
    pub id: u32,
    /// Exact guided-alignment result.
    pub result: GuidedResult,
    /// The *device's* cost descriptors, one per checkpoint unit of its
    /// schedule at 8×8 blocks, in execution order
    /// ([`crate::trace::DeviceGrid::trace`]).
    pub units: Vec<SliceUnit>,
    /// Blocks the *host* computed (including its run-ahead), in tiles of
    /// `block_dim`.
    pub blocks: u64,
    /// Block side the host tiled this task with: 8 or 16, as
    /// [`AgathaConfig::block_dim_for`] resolves it from the plan's backend
    /// and the task's i16 gate.
    pub block_dim: u32,
    /// The task's shape on the device; `units` are read against it.
    pub grid: DeviceGrid,
}

impl TaskRun {
    /// Cells the *host* computed (blocks × block_dim²), including run-ahead
    /// and masked block padding. Not a simulated quantity: see
    /// [`TaskRun::device_blocks`].
    pub fn computed_cells(&self) -> u64 {
        self.blocks * u64::from(self.block_dim) * u64::from(self.block_dim)
    }

    /// 8×8 blocks the *device* executes for this task, run-ahead included.
    pub fn device_blocks(&self) -> u64 {
        self.units.iter().map(|u| u.blocks).sum()
    }

    /// Aggregate stats at a fixed lane count under a cost model.
    pub fn stats(&self, lanes: usize, cfg: &AgathaConfig, cost: &CostModel) -> KernelStats {
        let mut s = KernelStats::new();
        s.computed_cells = self.computed_cells();
        s.reference_cells = self.result.cells;
        s.tasks = 1;
        s.zdropped_tasks = u64::from(self.result.stop.z_dropped());
        for u in &self.units {
            let c = unit_cost(&self.grid, u, lanes, cfg, cost, true);
            s.device_cells += u.blocks * BLOCK_CELLS;
            s.steps += c.steps;
            s.idle_lane_steps += c.idle_lane_steps;
            s.mem.add(&c.mem);
        }
        s
    }

    /// Subwarp latency in cycles at a fixed lane count.
    pub fn cycles(&self, lanes: usize, cfg: &AgathaConfig, cost: &CostModel) -> f64 {
        self.units.iter().map(|u| unit_cost(&self.grid, u, lanes, cfg, cost, true).cycles).sum()
    }
}

/// Reusable per-worker scratch for [`run_task_ws`]: the stored north rows,
/// the align-layer [`DiagTracker`] and the per-query profile. All of these
/// are grow-only and geometry-agnostic (rows pad to the active block side),
/// so one workspace serves tasks of either block geometry back to back and
/// reaches a steady state in which executing a task performs no heap
/// allocation on the kernel hot path — the fixed-size block staging buffer
/// lives in the [`Sweep`], on the kernel's stack frame. The scratch never
/// leaves its worker; the returned [`TaskRun`] owns its trace, allocated
/// per run.
///
/// This is the `block-aligner` idiom: build one long-lived aligner object
/// and feed it tasks, instead of reallocating per call.
#[derive(Debug, Clone)]
pub struct KernelWorkspace {
    rows: NorthRows,
    tracker: DiagTracker,
    /// Per-query substitution rows for matrix score models (inactive under
    /// fixed models); rebuilt per task, reusing the allocation.
    profile: QueryProfile,
}

impl KernelWorkspace {
    /// Empty workspace; buffers grow on first use.
    pub fn new() -> KernelWorkspace {
        KernelWorkspace {
            rows: NorthRows::default(),
            tracker: DiagTracker::new(0, 0, &Scoring::default()),
            profile: QueryProfile::new(),
        }
    }

    /// Total capacity currently held by the DP row buffers, in cells.
    /// Exposed so tests can assert that steady-state reuse stops growing.
    pub fn row_capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// Shell: drops `units`. A run owns its trace, so nothing is taken
    /// back; this survives only because the frozen `benchmark/` calls it,
    /// and it goes when the benchmark stops calling it.
    pub fn recycle_units(&mut self, _units: Vec<SliceUnit>) {}

    /// Shell: always `(0,)`, for the same frozen caller as
    /// [`KernelWorkspace::recycle_units`]; deleted with it.
    pub fn recycled_buffers(&self) -> (usize,) {
        (0,)
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
/// Geometry dispatch happens here, once per task:
/// [`AgathaConfig::block_dim_for`] (16, or 8 on `sse41` lanes and for a task
/// inside the i16 gate at 8 only) selects the matching monomorphization of
/// the kernel body. The alignment result and the device trace are
/// bit-identical across geometries; only the host's own counts (`blocks`,
/// `block_dim`) differ.
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

/// The kernel body, monomorphized per host block side `B`: the row-major
/// sweep for the result, then the device's trace of it.
fn run_task_geom<const B: usize>(
    ws: &mut KernelWorkspace,
    task: &Task,
    scoring: &Scoring,
    cfg: &AgathaConfig,
) -> TaskRun {
    let n = task.ref_len();
    let m = task.query_len();
    let KernelWorkspace { rows, tracker, profile } = ws;
    // Matrix score models get their per-query substitution rows built once
    // per task (a no-op that deactivates the profile under fixed models).
    profile.prepare(&task.query, scoring);
    // The fill follows the plan's backend, and the fold follows the fill
    // (the staging buffer carries the backend that filled it).
    let ctx = BlockCtx::with_block_dim(n, m, scoring, B)
        .with_backend(cfg.backend)
        .with_profile(Some(&*profile));
    // Per-task tier resolution: the i16 wavefront when its exactness gate
    // holds, the scalar fill otherwise (see BlockCtx::fill_tier).
    let tier = ctx.fill_tier(cfg.fill_mode(), cfg.fill_precision);
    tracker.reset(n, m, scoring);
    // An empty table has no block rows: the sweep runs nothing and the
    // tracker is already decided.
    let blocks =
        Sweep::<B>::new(ctx, tier, &task.reference, &task.query, rows, Some(&mut *tracker))
            .row_major();
    let result = tracker.take_result();

    let grid = DeviceGrid::new(n, m, scoring.band_width);
    let mut units = Vec::new();
    grid.trace(cfg, &result, &mut units);
    TaskRun { id: task.id, result, units, blocks, block_dim: B as u32, grid }
}

#[cfg(test)]
pub(crate) mod tests {
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

    pub(crate) fn all_configs() -> Vec<AgathaConfig> {
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
        // 1,048,592 × 8 pair is one block row of 131,074 device blocks, more
        // than a `u16` holds. `SliceUnit` documents `blocks == Σ unit_rows`,
        // and the simulated unit is charged from the re-derived rows, so it
        // must hold in every mode.
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let t = task(&"ACGTTGCA".repeat(131_074), "ACGTTGCA");
        for cfg in all_configs() {
            let run = run_task(&t, &s, &cfg);
            assert_eq!(run.device_blocks(), 131_074, "config {cfg:?}");
            for unit in &run.units {
                let cols: u64 = run.grid.unit_rows(unit).sum();
                assert_eq!(unit.blocks, cols, "config {cfg:?}: a unit's blocks vs its rows");
            }
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
            sliced.device_blocks() < horiz.device_blocks(),
            "sliced diagonal must bound run-ahead: {} vs {}",
            sliced.device_blocks(),
            horiz.device_blocks()
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
        assert!(narrow.device_blocks() <= wide.device_blocks());
    }

    #[test]
    fn unit_blocks_cover_whole_band_when_no_termination() {
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 16);
        let (r, q) = pseudo_seq(250, 3, 11);
        let t = task(&r, &q);
        let cfgs = [AgathaConfig::baseline(), AgathaConfig::agatha()];
        let counts: Vec<u64> = cfgs.iter().map(|c| run_task(&t, &s, c).device_blocks()).collect();
        // Without termination, every schedule computes exactly the band's
        // block cover, so totals agree.
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn cycles_monotone_in_lane_count() {
        // Band wide enough that slices span more rows than one subwarp.
        let s = Scoring::new(2, 4, 4, 2, 400, 64);
        let (r, q) = pseudo_seq(400, 5, 17);
        let t = task(&r, &q);
        let cfg = AgathaConfig::agatha();
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
    pub(crate) fn mixed_tasks() -> (Vec<Task>, Scoring) {
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

    /// The kernel body at both host geometries, whatever `cfg` would
    /// resolve: 8×8, then 16×16.
    fn both_geometries(
        ws: &mut KernelWorkspace,
        t: &Task,
        s: &Scoring,
        cfg: &AgathaConfig,
    ) -> [TaskRun; 2] {
        [run_task_geom::<BLOCK>(ws, t, s, cfg), run_task_geom::<MAX_BLOCK>(ws, t, s, cfg)]
    }

    #[test]
    fn simd_and_scalar_fill_produce_identical_runs() {
        // Full TaskRun equality (results, device traces, host block counts)
        // between the two fill paths, across every configuration and the
        // mixed task set (including z-drop early termination), with the
        // kernel body driven at each geometry; cross-geometry identity is
        // covered by `geometries_produce_identical_results`.
        let (tasks, s) = mixed_tasks();
        let mut ws = KernelWorkspace::new();
        for cfg in all_configs() {
            let scalar_cfg = cfg.clone().with_simd_fill(false);
            let simd_cfg = cfg.clone().with_simd_fill(true);
            for t in &tasks {
                let a = both_geometries(&mut ws, t, &s, &scalar_cfg);
                let b = both_geometries(&mut ws, t, &s, &simd_cfg);
                assert_eq!(a, b, "config {cfg:?}, task {}", t.id);
            }
        }
    }

    /// [`mixed_tasks`]' scoring with a match score so large that one block's
    /// scores spread past the i16 offset range: every task demotes to scalar.
    fn hot_scoring(s: &Scoring) -> Scoring {
        Scoring::new(300, 4, s.gap_open, s.gap_extend, s.zdrop, s.band_width)
    }

    #[test]
    fn fill_tiers_produce_identical_runs() {
        // Full TaskRun equality between the scalar plan and the default
        // (wavefront) plan at both geometries, across every configuration
        // and the mixed task set — once under a scoring the i16 gate admits
        // (so the 700 bp member, past the i16 range in absolute score, runs
        // rebased lanes) and once under one it rejects, so the same
        // assertions also cover the i16→scalar demotion path.
        use agatha_align::block::FillTier;
        let (tasks, s) = mixed_tasks();
        let simd_cfg = AgathaConfig::agatha().with_simd_fill(true);
        for (s, want) in [(s, FillTier::I16), (hot_scoring(&s), FillTier::Scalar)] {
            for t in &tasks {
                assert_eq!(simd_cfg.fill_tier_for(t.ref_len(), t.query_len(), &s), want);
            }
            for cfg in all_configs() {
                let scalar_cfg = cfg.clone().with_simd_fill(false);
                let simd_cfg = cfg.clone().with_simd_fill(true);
                // One shared workspace alternates tiers across the stream to
                // prove reuse carries no state between them.
                let mut ws = KernelWorkspace::new();
                for t in &tasks {
                    let a = both_geometries(&mut ws, t, &s, &scalar_cfg);
                    let b = both_geometries(&mut ws, t, &s, &simd_cfg);
                    assert_eq!(a, b, "config {cfg:?}, task {}: scalar vs default plan", t.id);
                }
            }
        }
    }

    #[test]
    fn geometries_produce_identical_results() {
        // One shared workspace alternating block geometries task by task:
        // the alignment result (and reference-cell accounting) and the
        // device's trace must be bit-identical across B — only the host's
        // own counts (blocks, block_dim) may differ — and workspace
        // recycling must carry no state across geometry switches.
        let (tasks, s) = mixed_tasks();
        for cfg in all_configs() {
            let mut ws = KernelWorkspace::new();
            for t in &tasks {
                let narrow = run_task_geom::<BLOCK>(&mut KernelWorkspace::new(), t, &s, &cfg);
                let wide = run_task_geom::<MAX_BLOCK>(&mut ws, t, &s, &cfg);
                let narrow_reused = run_task_geom::<BLOCK>(&mut ws, t, &s, &cfg);
                let resolved = run_task_ws(&mut ws, t, &s, &cfg);
                assert_eq!(narrow.block_dim, 8);
                assert_eq!(wide.block_dim, 16);
                assert_eq!(
                    narrow.result, wide.result,
                    "config {cfg:?}, task {}: result must not depend on geometry",
                    t.id
                );
                assert_eq!(
                    (&narrow.units, narrow.grid),
                    (&wide.units, wide.grid),
                    "config {cfg:?}, task {}: the device trace must not depend on geometry",
                    t.id
                );
                // Same geometry after a wide run on the same workspace:
                // full TaskRun equality proves recycling holds across B.
                assert_eq!(narrow, narrow_reused, "config {cfg:?}, task {}", t.id);
                // The plan's own run is the run at the side it resolves.
                assert_eq!(
                    resolved.block_dim as usize,
                    cfg.block_dim_for(t.ref_len(), t.query_len(), &s),
                    "config {cfg:?}, task {}",
                    t.id
                );
                let pinned = if resolved.block_dim == 8 { &narrow } else { &wide };
                assert_eq!(&resolved, pinned, "config {cfg:?}, task {}", t.id);
            }
        }
    }

    #[test]
    fn backends_produce_identical_results() {
        // Full TaskRun equality across every backend this machine supports,
        // at both geometries, over the mixed task stream — plus under a
        // scoring the i16 gate rejects, so the demotion to scalar is swept
        // per backend too. One shared workspace alternates backends task by
        // task — each run carries its backend in its config — proving both
        // that every backend computes the same runs and that workspace reuse
        // carries no backend-specific state. On an AVX-512 machine this pits
        // the zmm kernels and the four-quarter tracker fold directly against
        // the portable reference.
        use agatha_align::simd::{self, BackendChoice, WavefrontBackend};
        let (tasks, s) = mixed_tasks();
        let hot = hot_scoring(&s);
        let backends = simd::supported_backends();
        assert_eq!(backends.last(), Some(&WavefrontBackend::Portable));
        for s in [&s, &hot] {
            let on = |b| AgathaConfig::agatha().with_backend(BackendChoice::Fixed(b));
            let mut ws = KernelWorkspace::new();
            for t in &tasks {
                let reference = both_geometries(&mut ws, t, s, &on(WavefrontBackend::Portable));
                for &b in &backends {
                    assert_eq!(on(b).backend.resolve(), b, "a supported backend survives");
                    let runs = both_geometries(&mut ws, t, s, &on(b));
                    assert_eq!(
                        reference,
                        runs,
                        "match score {}, task {}: portable vs {}",
                        s.max_score(),
                        t.id,
                        b.name()
                    );
                }
            }
        }
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
