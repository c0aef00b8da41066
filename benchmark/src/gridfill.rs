//! Fill and fold, separated without per-block clocks.
//!
//! A bench-local copy of the `block_grid_align_b` driver, built from the
//! same public pieces the kernel uses (`compute_block_i16` /
//! `compute_block_mode`, `DiagTracker::on_block*`, `west_init`,
//! `north_read`, `corner_read`) with the kernel's per-task tier and geometry
//! resolution. It runs a task once with fill + fold and records how many
//! blocks it computed before terminating, then replays the fill alone for
//! exactly that many blocks. Fold time is the difference of the two passes;
//! a clock around each 40 ns fold would cost as much as the fold.

use agatha_align::block::{
    compute_block_i16, compute_block_mode, corner_read, north_read, west_init, BlockCellsT,
    BlockCtx, FillMode, FillTier,
};
use agatha_align::diag::DiagTracker;
use agatha_align::{GuidedResult, QueryProfile, Scoring, Task, MAX_BLOCK, NEG_INF};
use agatha_core::AgathaConfig;

/// Which half of the work a pass performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Fill every block and fold it into the tracker until the task ends
    /// (table exhausted or z-drop).
    FillAndFold,
    /// Fill only, stopping after this many blocks — the count a
    /// [`Pass::FillAndFold`] of the same task reported.
    FillOnly { blocks: u64 },
}

/// Reusable scratch for [`grid_pass`]: the stored row boundary, the tracker
/// and the matrix profile, grown on first use like the kernel's workspace.
pub struct GridWorkspace {
    row_h: Vec<i32>,
    row_f: Vec<i32>,
    tracker: DiagTracker,
    profile: QueryProfile,
}

impl Default for GridWorkspace {
    fn default() -> GridWorkspace {
        GridWorkspace::new()
    }
}

impl GridWorkspace {
    pub fn new() -> GridWorkspace {
        GridWorkspace {
            row_h: Vec::new(),
            row_f: Vec::new(),
            tracker: DiagTracker::new(0, 0, &Scoring::default()),
            profile: QueryProfile::new(),
        }
    }

    /// The stored north boundary (`H`, `F`) the last pass left behind.
    pub fn boundary_rows(&self) -> (&[i32], &[i32]) {
        (&self.row_h, &self.row_f)
    }
}

/// What one pass over one task did.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOutcome {
    /// Blocks filled.
    pub blocks: u64,
    /// The guided result ([`Pass::FillAndFold`] only).
    pub result: Option<GuidedResult>,
}

/// Run one pass of `task` at the tier and geometry the kernel would pick
/// under `cfg`.
pub fn grid_pass(
    ws: &mut GridWorkspace,
    task: &Task,
    scoring: &Scoring,
    cfg: &AgathaConfig,
    pass: Pass,
) -> GridOutcome {
    match cfg.block_dim_for(task.ref_len(), task.query_len(), scoring) {
        MAX_BLOCK => grid_pass_b::<MAX_BLOCK>(ws, task, scoring, cfg, pass),
        _ => grid_pass_b::<{ agatha_align::BLOCK }>(ws, task, scoring, cfg, pass),
    }
}

fn grid_pass_b<const B: usize>(
    ws: &mut GridWorkspace,
    task: &Task,
    scoring: &Scoring,
    cfg: &AgathaConfig,
    pass: Pass,
) -> GridOutcome {
    let (n, m) = (task.ref_len(), task.query_len());
    let GridWorkspace { row_h, row_f, tracker, profile } = ws;
    profile.prepare(&task.query, scoring);
    let ctx = BlockCtx::with_block_dim(n, m, scoring, B).with_profile(Some(&*profile));
    let tier = ctx.fill_tier(cfg.fill_mode(), cfg.fill_precision);
    let wide_mode = if tier == FillTier::I32 { FillMode::Simd } else { FillMode::Scalar };
    let (fold, stop_after) = match pass {
        Pass::FillAndFold => (true, u64::MAX),
        Pass::FillOnly { blocks } => (false, blocks),
    };
    if fold {
        tracker.reset(n, m, scoring);
    }
    let mut blocks = 0u64;
    let b = B as i64;
    let padded_n = (ctx.ref_blocks().max(0) * b) as usize;
    row_h.clear();
    row_h.resize(padded_n, NEG_INF);
    row_f.clear();
    row_f.resize(padded_n, NEG_INF);

    if n > 0 && m > 0 && stop_after > 0 {
        let mut rblock = [0u8; B];
        let mut qblock = [0u8; B];
        let mut cells = BlockCellsT::<i32, B>::new();
        let mut cells16 = BlockCellsT::<i16, B>::new();
        'rows: for bj in 0..ctx.query_blocks() {
            let j0 = bj * b;
            let Some((bi_lo, bi_hi)) = ctx.row_block_range(bj) else { continue };
            task.query.unpack_block(j0 as usize, &mut qblock);
            let i_start = bi_lo * b;
            let (mut west_h, mut west_e) = west_init::<B>(&ctx, i_start, j0);
            let mut corner = corner_read(&ctx, i_start, j0, row_h);
            for bi in bi_lo..=bi_hi {
                let i0 = bi * b;
                task.reference.unpack_block(i0 as usize, &mut rblock);
                let (mut north_h, mut north_f) = north_read::<B>(&ctx, i0, j0, row_h, row_f);
                let next_corner = north_h[B - 1];
                if tier == FillTier::I16 {
                    compute_block_i16(
                        &ctx,
                        i0,
                        j0,
                        &rblock,
                        &qblock,
                        corner,
                        &mut west_h,
                        &mut west_e,
                        &mut north_h,
                        &mut north_f,
                        &mut cells16,
                    );
                    if fold {
                        tracker.on_block_i16(&cells16);
                    }
                } else {
                    compute_block_mode(
                        wide_mode,
                        &ctx,
                        i0,
                        j0,
                        &rblock,
                        &qblock,
                        corner,
                        &mut west_h,
                        &mut west_e,
                        &mut north_h,
                        &mut north_f,
                        &mut cells,
                    );
                    if fold {
                        tracker.on_block(&cells);
                    }
                }
                row_h[i0 as usize..i0 as usize + B].copy_from_slice(&north_h);
                row_f[i0 as usize..i0 as usize + B].copy_from_slice(&north_f);
                corner = next_corner;
                blocks += 1;
                if blocks == stop_after || (fold && tracker.is_finished()) {
                    break 'rows;
                }
            }
            if fold && tracker.advance().is_some() {
                break;
            }
        }
    }
    // Keep the staged cells observable so the fill-only pass cannot be
    // optimised into nothing.
    std::hint::black_box(&*row_h);
    GridOutcome { blocks, result: fold.then(|| tracker.take_result()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate_tasks, scenario_scoring, BATCH_WORKLOADS};
    use agatha_align::guided::guided_align;

    #[test]
    fn fill_and_fold_matches_the_oracle_on_every_scenario() {
        let cfg = AgathaConfig::agatha();
        let mut ws = GridWorkspace::new();
        for w in BATCH_WORKLOADS {
            let scoring = scenario_scoring(w.scenario);
            for t in generate_tasks(w.scenario, 11, 6) {
                let got = grid_pass(&mut ws, &t, &scoring, &cfg, Pass::FillAndFold);
                let want = guided_align(&t.reference, &t.query, &scoring);
                let result = got.result.expect("fold pass yields a result");
                assert!(result.same_alignment(&want), "{}: {result:?} vs {want:?}", w.name);
                assert!(got.blocks > 0);
            }
        }
    }

    #[test]
    fn fill_only_stops_at_the_recorded_block_with_the_same_boundary_rows() {
        let cfg = AgathaConfig::agatha();
        // dna-long has chimeras that z-drop, so some tasks stop mid-table.
        let mut stopped_early = 0;
        for w in BATCH_WORKLOADS {
            let scoring = scenario_scoring(w.scenario);
            for t in generate_tasks(w.scenario, 5, 8) {
                let mut a = GridWorkspace::new();
                let folded = grid_pass(&mut a, &t, &scoring, &cfg, Pass::FillAndFold);
                let mut b = GridWorkspace::new();
                let filled =
                    grid_pass(&mut b, &t, &scoring, &cfg, Pass::FillOnly { blocks: folded.blocks });
                assert_eq!(filled.blocks, folded.blocks, "{}", w.name);
                assert!(filled.result.is_none());
                assert_eq!(a.boundary_rows(), b.boundary_rows(), "{} task {}", w.name, t.id);
                let full =
                    grid_pass(&mut b, &t, &scoring, &cfg, Pass::FillOnly { blocks: u64::MAX });
                if full.blocks > folded.blocks {
                    stopped_early += 1;
                }
            }
        }
        assert!(stopped_early > 0, "no task terminated early: the stop replay went untested");
    }

    #[test]
    fn empty_task_fills_nothing() {
        let scoring = Scoring::default();
        let t = Task::from_strs(0, "", "ACGT");
        let mut ws = GridWorkspace::new();
        let got = grid_pass(&mut ws, &t, &scoring, &AgathaConfig::agatha(), Pass::FillAndFold);
        assert_eq!(got.blocks, 0);
        assert_eq!(got.result.unwrap().score, 0);
    }
}
