//! Cost traces: per-checkpoint-unit work descriptors and their latency
//! evaluation under the cost model.
//!
//! The kernel executes each task once (computing real DP values) and emits
//! one [`SliceUnit`] per checkpoint unit — a *chunk* in horizontal mode, a
//! *slice* in sliced-diagonal mode. A unit records enough geometry to
//! re-evaluate its latency under a different lane count, which is exactly
//! what subwarp rejoining needs: when subwarps merge at a slice boundary,
//! the remaining units of the absorbed task run with more lanes.

use agatha_gpu_sim::{AccessKind, CostModel, MemCounters};

use crate::options::AgathaConfig;

/// Global transactions per block for per-cell anti-diagonal max updates
/// when the rolling window is off (64 lane updates, partially coalesced).
pub const ANTI_TX_PER_BLOCK_NO_RW: u64 = 2;
/// Global sequence-load transactions issued per lockstep step (one packed
/// word per lane, coalescing across lanes).
pub const SEQ_STEP_TX: f64 = 1.0;
/// Boundary/west intermediate values coalesce across consecutive rows.
pub const INTER_COALESCE: u64 = 8;
/// Shared accesses per block for LMB updates (one per cell).
pub const SHARED_PER_BLOCK_LMB: u64 = 64;
/// Shared accesses per block for intra-chunk boundary exchange (packed
/// H/F vectors, write + read).
pub const SHARED_PER_BLOCK_INTER: u64 = 2;
/// Global transactions per boundary-row block across chunk boundaries
/// (H, E and F vectors plus corners; write by the bottom row + read by the
/// next chunk's top row).
pub const GLOBAL_INTER_PER_BOUNDARY_BLOCK: u64 = 6;
/// Global transactions per block-row for slice-edge intermediate values
/// (packed H/E, write at slice end + read at next slice start; the
/// "Additional Memory Access" of Fig. 5(c)).
pub const GLOBAL_WEST_PER_ROW: u64 = 2;
/// Packed-sequence loads per block (one reference word per lane).
pub const SEQ_TX_PER_BLOCK: u64 = 1;
/// Packed-sequence loads per block-row (the query word stays in registers
/// for the whole row sweep).
pub const SEQ_TX_PER_ROW: u64 = 1;
/// Fraction of sequence loads that reach DRAM (the rest hit L2/texture
/// cache): one transaction per this many loads.
pub const SEQ_CACHE_DIVISOR: u64 = 4;
/// Extra cycles per lockstep step when the rolling-window index needs a
/// modulo instead of a bitwise AND ("which is known to be slow on GPUs",
/// §5.5 — slice widths 3 and 7 avoid it).
pub const MODULO_PENALTY_CYCLES: f64 = 3.0;

/// Work descriptor for one checkpoint unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceUnit {
    /// Blocks computed per block-row of the unit, top to bottom.
    pub row_cols: Vec<u32>,
    /// Total blocks (== sum of `row_cols`).
    pub blocks: u64,
    /// Anti-diagonals newly completed (and termination-checked) at this
    /// unit's checkpoint.
    pub diags_completed: u32,
    /// Whether the unit's anti-diagonal span fits the LMB, eliminating
    /// global spilling (§4.2).
    pub lmb_fits: bool,
}

/// Latency evaluation output for one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitCost {
    /// Simulated cycles for the owning subwarp.
    pub cycles: f64,
    /// Lockstep block-steps.
    pub steps: u64,
    /// Lane-steps wasted to stagger/fragmentation at this lane count.
    pub idle_lane_steps: u64,
    /// Memory transactions.
    pub mem: MemCounters,
}

/// Evaluate one unit's latency for a subwarp of `lanes` threads.
pub fn unit_cost(unit: &SliceUnit, lanes: usize, cfg: &AgathaConfig, cost: &CostModel) -> UnitCost {
    unit_cost_with(unit, lanes, cfg, cost, true)
}

/// Like [`unit_cost`] but optionally dropping all guided-alignment
/// bookkeeping (anti-diagonal max tracking and termination checks). The
/// Diff-Target baselines compute plain banded alignment, which keeps only a
/// running register maximum — no per-diagonal state, no GMB.
pub fn unit_cost_with(
    unit: &SliceUnit,
    lanes: usize,
    cfg: &AgathaConfig,
    cost: &CostModel,
    track_maxima: bool,
) -> UnitCost {
    debug_assert!(lanes >= 1);
    let mut steps = 0u64;
    let mut idle = 0u64;
    let mut mem = MemCounters::new();

    let mut boundary_blocks = 0u64; // blocks on chunk-boundary rows

    if cfg.sliced_diagonal {
        // Sliced-diagonal geometry (§4.2): successive chunks move down-left,
        // so a new chunk's dependencies come from the *previous slice* —
        // the stagger pipeline fills once per slice (depth = the base
        // subwarp size) and never drains between chunks. Merged subwarps
        // (§4.3) run as parallel pipelines over interleaved rows
        // (`__match_any_sync` keeps subwarp-local thread IDs).
        let p = cfg.subwarp_lanes.min(lanes).max(1);
        let mut lane_blocks = vec![0u64; lanes];
        for (r, &cols) in unit.row_cols.iter().enumerate() {
            lane_blocks[r % lanes] += cols as u64;
        }
        let max_blocks = lane_blocks.iter().copied().max().unwrap_or(0);
        // Adjacent slices overlap their fill/drain phases (the next slice's
        // first rows depend only on completed data); roughly half the
        // pipeline bubble remains for the boundary termination check.
        steps = max_blocks + (p as u64 - 1).div_ceil(2);
        for &b in &lane_blocks {
            idle += steps - b;
        }
        // All intermediate boundary exchange inside a slice stays in shared
        // memory; only the slice-edge west values go through global memory
        // (the "Additional Memory Access" of Fig. 5(c)).
        mem.global(AccessKind::Intermediate, GLOBAL_WEST_PER_ROW * unit.row_cols.len() as u64);
    } else {
        // Horizontal-only geometry (§2.2): a chunk's first row depends on
        // the row directly above (previous chunk's last row), so the
        // stagger pipeline drains and refills at every chunk boundary, and
        // the boundary rows' H/F cross through global memory.
        let mut first_chunk = true;
        for chunk in unit.row_cols.chunks(lanes) {
            let max_cols = chunk.iter().copied().max().unwrap_or(0) as u64;
            let chunk_steps = max_cols + chunk.len() as u64 - 1;
            steps += chunk_steps;
            for &c in chunk {
                idle += chunk_steps - c as u64;
            }
            idle += (lanes - chunk.len()) as u64 * chunk_steps;
            if !first_chunk {
                boundary_blocks += chunk.first().copied().unwrap_or(0) as u64;
            }
            boundary_blocks += chunk.last().copied().unwrap_or(0) as u64;
            first_chunk = false;
        }
        mem.global(AccessKind::Intermediate, GLOBAL_INTER_PER_BOUNDARY_BLOCK * boundary_blocks);
    }

    // ---- Lane-parallel per-step overheads --------------------------------
    // Work every lane performs inside its block — LMB updates in banked
    // shared memory, intra-chunk boundary exchange, its own packed-sequence
    // load — overlaps across lanes, so it costs *per lockstep step*, not
    // per block. This is exactly why merging subwarps (fewer steps) speeds
    // a slice up.
    let mut step_extra = SHARED_PER_BLOCK_INTER as f64 * cost.shared_cycles
        + SEQ_STEP_TX * cost.global_tx_cycles / SEQ_CACHE_DIVISOR as f64;
    // Traffic stats still count totals.
    mem.global(
        AccessKind::Sequence,
        (SEQ_TX_PER_BLOCK * unit.blocks + SEQ_TX_PER_ROW * unit.row_cols.len() as u64)
            / SEQ_CACHE_DIVISOR,
    );
    mem.shared(SHARED_PER_BLOCK_INTER * unit.blocks);

    // ---- Bandwidth-bound serial traffic ----------------------------------
    // Anti-diagonal max tracking and termination checks.
    let diags = unit.diags_completed as u64;
    let reduce_cost =
        if cost.has_warp_reduce { cost.reduce_cycles } else { cost.reduce_fallback_cycles };
    let mut serial_cycles = 0.0;
    if !track_maxima {
        // Plain banded alignment: running maximum stays in registers.
    } else if cfg.rolling_window {
        mem.shared(SHARED_PER_BLOCK_LMB * unit.blocks);
        step_extra += SHARED_PER_BLOCK_LMB as f64 * cost.shared_cycles;
        mem.reduce(diags);
        serial_cycles += diags as f64 * reduce_cost;
        if cfg.sliced_diagonal && unit.lmb_fits {
            // Whole window lives in shared memory: termination reads the
            // LMB/GMB copies there.
            mem.shared(diags);
            serial_cycles += diags as f64 * cost.shared_cycles;
        } else {
            // Window must spill completed rows to the GMB in global memory;
            // the termination test reads the GMB once per checkpoint.
            mem.global(AccessKind::AntiMax, diags);
            mem.global(AccessKind::Termination, 1);
            serial_cycles += (diags as f64 + 1.0) * cost.global_tx_cycles;
        }
    } else {
        // Per-cell updates of the diagonal max buffer in global memory:
        // partially coalesced, bandwidth-bound — the §3.1 bottleneck.
        mem.global(AccessKind::AntiMax, ANTI_TX_PER_BLOCK_NO_RW * unit.blocks);
        mem.global(AccessKind::Termination, 2 * diags);
        serial_cycles += (ANTI_TX_PER_BLOCK_NO_RW * unit.blocks) as f64 * cost.global_tx_cycles;
        serial_cycles += 2.0 * diags as f64 * cost.global_tx_cycles;
    }
    // Intermediate-value traffic (already counted in `mem` above).
    serial_cycles += (mem.global_inter as f64 / INTER_COALESCE as f64) * cost.global_tx_cycles;

    let mut cycles = cost.step_cycles(steps) + steps as f64 * step_extra + serial_cycles;
    if cfg.sliced_diagonal && !cfg.slice_width_uses_mask() {
        cycles += steps as f64 * MODULO_PENALTY_CYCLES;
    }
    UnitCost { cycles, steps, idle_lane_steps: idle, mem }
}

/// Total latency of a sequence of units at a fixed lane count.
pub fn units_cycles(
    units: &[SliceUnit],
    lanes: usize,
    cfg: &AgathaConfig,
    cost: &CostModel,
) -> f64 {
    units.iter().map(|u| unit_cost(u, lanes, cfg, cost).cycles).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agatha_gpu_sim::GpuSpec;

    fn cost() -> CostModel {
        CostModel::for_spec(&GpuSpec::rtx_a6000())
    }

    fn unit(rows: &[u32], diags: u32, fits: bool) -> SliceUnit {
        SliceUnit {
            row_cols: rows.to_vec(),
            blocks: rows.iter().map(|&c| c as u64).sum(),
            diags_completed: diags,
            lmb_fits: fits,
        }
    }

    #[test]
    fn more_lanes_fewer_steps() {
        let cfg = AgathaConfig::agatha();
        let u = unit(&[3; 32], 24, true);
        let c8 = unit_cost(&u, 8, &cfg, &cost());
        let c16 = unit_cost(&u, 16, &cfg, &cost());
        let c32 = unit_cost(&u, 32, &cfg, &cost());
        assert!(c16.steps < c8.steps);
        assert!(c32.steps < c16.steps);
        assert!(c32.cycles < c8.cycles);
    }

    #[test]
    fn lanes_beyond_rows_change_nothing() {
        // A slice with fewer rows than lanes cannot profit from merging —
        // the reason subwarp rejoining needs slices spanning many rows.
        let cfg = AgathaConfig::agatha();
        let u = unit(&[3; 6], 24, true);
        let c8 = unit_cost(&u, 8, &cfg, &cost());
        let c32 = unit_cost(&u, 32, &cfg, &cost());
        assert_eq!(c8.steps, c32.steps);
    }

    #[test]
    fn rolling_window_removes_global_anti_traffic() {
        let base = AgathaConfig::baseline();
        let rw = base.clone().with_rw(true);
        let u = unit(&[13; 8], 64, false);
        let no = unit_cost(&u, 8, &base, &cost());
        let yes = unit_cost(&u, 8, &rw, &cost());
        assert!(no.mem.global_anti > 3 * yes.mem.global_anti);
        assert!(yes.mem.shared > no.mem.shared);
        assert!(yes.cycles < no.cycles, "RW must be faster: {} vs {}", yes.cycles, no.cycles);
    }

    #[test]
    fn fitting_lmb_eliminates_spills() {
        let cfg = AgathaConfig::baseline().with_rw(true).with_sd(true);
        let fits = unit(&[3; 8], 24, true);
        let spills = unit(&[3; 8], 24, false);
        let a = unit_cost(&fits, 8, &cfg, &cost());
        let b = unit_cost(&spills, 8, &cfg, &cost());
        assert_eq!(a.mem.global_anti, 0);
        assert!(b.mem.global_anti > 0);
        assert!(a.cycles < b.cycles);
    }

    #[test]
    fn intermediate_traffic_by_mode() {
        let horizontal = AgathaConfig::baseline().with_rw(true);
        let sliced = horizontal.clone().with_sd(true);
        let u = unit(&[3; 8], 24, false);
        let h = unit_cost(&u, 8, &horizontal, &cost());
        let s = unit_cost(&u, 8, &sliced, &cost());
        // Horizontal pays per chunk-boundary block; sliced pays the per-row
        // slice-edge west values of Fig. 5(c).
        assert!(h.mem.global_inter > 0);
        assert_eq!(s.mem.global_inter, 2 * 8);
    }

    #[test]
    fn modulo_penalty_applies_off_mask_widths() {
        let cfg3 = AgathaConfig::agatha().with_slice_width(3);
        let cfg4 = AgathaConfig::agatha().with_slice_width(4);
        let u = unit(&[4; 8], 32, true);
        let a = unit_cost(&u, 8, &cfg3, &cost());
        let b = unit_cost(&u, 8, &cfg4, &cost());
        assert!(b.cycles > a.cycles);
    }

    #[test]
    fn stagger_idle_counted_sliced() {
        let cfg = AgathaConfig::agatha();
        // Sliced mode: 8 rows of 4 blocks on 8 lanes, half-overlapped fill:
        // steps = 4 + ceil(7/2) = 8; idle = 8 * (8 - 4).
        let u = unit(&[4; 8], 0, true);
        let c = unit_cost(&u, 8, &cfg, &cost());
        assert_eq!(c.steps, 8);
        assert_eq!(c.idle_lane_steps, 8 * 4);
    }

    #[test]
    fn stagger_idle_counted_horizontal() {
        let cfg = AgathaConfig::baseline();
        // Horizontal mode drains per chunk: steps = 4 + 7 = 11.
        let u = unit(&[4; 8], 0, false);
        let c = unit_cost(&u, 8, &cfg, &cost());
        assert_eq!(c.steps, 11);
        assert_eq!(c.idle_lane_steps, 8 * 7);
    }

    #[test]
    fn units_cycles_sums() {
        let cfg = AgathaConfig::agatha();
        let u = unit(&[3; 8], 24, true);
        let one = units_cycles(std::slice::from_ref(&u), 8, &cfg, &cost());
        let two = units_cycles(&[u.clone(), u], 8, &cfg, &cost());
        assert!((two - 2.0 * one).abs() < 1e-9);
    }
}
