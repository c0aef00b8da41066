//! The calibrated cost model.
//!
//! Latency of an execution scope follows the paper's Table 1 decomposition:
//! a compute term proportional to lockstep block-steps and a memory term
//! proportional to category-weighted transactions. The constants below were
//! calibrated once against the paper's headline ratios and are frozen; every
//! figure of the scorecard (`agatha_bench::scorecard`) uses the same numbers.

use crate::mem::MemCounters;
use crate::spec::GpuSpec;
use crate::BLOCK_CELLS;

/// Tunable throughput/latency constants, paired with a [`GpuSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Compute cycles per DP cell per lane (`1/Comp.TP`).
    pub cell_cycles: f64,
    /// Amortised cycles per coalesced global transaction (`1/Mem.TP`).
    pub global_tx_cycles: f64,
    /// Cycles per shared-memory access.
    pub shared_cycles: f64,
    /// Cycles per warp max-reduction (with hardware support).
    pub reduce_cycles: f64,
    /// Cycles per warp reduction emulated through shared memory (pre-Ampere
    /// fallback, §5.8).
    pub reduce_fallback_cycles: f64,
    /// Per-lockstep-step synchronisation overhead.
    pub sync_cycles: f64,
    /// Multiplier on `cell_cycles` when DPX instructions fuse the max
    /// operations (§6: DPX accelerates the compute term only).
    pub dpx_speedup: f64,
    /// Whether warp reductions use the hardware path.
    pub has_warp_reduce: bool,
    /// Whether DPX is enabled.
    pub use_dpx: bool,
}

impl CostModel {
    /// Build the calibrated model for a device.
    pub fn for_spec(spec: &GpuSpec) -> CostModel {
        CostModel {
            cell_cycles: 0.5,
            global_tx_cycles: 40.0,
            shared_cycles: 0.25,
            reduce_cycles: 5.0,
            reduce_fallback_cycles: 20.0,
            sync_cycles: 4.0,
            dpx_speedup: 2.2,
            has_warp_reduce: spec.has_warp_reduce,
            use_dpx: spec.has_dpx,
        }
    }

    /// Effective cycles per cell after DPX.
    #[inline]
    pub fn effective_cell_cycles(&self) -> f64 {
        if self.use_dpx {
            self.cell_cycles / self.dpx_speedup
        } else {
            self.cell_cycles
        }
    }

    /// Compute-side cycles for `steps` lockstep block-steps (each lane
    /// computes one 8×8 block per step; lanes run in parallel, so a step
    /// costs one block regardless of subwarp width).
    #[inline]
    pub fn step_cycles(&self, steps: u64) -> f64 {
        steps as f64 * (BLOCK_CELLS as f64 * self.effective_cell_cycles() + self.sync_cycles)
    }

    /// Memory-side cycles for a set of counted transactions.
    #[inline]
    pub fn mem_cycles(&self, mem: &MemCounters) -> f64 {
        let reduce_cost =
            if self.has_warp_reduce { self.reduce_cycles } else { self.reduce_fallback_cycles };
        mem.global_total() as f64 * self.global_tx_cycles
            + mem.shared as f64 * self.shared_cycles
            + mem.reduce as f64 * reduce_cost
    }

    /// Total scope latency: compute plus memory (the additive Table 1 form;
    /// overlap is folded into the calibrated constants).
    #[inline]
    pub fn scope_cycles(&self, steps: u64, mem: &MemCounters) -> f64 {
        self.step_cycles(steps) + self.mem_cycles(mem)
    }

    /// Cycles for a purely sequential engine processing `cells` cells on a
    /// single lane with `per_cell_global_tx` global transactions per cell
    /// (the inter-query-parallel baselines).
    #[inline]
    pub fn sequential_cycles(&self, cells: u64, global_tx: u64) -> f64 {
        cells as f64 * self.effective_cell_cycles() * SEQUENTIAL_LANE_PENALTY
            + global_tx as f64 * self.global_tx_cycles
    }
}

/// Single-lane sequential processing is slower per cell than lockstep block
/// processing: no register tiling across an 8-wide row, more instruction
/// overhead per cell. Calibrated once.
pub const SEQUENTIAL_LANE_PENALTY: f64 = 3.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AccessKind;

    fn model() -> CostModel {
        CostModel::for_spec(&GpuSpec::rtx_a6000())
    }

    #[test]
    fn steps_scale_linearly() {
        let m = model();
        let one = m.step_cycles(1);
        assert!((m.step_cycles(10) - 10.0 * one).abs() < 1e-9);
        assert!(one > 0.0);
    }

    #[test]
    fn global_dominates_shared() {
        let m = model();
        let mut g = MemCounters::new();
        g.global(AccessKind::AntiMax, 100);
        let mut s = MemCounters::new();
        s.shared(100);
        assert!(m.mem_cycles(&g) > 10.0 * m.mem_cycles(&s));
    }

    #[test]
    fn reduce_fallback_costs_more() {
        let with = CostModel::for_spec(&GpuSpec::rtx_a6000());
        let without = CostModel::for_spec(&GpuSpec::rtx_2080ti());
        let mut mem = MemCounters::new();
        mem.reduce(10);
        assert!(without.mem_cycles(&mem) > with.mem_cycles(&mem));
    }

    #[test]
    fn dpx_reduces_compute_only() {
        let base = model();
        let dpx = CostModel { use_dpx: true, ..base.clone() };
        assert!(dpx.step_cycles(100) < base.step_cycles(100));
        let mut mem = MemCounters::new();
        mem.global(AccessKind::Intermediate, 50);
        assert_eq!(dpx.mem_cycles(&mem), base.mem_cycles(&mem));
    }

    #[test]
    fn scope_is_additive() {
        let m = model();
        let mut mem = MemCounters::new();
        mem.shared(40);
        mem.global(AccessKind::Sequence, 2);
        let total = m.scope_cycles(3, &mem);
        assert!((total - m.step_cycles(3) - m.mem_cycles(&mem)).abs() < 1e-9);
    }
}
