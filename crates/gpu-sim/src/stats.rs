//! Aggregate kernel statistics reported by engines alongside simulated time.

use crate::mem::MemCounters;

/// Execution statistics for one kernel launch (one dataset through one
/// engine). These power the ablation analyses (Fig. 9) and distribution
//  plots (Fig. 3b / Fig. 12).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Cells the *host* computed to obtain the results, in its own tiles,
    /// including its run-ahead and masked block padding. Host bookkeeping,
    /// not a simulated quantity: it varies with the host's fill plan.
    pub computed_cells: u64,
    /// Cells the *device* executes: its 8×8 blocks × [`crate::BLOCK_CELLS`],
    /// including run-ahead and masked block padding.
    pub device_cells: u64,
    /// Cells required by the reference semantics (sum over finalized
    /// anti-diagonals).
    pub reference_cells: u64,
    /// Lockstep block-steps executed (summed over subwarps).
    pub steps: u64,
    /// Block-steps in which a lane was idle due to stagger/divergence.
    pub idle_lane_steps: u64,
    /// Memory traffic.
    pub mem: MemCounters,
    /// Number of tasks that hit the Z-drop condition.
    pub zdropped_tasks: u64,
    /// Number of tasks processed.
    pub tasks: u64,
}

impl KernelStats {
    /// Zeroed stats.
    pub fn new() -> KernelStats {
        KernelStats::default()
    }

    /// Run-ahead overhead: cells the device executes beyond the reference
    /// requirement, as a fraction of reference cells.
    pub fn runahead_ratio(&self) -> f64 {
        if self.reference_cells == 0 {
            return 0.0;
        }
        self.device_cells.saturating_sub(self.reference_cells) as f64 / self.reference_cells as f64
    }

    /// Accumulate another scope's stats.
    pub fn add(&mut self, other: &KernelStats) {
        self.computed_cells += other.computed_cells;
        self.device_cells += other.device_cells;
        self.reference_cells += other.reference_cells;
        self.steps += other.steps;
        self.idle_lane_steps += other.idle_lane_steps;
        self.mem.add(&other.mem);
        self.zdropped_tasks += other.zdropped_tasks;
        self.tasks += other.tasks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runahead_ratio_zero_when_exact() {
        let s = KernelStats { device_cells: 100, reference_cells: 100, ..Default::default() };
        assert_eq!(s.runahead_ratio(), 0.0);
    }

    #[test]
    fn runahead_ratio_counts_overhead() {
        let s = KernelStats { device_cells: 150, reference_cells: 100, ..Default::default() };
        assert!((s.runahead_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_accumulates() {
        let mut a =
            KernelStats { computed_cells: 1, device_cells: 4, tasks: 1, ..Default::default() };
        let b =
            KernelStats { computed_cells: 2, zdropped_tasks: 1, tasks: 1, ..Default::default() };
        a.add(&b);
        assert_eq!(a.computed_cells, 3);
        assert_eq!(a.device_cells, 4);
        assert_eq!(a.tasks, 2);
        assert_eq!(a.zdropped_tasks, 1);
    }
}
