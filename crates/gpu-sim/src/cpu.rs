//! CPU baseline model: Minimap2-style multithreaded alignment throughput.
//!
//! The paper's reference baseline is Minimap2 on a 16-core/32-thread EPYC
//! with SSE4.1 (§5.1), plus a stronger 48-core/96-thread AVX512 build of
//! mm2-fast (§5.8, [18]) that is 2.30× faster overall. The CPU executes
//! the identical guided algorithm; only its throughput model differs: reads
//! are distributed across threads (near-perfect balance at 50k reads per
//! batch), so CPU time is total reference cells over aggregate throughput.

/// Description of a CPU baseline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Human-readable name used in figure rows.
    pub name: &'static str,
    /// Hardware threads used.
    pub threads: u32,
    /// Sustained DP throughput per thread, in cells per nanosecond
    /// (calibrated; SIMD width is folded in).
    pub cells_per_ns_per_thread: f64,
}

impl CpuSpec {
    /// The default baseline: 16C/32T EPYC 7313P with SSE4.1 ksw2 kernels.
    pub fn sse4_16c32t() -> CpuSpec {
        CpuSpec { name: "16C32T SSE4", threads: 32, cells_per_ns_per_thread: 0.22 }
    }

    /// The stronger baseline: 2× Xeon Gold 6442Y (48C/96T) with AVX512
    /// mm2-fast kernels — calibrated to be 2.30× the default overall (§5.8).
    pub fn avx512_48c96t() -> CpuSpec {
        CpuSpec { name: "48C96T AVX512", threads: 96, cells_per_ns_per_thread: 0.169 }
    }

    /// Milliseconds to process `cells` DP cells across all threads.
    ///
    /// The CPU is modelled at full size while the GPU model is a
    /// `1/SIM_SCALE` device slice; the resulting constant offset is part of
    /// the one-time calibration (the constants of
    /// [`crate::CostModel::for_spec`]) that pins the AGAThA-vs-CPU headline
    /// to the paper's figure.
    pub fn ms_for_cells(&self, cells: u64) -> f64 {
        cells as f64 / (self.threads as f64 * self.cells_per_ns_per_thread) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stronger_cpu_is_about_2_3x() {
        let a = CpuSpec::sse4_16c32t();
        let b = CpuSpec::avx512_48c96t();
        let cells = 1_000_000_000u64;
        let ratio = a.ms_for_cells(cells) / b.ms_for_cells(cells);
        assert!((ratio - 2.30).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn time_scales_linearly_in_cells() {
        let c = CpuSpec::sse4_16c32t();
        assert!((c.ms_for_cells(2_000_000) - 2.0 * c.ms_for_cells(1_000_000)).abs() < 1e-9);
    }
}
