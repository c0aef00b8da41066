//! Kernel configuration and feature toggles.
//!
//! [`AgathaConfig`] is the one execution plan: every fill decision (mode,
//! backend) is a field carried by value from the caller through
//! [`crate::Pipeline`] into the kernel, and the host tile follows from the
//! backend per task ([`AgathaConfig::block_dim_for`]). Nothing here reads
//! the environment or process-wide state; the CLI flags are the only way
//! to ask for something other than the defaults.

use agatha_align::block::{BlockDim, FillPrecision};
use agatha_align::simd::BackendChoice;
use agatha_align::BLOCK;
use agatha_gpu_sim::WARP_LANES;

use crate::bucketing::OrderingStrategy;

// The three constant `default_*` functions below survive only because the
// frozen `benchmark/src/measure.rs` imports them for its host block; the
// next `[benchmark]` issue deletes them.

/// The one [`FillPrecision`].
pub fn default_fill_precision() -> FillPrecision {
    FillPrecision::Auto
}

/// The one [`BlockDim`].
pub fn default_block_dim() -> BlockDim {
    BlockDim::Auto
}

/// The prefetch depth `agatha align` streams its FASTA input at: two parsed
/// chunks queued ahead of execution (one being parsed by the reader, one
/// ready), enough to hide FASTA parsing behind the kernel without hoarding
/// memory.
pub const DEFAULT_PREFETCH_DEPTH: usize = 2;

/// Default streaming prefetch depth: [`DEFAULT_PREFETCH_DEPTH`].
pub fn default_prefetch_depth() -> usize {
    DEFAULT_PREFETCH_DEPTH
}

/// Configuration of the AGAThA kernel. Every §4 technique can be toggled
/// independently so the ablation study (Fig. 9) and the sensitivity studies
/// (Fig. 10 slice width, Fig. 14 subwarp size) are all expressible. The
/// host block side is not a field: it follows the backend and each task's
/// i16 gate ([`AgathaConfig::block_dim_for`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AgathaConfig {
    /// Threads per subwarp (8 in the final design; Fig. 14 sweeps 8/16/32).
    pub subwarp_lanes: usize,
    /// Slice width `s` in blocks (3 in the final design; Fig. 10 sweeps
    /// 1..128). Only meaningful with `sliced_diagonal`.
    pub slice_width: usize,
    /// §4.1 rolling window: track anti-diagonal maxima in shared memory
    /// (LMB) instead of per-cell global-memory updates.
    pub rolling_window: bool,
    /// §4.2 sliced diagonal tiling; when `false` the kernel degrades to the
    /// horizontal-only chunk sweep ("when `s` is larger than the band width,
    /// the sliced diagonal kernel reduces to the baseline kernel").
    pub sliced_diagonal: bool,
    /// §4.3 subwarp rejoining (intra-warp work stealing at slice
    /// boundaries).
    pub subwarp_rejoining: bool,
    /// The order the chunk packer assigns tasks to warps in: §4.4 uneven
    /// bucketing (inter-warp workload balancing) in the final design,
    /// incoming order in the baseline, or the §5.6 sorted comparison
    /// (Figs. 11–13). A comparator engine takes its tasks in incoming order
    /// whatever this says ([`crate::Pipeline::default_strategy`]).
    pub ordering: OrderingStrategy,
    /// Task-queue depth per subwarp slot: how many alignment "generations"
    /// a warp processes (Fig. 6 shows two).
    pub tasks_per_subwarp: usize,
    /// Host-side block fill implementation: `true` (the default) selects
    /// the vectorised anti-diagonal wavefront
    /// ([`agatha_align::block::FillMode::Simd`]), `false` the scalar
    /// row-major reference fill. Both are bit-identical; this only changes
    /// host wall-time, never results or cost accounting.
    pub simd_fill: bool,
    /// Shell with one value: kept only because the frozen `benchmark/`
    /// reads the field; the next `[benchmark]` issue deletes it.
    pub fill_precision: FillPrecision,
    /// Wavefront backend for the host-side fill and fold: `Auto` runs the
    /// best implementation the CPU supports, `Fixed(b)` caps the dispatch
    /// at `b` (clamped to what the CPU has). Resolved once per task; every
    /// backend is bit-identical, and the host block side follows the
    /// resolved backend ([`AgathaConfig::block_dim_for`]). Defaults to
    /// `Auto`.
    pub backend: BackendChoice,
}

/// Most subwarps one warp holds: subwarps of 8, 16 or 32 lanes. A rejoined
/// group is a whole number of subwarps, so the device trace prices each unit
/// at this many lane counts at most ([`crate::trace::SliceUnit`]).
pub const MAX_SUBWARPS: usize = 4;

/// LMB capacity per subwarp in anti-diagonal rows
/// ([`AgathaConfig::slice_fits_lmb`]): when a slice's span fits, no global
/// spilling is needed (§4.2). 64 corresponds to `3 × block_size` rows per
/// lane of a 100 KiB-SM budget.
const LMB_MAX_DIAGS: usize = 64;

impl AgathaConfig {
    /// The naive exact baseline of the ablation study: guided algorithm on
    /// the SALoBa-style design with none of the §4 techniques.
    pub fn baseline() -> AgathaConfig {
        AgathaConfig {
            subwarp_lanes: 8,
            slice_width: 3,
            rolling_window: false,
            sliced_diagonal: false,
            subwarp_rejoining: false,
            ordering: OrderingStrategy::Original,
            tasks_per_subwarp: 2,
            simd_fill: true,
            fill_precision: FillPrecision::Auto,
            backend: BackendChoice::Auto,
        }
    }

    /// Full AGAThA: all four techniques on, slice width 3, subwarp 8.
    pub fn agatha() -> AgathaConfig {
        AgathaConfig {
            rolling_window: true,
            sliced_diagonal: true,
            subwarp_rejoining: true,
            ordering: OrderingStrategy::UnevenBucketing,
            ..AgathaConfig::baseline()
        }
    }

    /// Ablation step `+RW`.
    pub fn with_rw(mut self, on: bool) -> AgathaConfig {
        self.rolling_window = on;
        self
    }

    /// Ablation step `+SD`.
    pub fn with_sd(mut self, on: bool) -> AgathaConfig {
        self.sliced_diagonal = on;
        self
    }

    /// Ablation step `+SR`.
    pub fn with_sr(mut self, on: bool) -> AgathaConfig {
        self.subwarp_rejoining = on;
        self
    }

    /// Set the task ordering: ablation step `+UB` is `UnevenBucketing`,
    /// and Figs. 11–13 compare all three.
    pub fn with_ordering(mut self, ordering: OrderingStrategy) -> AgathaConfig {
        self.ordering = ordering;
        self
    }

    /// Set the slice width (Fig. 10).
    pub fn with_slice_width(mut self, s: usize) -> AgathaConfig {
        assert!(s >= 1);
        self.slice_width = s;
        self
    }

    /// Select the block fill implementation (SIMD wavefront vs the scalar
    /// reference). Results are bit-identical either way; the tests use this
    /// to reach the scalar fill.
    pub fn with_simd_fill(mut self, on: bool) -> AgathaConfig {
        self.simd_fill = on;
        self
    }

    /// The [`agatha_align::block::FillMode`] this configuration selects.
    #[inline]
    pub fn fill_mode(&self) -> agatha_align::block::FillMode {
        if self.simd_fill {
            agatha_align::block::FillMode::Simd
        } else {
            agatha_align::block::FillMode::Scalar
        }
    }

    /// Cap the wavefront backend (mirrors
    /// [`AgathaConfig::with_simd_fill`]). Results are bit-identical across
    /// every backend; sweeps and the CLI `--backend` flag use this to pin a
    /// level per run — and with it the host tile (`sse41` runs 8×8).
    pub fn with_backend(mut self, backend: BackendChoice) -> AgathaConfig {
        self.backend = backend;
        self
    }

    /// The fill tier this configuration resolves to for an `n × m` task —
    /// the same per-task decision [`crate::kernel::run_task_ws`] makes, so
    /// callers (CLI `--verbose` stats, benches) can observe demotions to the
    /// scalar fill without instrumenting the kernel output.
    #[inline]
    pub fn fill_tier_for(
        &self,
        n: usize,
        m: usize,
        scoring: &agatha_align::Scoring,
    ) -> agatha_align::block::FillTier {
        let b = self.block_dim_for(n, m, scoring);
        agatha_align::block::BlockCtx::with_block_dim(n, m, scoring, b)
            .fill_tier(self.fill_mode(), self.fill_precision)
    }

    /// The block side this configuration resolves to for an `n × m` task —
    /// [`agatha_align::block::BlockCtx::geometry_for`] on the resolved
    /// backend, the exact per-task decision [`crate::kernel::run_task_ws`]
    /// makes.
    #[inline]
    pub fn block_dim_for(&self, n: usize, m: usize, scoring: &agatha_align::Scoring) -> usize {
        agatha_align::block::BlockCtx::geometry_for(n, m, scoring, self.backend.resolve())
    }

    /// Set the subwarp size (Fig. 14 sweeps 8, 16 and 32).
    ///
    /// # Panics
    ///
    /// Unless `lanes` divides the warp into at most [`MAX_SUBWARPS`]
    /// subwarps.
    pub fn with_subwarp(mut self, lanes: usize) -> AgathaConfig {
        assert!(
            (WARP_LANES / MAX_SUBWARPS..=WARP_LANES).contains(&lanes)
                && WARP_LANES.is_multiple_of(lanes),
            "subwarp must divide the warp into at most {MAX_SUBWARPS} subwarps"
        );
        self.subwarp_lanes = lanes;
        self
    }

    /// Subwarps per warp (`N` in §4.4).
    #[inline]
    pub fn subwarps_per_warp(&self) -> usize {
        WARP_LANES / self.subwarp_lanes
    }

    /// Whether a slice's anti-diagonal span (`slice_width` blocks of the
    /// device's 8×8 geometry, plus one block's own diagonals) fits the LMB,
    /// eliminating global spilling (§4.2). Horizontal chunks never fit.
    #[inline]
    pub fn slice_fits_lmb(&self) -> bool {
        self.sliced_diagonal && BLOCK * self.slice_width + BLOCK - 1 <= LMB_MAX_DIAGS
    }

    /// Whether slice widths allow replacing modulo by bitwise-and in the
    /// window indexing ("it is possible to use bitwise & operation with
    /// these widths instead of modulo", §5.5 — widths 3 and 7, i.e. one
    /// less than a power of two).
    #[inline]
    pub fn slice_width_uses_mask(&self) -> bool {
        (self.slice_width + 1).is_power_of_two()
    }
}

impl Default for AgathaConfig {
    fn default() -> AgathaConfig {
        AgathaConfig::agatha()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_parse() {
        use agatha_align::simd::WavefrontBackend;
        assert_eq!(BackendChoice::parse("auto"), Ok(BackendChoice::Auto));
        assert_eq!(
            BackendChoice::parse("AVX512"),
            Ok(BackendChoice::Fixed(WavefrontBackend::Avx512))
        );
        assert_eq!(BackendChoice::parse("avx2"), Ok(BackendChoice::Fixed(WavefrontBackend::Avx2)));
        assert_eq!(
            BackendChoice::parse(" sse41 "),
            Ok(BackendChoice::Fixed(WavefrontBackend::Sse41))
        );
        assert_eq!(
            BackendChoice::parse("portable"),
            Ok(BackendChoice::Fixed(WavefrontBackend::Portable))
        );
        let err = BackendChoice::parse("neon").unwrap_err();
        assert!(err.contains("'neon'") && err.contains("auto"), "{err}");
    }

    #[test]
    fn backend_cap_never_raises_the_level() {
        use agatha_align::simd::WavefrontBackend::{Avx2, Avx512, Portable, Sse41};
        // The clamp is pure, so the whole table is checkable on any host.
        for available in [Avx512, Avx2, Sse41, Portable] {
            assert_eq!(BackendChoice::Auto.cap(available), available);
            assert_eq!(BackendChoice::Fixed(Portable).cap(available), Portable);
            assert_eq!(BackendChoice::Fixed(Avx512).cap(available), available);
        }
        assert_eq!(BackendChoice::Fixed(Sse41).cap(Avx2), Sse41);
        assert_eq!(BackendChoice::Fixed(Avx2).cap(Sse41), Sse41);
        // On this machine: `Auto` is the detected backend, `portable` always
        // resolves to itself, and the config carries the choice by value.
        assert_eq!(BackendChoice::Auto.resolve(), agatha_align::simd::detected_backend());
        let cfg = AgathaConfig::agatha().with_backend(BackendChoice::Fixed(Portable));
        assert_eq!(cfg.backend.resolve(), Portable);
        assert_eq!(AgathaConfig::agatha().backend, BackendChoice::Auto);
        // What a task dispatches with is a proof, and a proof only lowers: a
        // plan capped above the host (`avx512` on a lesser CPU, any vector
        // level under Miri) runs a level detection found, and the one the
        // pure clamp names.
        let s = agatha_align::Scoring::preset_bwa();
        let supported = agatha_align::simd::supported_backends();
        for forced in [Avx512, Avx2, Sse41, Portable] {
            let choice = BackendChoice::Fixed(forced);
            let ctx = agatha_align::block::BlockCtx::new(240, 240, &s).with_backend(choice);
            assert!(supported.contains(&ctx.backend()), "{forced:?} ran {:?}", ctx.backend());
            assert_eq!(ctx.backend(), choice.resolve());
        }
    }

    #[test]
    fn default_plan_runs_the_i16_wavefront() {
        // The default build is the vectorised build: no feature, no flag.
        use agatha_align::block::{default_fill_mode, FillMode, FillTier};
        let s = agatha_align::Scoring::preset_bwa();
        let cfg = AgathaConfig::agatha();
        assert!(cfg.simd_fill);
        assert_eq!(cfg.fill_mode(), FillMode::Simd);
        assert_eq!(default_fill_mode(), FillMode::Simd);
        assert_eq!(cfg.fill_tier_for(240, 240, &s), FillTier::I16);
        assert_eq!(cfg.with_simd_fill(false).fill_tier_for(240, 240, &s), FillTier::Scalar);
    }

    #[test]
    fn defaults_match_paper() {
        let c = AgathaConfig::agatha();
        assert_eq!(c.subwarp_lanes, 8);
        assert_eq!(c.slice_width, 3);
        assert!(c.rolling_window && c.sliced_diagonal);
        assert!(c.subwarp_rejoining && c.ordering == OrderingStrategy::UnevenBucketing);
        assert_eq!(c.subwarps_per_warp(), 4);
    }

    #[test]
    fn mask_widths() {
        assert!(AgathaConfig::agatha().with_slice_width(3).slice_width_uses_mask());
        assert!(AgathaConfig::agatha().with_slice_width(7).slice_width_uses_mask());
        assert!(!AgathaConfig::agatha().with_slice_width(4).slice_width_uses_mask());
        assert!(!AgathaConfig::agatha().with_slice_width(5).slice_width_uses_mask());
    }

    #[test]
    #[should_panic(expected = "divide the warp")]
    fn bad_subwarp_rejected() {
        let _ = AgathaConfig::agatha().with_subwarp(12);
    }

    #[test]
    fn ablation_chain() {
        let c = AgathaConfig::baseline().with_rw(true).with_sd(true);
        assert!(c.rolling_window && c.sliced_diagonal);
        assert!(!c.subwarp_rejoining && c.ordering == OrderingStrategy::Original);
    }

    #[test]
    fn block_dim_names_parse() {
        // The shell's one name, which the frozen benchmark records.
        assert_eq!(default_block_dim(), BlockDim::Auto);
        assert_eq!(default_block_dim().name(), "auto");
    }

    #[test]
    fn block_dim_resolution_is_per_task() {
        use agatha_align::block::FillTier;
        use agatha_align::simd::WavefrontBackend::{Avx512, Portable, Sse41};
        use agatha_align::{BLOCK, MAX_BLOCK, MAX_STRIP};
        let s = agatha_align::Scoring::preset_bwa();
        // Match 80: inside the i16 gate at 8×8 only.
        let window = agatha_align::Scoring::new(80, 4, 4, 2, 400, 400);
        let cfg = AgathaConfig::agatha();
        // The tile follows the backend the plan carries — `portable` widens
        // to 16 on every host, `avx512` to 32, `sse41` never — and not the
        // fill mode or the shape.
        let wide = match agatha_align::simd::detected_backend() {
            Sse41 => BLOCK,
            Avx512 => MAX_STRIP,
            _ => MAX_BLOCK,
        };
        for plan in [cfg.clone(), cfg.clone().with_simd_fill(false)] {
            assert_eq!(plan.block_dim_for(240, 240, &s), wide);
            assert_eq!(plan.block_dim_for(16, 16, &s), wide);
        }
        let portable = cfg.clone().with_backend(BackendChoice::Fixed(Portable));
        assert_eq!(portable.block_dim_for(240, 240, &s), MAX_BLOCK);
        if agatha_align::simd::supported_backends().contains(&Sse41) {
            let sse41 = cfg.clone().with_backend(BackendChoice::Fixed(Sse41));
            assert_eq!(sse41.block_dim_for(240, 240, &s), BLOCK);
        }
        // Per task: a scoring inside the gate at 8 only tiles 8×8 on every
        // backend, and the tier resolver, asking the same rule, keeps it on
        // the wavefront.
        for plan in [cfg.clone(), portable] {
            assert_eq!(plan.block_dim_for(240, 240, &window), BLOCK);
            assert_eq!(plan.fill_tier_for(240, 240, &window), FillTier::I16);
            assert_eq!(plan.fill_tier_for(240, 240, &s), FillTier::I16);
        }
    }

    #[test]
    fn fill_tier_resolution_demotes_per_task() {
        use agatha_align::block::FillTier;
        let s = agatha_align::Scoring::preset_bwa();
        let cfg = AgathaConfig::agatha().with_simd_fill(true);
        // The i16 gate bounds the score spread inside one block, so 240 bp
        // and 4 kb reads both run it; the same reads under a scoring whose
        // block spread leaves the i16 offset range demote to the scalar
        // fill.
        let hot = agatha_align::Scoring::new(300, 4, 6, 1, 100, 100);
        for len in [240, 4000] {
            assert_eq!(cfg.fill_tier_for(len, len, &s), FillTier::I16);
            assert_eq!(cfg.fill_tier_for(len, len, &hot), FillTier::Scalar);
        }
        let scalar = cfg.with_simd_fill(false);
        assert_eq!(scalar.fill_tier_for(240, 240, &s), FillTier::Scalar);
    }
}
