//! Kernel configuration and feature toggles.

use std::sync::OnceLock;

use agatha_align::block::{BlockDim, FillPrecision};
use agatha_gpu_sim::WARP_LANES;

/// The one shared reader for `AGATHA_*` process-default overrides: unset →
/// `default`, set → `parse`d value, unparseable (garbage, empty) → a loud
/// panic naming the variable, rather than silently running the wrong
/// configuration. Every env-driven default below goes through here so the
/// unset/garbage semantics cannot drift between variables.
fn env_override<T>(name: &str, default: T, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => parse(&v).unwrap_or_else(|e| panic!("{name} environment override: {e}")),
    }
}

/// Process-default [`FillPrecision`]: the `AGATHA_PRECISION` environment
/// variable (`auto` | `i32` | `i16`) when set, else `Auto`. This is how CI
/// forces the whole test suite through one precision tier without touching
/// every construction site.
pub fn default_fill_precision() -> FillPrecision {
    static CACHE: OnceLock<FillPrecision> = OnceLock::new();
    *CACHE
        .get_or_init(|| env_override("AGATHA_PRECISION", FillPrecision::Auto, FillPrecision::parse))
}

/// Process-default [`BlockDim`]: the `AGATHA_BLOCK` environment variable
/// (`auto` | `8` | `16`) when set, else `Auto` — the geometry analogue of
/// [`default_fill_precision`], and the lever CI uses to force the whole
/// suite through one block geometry.
pub fn default_block_dim() -> BlockDim {
    static CACHE: OnceLock<BlockDim> = OnceLock::new();
    *CACHE.get_or_init(|| env_override("AGATHA_BLOCK", BlockDim::Auto, BlockDim::parse))
}

/// Process-default wavefront backend: the `AGATHA_BACKEND` environment
/// variable (`auto` | `avx512` | `avx2` | `sse41` | `portable`) when set,
/// else `Auto`. Unlike precision and geometry the backend is not a config
/// field — it lives in a process-wide selector inside the align crate — so
/// the first call also installs the parsed choice there via
/// [`agatha_align::simd::set_backend_choice`]. Callers that want a *flag*
/// to take precedence over the environment (the CLI `--backend`) must call
/// this first and then install their own choice on top, which is exactly
/// the env < flag precedence the CLI documents.
pub fn default_backend_choice() -> agatha_align::simd::BackendChoice {
    static CACHE: OnceLock<agatha_align::simd::BackendChoice> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let choice = env_override(
            "AGATHA_BACKEND",
            agatha_align::simd::BackendChoice::Auto,
            agatha_align::simd::BackendChoice::parse,
        );
        agatha_align::simd::set_backend_choice(choice);
        choice
    })
}

/// Prefetch depth used when neither `--prefetch` nor `AGATHA_PREFETCH` is
/// given: two parsed chunks queued ahead of execution (one being parsed by
/// the reader, one ready), enough to hide FASTA parsing behind the kernel
/// without hoarding memory.
pub const DEFAULT_PREFETCH_DEPTH: usize = 2;

/// Validate one `AGATHA_PREFETCH` value: a chunk count (`0` disables the
/// reader thread and streams synchronously).
fn parse_prefetch_depth(v: &str) -> Result<usize, String> {
    v.trim().parse::<usize>().map_err(|_| {
        format!("invalid prefetch depth '{v}' (expected 0 to disable, or a chunk count)")
    })
}

/// Process-default streaming prefetch depth: the `AGATHA_PREFETCH`
/// environment variable when set (`0` = disabled, `N` = at most `N` parsed
/// chunks queued ahead of kernel execution), else
/// [`DEFAULT_PREFETCH_DEPTH`]. CI uses it to run the tier-1 suite with the
/// prefetch stage forced off and on; explicit `--prefetch` flags take
/// precedence at the CLI layer.
pub fn default_prefetch_depth() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        env_override("AGATHA_PREFETCH", DEFAULT_PREFETCH_DEPTH, parse_prefetch_depth)
    })
}

/// Validate one `AGATHA_SCENARIO` value: names must be non-empty after
/// trimming. Resolution against the scenario registry happens at the
/// consumer (the CLI / benches own the registry); this layer only rejects
/// values that cannot possibly name a scenario.
fn parse_scenario_name(v: &str) -> Result<Option<String>, String> {
    let name = v.trim();
    if name.is_empty() {
        Err("empty scenario name".to_string())
    } else {
        Ok(Some(name.to_string()))
    }
}

/// Process-default scenario name: the `AGATHA_SCENARIO` environment
/// variable when set, else `None`. The workload analogue of
/// [`default_fill_precision`] / [`default_block_dim`]: CI's scenario matrix
/// exports it once per job instead of threading `--scenario` through every
/// invocation.
pub fn default_scenario() -> Option<&'static str> {
    static CACHE: OnceLock<Option<String>> = OnceLock::new();
    CACHE.get_or_init(|| env_override("AGATHA_SCENARIO", None, parse_scenario_name)).as_deref()
}

/// Configuration of the AGAThA kernel. Every §4 technique can be toggled
/// independently so the ablation study (Fig. 9) and the sensitivity studies
/// (Fig. 10 slice width, Fig. 14 subwarp size) are all expressible.
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
    /// §4.4 uneven bucketing (inter-warp workload balancing).
    pub uneven_bucketing: bool,
    /// Task-queue depth per subwarp slot: how many alignment "generations"
    /// a warp processes (Fig. 6 shows two).
    pub tasks_per_subwarp: usize,
    /// LMB capacity per subwarp in anti-diagonal rows. When a slice's span
    /// fits, no global spilling is needed (§4.2); the default corresponds
    /// to `3 × block_size` rows per lane of a 100 KiB-SM budget.
    pub lmb_max_diags: usize,
    /// Model Hopper DPX instructions (§6 discussion).
    pub use_dpx: bool,
    /// Host-side block fill implementation: `true` selects the vectorised
    /// anti-diagonal wavefront ([`agatha_align::block::FillMode::Simd`]),
    /// `false` the scalar row-major fill. Both are bit-identical; this only
    /// changes host wall-time, never results or cost accounting. Defaults
    /// to the build-time `simd` cargo feature.
    pub simd_fill: bool,
    /// Lane precision preferred by the wavefront fill (ignored when
    /// `simd_fill` is off): `Auto`/`I16` run the 16-bit wavefront on every
    /// task whose [`agatha_align::block::BlockCtx::i16_exact`] gate proves
    /// it bit-identical, demoting to the i32 wavefront (or scalar)
    /// otherwise; `I32` never uses the i16 tier. Like `simd_fill`, this
    /// changes host wall-time only — results and cost accounting are
    /// bit-identical across all tiers. Defaults to the `AGATHA_PRECISION`
    /// environment override, else `Auto`.
    pub fill_precision: FillPrecision,
    /// Block geometry for the host-side fill: `Auto` resolves the block
    /// side per task ([`agatha_align::block::BlockCtx::geometry_for`] picks
    /// 16×16 when the task amortizes the wider staging, else the paper's
    /// 8×8), `B8`/`B16` force one side. Orthogonal to `fill_precision`:
    /// geometry picks the tiling, precision the lane width within it, and
    /// every (geometry × precision) pair is bit-identical. Defaults to the
    /// `AGATHA_BLOCK` environment override, else `Auto`.
    pub block_dim: BlockDim,
}

impl AgathaConfig {
    /// The naive exact baseline of the ablation study: guided algorithm on
    /// the SALoBa-style design with none of the §4 techniques.
    pub fn baseline() -> AgathaConfig {
        // The backend selector is process-wide, not a config field; touching
        // it here makes every config construction site honour AGATHA_BACKEND
        // without threading a value through.
        let _ = default_backend_choice();
        AgathaConfig {
            subwarp_lanes: 8,
            slice_width: 3,
            rolling_window: false,
            sliced_diagonal: false,
            subwarp_rejoining: false,
            uneven_bucketing: false,
            tasks_per_subwarp: 2,
            lmb_max_diags: 64,
            use_dpx: false,
            simd_fill: cfg!(feature = "simd"),
            fill_precision: default_fill_precision(),
            block_dim: default_block_dim(),
        }
    }

    /// Full AGAThA: all four techniques on, slice width 3, subwarp 8.
    pub fn agatha() -> AgathaConfig {
        AgathaConfig {
            rolling_window: true,
            sliced_diagonal: true,
            subwarp_rejoining: true,
            uneven_bucketing: true,
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

    /// Ablation step `+UB`.
    pub fn with_ub(mut self, on: bool) -> AgathaConfig {
        self.uneven_bucketing = on;
        self
    }

    /// Set the slice width (Fig. 10).
    pub fn with_slice_width(mut self, s: usize) -> AgathaConfig {
        assert!(s >= 1);
        self.slice_width = s;
        self
    }

    /// Select the block fill implementation (SIMD wavefront vs scalar).
    /// Results are bit-identical either way; benchmarks use this to measure
    /// both paths from one binary.
    pub fn with_simd_fill(mut self, on: bool) -> AgathaConfig {
        self.simd_fill = on;
        self
    }

    /// Select the wavefront lane precision (mirrors
    /// [`AgathaConfig::with_simd_fill`]). Results are bit-identical across
    /// every precision; benchmarks and the CLI `--precision` flag use this
    /// to pin a tier per run.
    pub fn with_fill_precision(mut self, precision: FillPrecision) -> AgathaConfig {
        self.fill_precision = precision;
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

    /// Select the block geometry (mirrors
    /// [`AgathaConfig::with_fill_precision`]). Results are bit-identical
    /// across every geometry; benchmarks and the CLI `--block` flag use
    /// this to pin a side per run.
    pub fn with_block_dim(mut self, block_dim: BlockDim) -> AgathaConfig {
        self.block_dim = block_dim;
        self
    }

    /// The fill tier this configuration resolves to for an `n × m` task —
    /// the same per-task decision [`crate::kernel::run_task_ws`] makes, so
    /// callers (CLI `--verbose` stats, benches) can observe i16 demotions
    /// without instrumenting the kernel output.
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
    /// the geometry analogue of [`AgathaConfig::fill_tier_for`], again the
    /// exact per-task decision [`crate::kernel::run_task_ws`] makes.
    #[inline]
    pub fn block_dim_for(&self, n: usize, m: usize, scoring: &agatha_align::Scoring) -> usize {
        self.block_dim.resolve(n, m, scoring, self.fill_mode(), self.fill_precision)
    }

    /// Set the subwarp size (Fig. 14).
    pub fn with_subwarp(mut self, lanes: usize) -> AgathaConfig {
        assert!(
            (1..=WARP_LANES).contains(&lanes) && WARP_LANES.is_multiple_of(lanes),
            "subwarp must divide the warp"
        );
        self.subwarp_lanes = lanes;
        self
    }

    /// Subwarps per warp (`N` in §4.4).
    #[inline]
    pub fn subwarps_per_warp(&self) -> usize {
        WARP_LANES / self.subwarp_lanes
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
    fn env_override_unset_returns_default() {
        assert_eq!(
            env_override("AGATHA_TEST_DEFINITELY_UNSET", FillPrecision::Auto, FillPrecision::parse),
            FillPrecision::Auto
        );
        assert_eq!(env_override("AGATHA_TEST_DEFINITELY_UNSET", None, parse_scenario_name), None);
    }

    #[test]
    fn env_override_parses_set_values() {
        std::env::set_var("AGATHA_TEST_PRECISION_OK", "i16");
        assert_eq!(
            env_override("AGATHA_TEST_PRECISION_OK", FillPrecision::Auto, FillPrecision::parse),
            FillPrecision::I16
        );
        std::env::set_var("AGATHA_TEST_BLOCK_OK", "16");
        assert_eq!(
            env_override("AGATHA_TEST_BLOCK_OK", BlockDim::Auto, BlockDim::parse),
            BlockDim::B16
        );
        std::env::set_var("AGATHA_TEST_SCENARIO_OK", " protein-blosum62 ");
        assert_eq!(
            env_override("AGATHA_TEST_SCENARIO_OK", None, parse_scenario_name),
            Some("protein-blosum62".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "AGATHA_TEST_BLOCK_BAD environment override")]
    fn env_override_panics_on_garbage() {
        std::env::set_var("AGATHA_TEST_BLOCK_BAD", "7");
        env_override("AGATHA_TEST_BLOCK_BAD", BlockDim::Auto, BlockDim::parse);
    }

    #[test]
    #[should_panic(expected = "empty scenario name")]
    fn env_override_rejects_empty_scenario() {
        std::env::set_var("AGATHA_TEST_SCENARIO_EMPTY", "   ");
        env_override("AGATHA_TEST_SCENARIO_EMPTY", None, parse_scenario_name);
    }

    // The satellite regression battery for the real variables: garbage in
    // any `AGATHA_*` override must panic naming that variable, never fall
    // through to the default. Each test primes the process-default caches
    // first so concurrently running tests that construct configs read the
    // already-cached value instead of the garbage this test plants.
    fn prime_default_caches() {
        let _ = default_fill_precision();
        let _ = default_block_dim();
        let _ = default_backend_choice();
        let _ = default_scenario();
        let _ = default_prefetch_depth();
    }

    #[test]
    fn prefetch_depth_parses() {
        assert_eq!(parse_prefetch_depth("0"), Ok(0));
        assert_eq!(parse_prefetch_depth(" 4 "), Ok(4));
        let err = parse_prefetch_depth("lots").unwrap_err();
        assert!(err.contains("'lots'") && err.contains("0 to disable"), "{err}");
        assert_eq!(
            env_override(
                "AGATHA_TEST_PREFETCH_UNSET",
                DEFAULT_PREFETCH_DEPTH,
                parse_prefetch_depth
            ),
            DEFAULT_PREFETCH_DEPTH
        );
    }

    #[test]
    #[should_panic(expected = "AGATHA_PREFETCH environment override: invalid prefetch depth")]
    fn agatha_prefetch_garbage_names_the_variable() {
        prime_default_caches();
        std::env::set_var("AGATHA_PREFETCH", "-3");
        env_override("AGATHA_PREFETCH", DEFAULT_PREFETCH_DEPTH, parse_prefetch_depth);
    }

    #[test]
    #[should_panic(expected = "AGATHA_PRECISION environment override: invalid precision 'fast'")]
    fn agatha_precision_garbage_names_the_variable() {
        prime_default_caches();
        std::env::set_var("AGATHA_PRECISION", "fast");
        env_override("AGATHA_PRECISION", FillPrecision::Auto, FillPrecision::parse);
    }

    #[test]
    #[should_panic(expected = "AGATHA_BLOCK environment override: invalid block dim '12'")]
    fn agatha_block_garbage_names_the_variable() {
        prime_default_caches();
        std::env::set_var("AGATHA_BLOCK", "12");
        env_override("AGATHA_BLOCK", BlockDim::Auto, BlockDim::parse);
    }

    #[test]
    #[should_panic(expected = "AGATHA_BACKEND environment override: invalid backend 'neon'")]
    fn agatha_backend_garbage_names_the_variable() {
        use agatha_align::simd::BackendChoice;
        prime_default_caches();
        std::env::set_var("AGATHA_BACKEND", "neon");
        env_override("AGATHA_BACKEND", BackendChoice::Auto, BackendChoice::parse);
    }

    #[test]
    fn backend_names_parse() {
        use agatha_align::simd::{BackendChoice, WavefrontBackend};
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
    fn default_backend_choice_is_cached_and_round_trips() {
        // The cached default is stable across calls (it is what gets
        // installed process-wide on first use) and its name survives a
        // parse round-trip, so CI's forced-backend matrix can read it back.
        use agatha_align::simd::BackendChoice;
        let choice = default_backend_choice();
        assert_eq!(default_backend_choice(), choice);
        assert_eq!(BackendChoice::parse(choice.name()), Ok(choice));
    }

    #[test]
    fn defaults_match_paper() {
        let c = AgathaConfig::agatha();
        assert_eq!(c.subwarp_lanes, 8);
        assert_eq!(c.slice_width, 3);
        assert!(c.rolling_window && c.sliced_diagonal);
        assert!(c.subwarp_rejoining && c.uneven_bucketing);
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
        assert!(!c.subwarp_rejoining && !c.uneven_bucketing);
    }

    #[test]
    fn precision_names_parse() {
        assert_eq!(FillPrecision::parse("auto"), Ok(FillPrecision::Auto));
        assert_eq!(FillPrecision::parse("I32"), Ok(FillPrecision::I32));
        assert_eq!(FillPrecision::parse("i16"), Ok(FillPrecision::I16));
        let err = FillPrecision::parse("bogus").unwrap_err();
        assert!(err.contains("'bogus'") && err.contains("auto"), "{err}");
    }

    #[test]
    fn block_dim_names_parse() {
        assert_eq!(BlockDim::parse("auto"), Ok(BlockDim::Auto));
        assert_eq!(BlockDim::parse("8"), Ok(BlockDim::B8));
        assert_eq!(BlockDim::parse("B16"), Ok(BlockDim::B16));
        let err = BlockDim::parse("12").unwrap_err();
        assert!(err.contains("'12'") && err.contains("auto"), "{err}");
    }

    #[test]
    fn block_dim_resolution_is_per_task() {
        use agatha_align::{BLOCK, MAX_BLOCK};
        let s = agatha_align::Scoring::preset_bwa();
        let cfg = AgathaConfig::agatha().with_simd_fill(true).with_block_dim(BlockDim::Auto);
        // Forced geometries resolve to themselves regardless of the task.
        assert_eq!(cfg.clone().with_block_dim(BlockDim::B8).block_dim_for(240, 240, &s), BLOCK);
        assert_eq!(
            cfg.clone().with_block_dim(BlockDim::B16).block_dim_for(240, 240, &s),
            MAX_BLOCK
        );
        // Auto under the scalar fill always stays at the paper geometry
        // (the wide side only pays off via the 16-lane i16 wavefront).
        let scalar = cfg.clone().with_simd_fill(false);
        assert_eq!(scalar.block_dim_for(240, 240, &s), BLOCK);
        // Auto with the i32 precision pin also stays narrow.
        let wide_lanes = cfg.clone().with_fill_precision(FillPrecision::I32);
        assert_eq!(wide_lanes.block_dim_for(240, 240, &s), BLOCK);
        // Tiny tasks never pick the wide geometry.
        assert_eq!(cfg.block_dim_for(16, 16, &s), BLOCK);
        // The fill tier resolver agrees with the geometry resolver's pick
        // (a B16-forced short read still proves the i16 gate).
        if cfg!(feature = "simd") {
            use agatha_align::block::FillTier;
            let forced = cfg.with_block_dim(BlockDim::B16);
            assert_eq!(forced.fill_tier_for(240, 240, &s), FillTier::I16);
        }
    }

    #[test]
    fn fill_tier_resolution_demotes_per_task() {
        use agatha_align::block::FillTier;
        let s = agatha_align::Scoring::preset_bwa();
        let cfg =
            AgathaConfig::agatha().with_simd_fill(true).with_fill_precision(FillPrecision::I16);
        // The i16 gate bounds the score spread inside one block, so 240 bp
        // and 4 kb reads both run it; the same reads under a scoring whose
        // block spread leaves the i16 offset range demote to the i32
        // wavefront.
        let hot = agatha_align::Scoring::new(300, 4, 6, 1, 100, 100);
        for len in [240, 4000] {
            assert_eq!(cfg.fill_tier_for(len, len, &s), FillTier::I16);
            assert_eq!(cfg.fill_tier_for(len, len, &hot), FillTier::I32);
        }
        let wide = cfg.clone().with_fill_precision(FillPrecision::I32);
        assert_eq!(wide.fill_tier_for(240, 240, &s), FillTier::I32);
        let scalar = cfg.with_simd_fill(false);
        assert_eq!(scalar.fill_tier_for(240, 240, &s), FillTier::Scalar);
    }
}
