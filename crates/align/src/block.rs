//! `B×B` cell-block computation — the "smallest unit for workload
//! distribution" (§2.2) shared by every GPU-style engine.
//!
//! The paper fixes the block at 8×8 (one packed 32-bit word of literals per
//! block edge), and the simulated device always tiles at it
//! ([`crate::BLOCK`]). The host's tile is only a speed decision, so this
//! module parameterizes the whole layer over the block side `B ∈ {8, 16, 32}`
//! so wider vectors have lanes to fill: the 16-wide geometry
//! ([`crate::MAX_BLOCK`]) runs the i16 wavefront with 16 query rows to a
//! vector instead of 8, the 32-wide one ([`crate::MAX_STRIP`], whole rows
//! only) with 32 to a zmm. One rule, [`BlockCtx::geometry_for`], picks the side
//! per task from the backend's lane width and the i16 gate — there is no
//! flag or plan field for it — and every geometry is bit-identical to the
//! scalar reference: geometry only changes tiling, never scores.
//!
//! A block covers reference positions `[i0, i0+B)` × query positions
//! `[j0, j0+B)`. Its inputs are the *west* boundary (`H`/`E` at
//! `(i0-1, j0+k)`), the *north* boundary (`H`/`F` at `(i0+k, j0-1)`), and
//! the corner `H(i0-1, j0-1)`; it produces the corresponding east/south
//! boundaries in place. Out-of-band and out-of-table cells are computed
//! (a real GPU block always executes all `B²` cells) but **masked** to
//! `-∞` before they feed neighbours or the [`DiagTracker`], which is what
//! keeps tiled execution bit-identical to the scalar banded reference.
//!
//! ## Staged tracker updates
//!
//! Instead of a per-cell callback into the tracker (which serialises the
//! inner loop), a fill writes its masked `H` values into a [`BlockCellsT`]
//! staging buffer — anti-diagonal-major, one validity bitmask per
//! diagonal — and the whole buffer folds with one tracker call.
//! With the callback gone the fill itself is free to vectorise:
//! [`FillMode::Simd`] — the default — runs the i16 wavefront kernel in
//! [`crate::simd`] (a whole band row as one wavefront through
//! [`crate::sweep::Sweep::row`], or block by block through
//! [`compute_block_i16`] + `DiagTracker::on_block_i16`; the
//! best detected x86-64 lanes, a portable wavefront elsewhere),
//! bit-identical to [`FillMode::Scalar`], the row-major reference
//! ([`fill_scalar`] + `DiagTracker::on_block`), by construction.
//!
//! [`DiagTracker`]: crate::diag::DiagTracker

use crate::pack::PackedSeq;
use crate::scoring::Scoring;
use crate::{BLOCK, MAX_BLOCK, MAX_STRIP, NEG_INF, STAGE_ROWS};

/// Checked ceiling division for non-negative `i64` geometry math (block
/// counts, origin rounding). The open-coded `(x + d - 1) / d` form wraps
/// when `x` is within `d-1` of `i64::MAX`; this form cannot overflow for
/// any valid input, and rejects (loudly) the inputs that have no defined
/// answer instead of returning garbage.
#[inline]
pub const fn ceil_div(x: i64, d: i64) -> i64 {
    assert!(x >= 0, "ceil_div: dividend must be non-negative");
    assert!(d > 0, "ceil_div: divisor must be positive");
    if x == 0 {
        0
    } else {
        (x - 1) / d + 1
    }
}

/// Magnitude of the `i32` `-∞` sentinel: `|NEG_INF| = 2^30`.
pub const I32_SENTINEL_MAG: i64 = -(NEG_INF as i64);

/// Magnitude of the `i16` `-∞` sentinel: `|NEG_INF16| = 2^14`.
pub const I16_SENTINEL_MAG: i64 = -(crate::simd::NEG_INF16 as i64);

/// Largest admissible task *reach* (`step × (n+m+2)`, a bound on `|H|` over
/// every reachable DP value) for the absolute `i32` scores the wavefront's
/// boundary carries and staged bases hold: half the sentinel magnitude, i.e.
/// `2^29`. See the derivation on [`BlockCtx::with_block_dim`].
pub const I32_REACH_BOUND: i64 = I32_SENTINEL_MAG / 2;

/// How far an i16 lane may sit from its window's base: the top of the i16
/// sentinel band ([`crate::simd::SENTINEL_BAND16`], half the sentinel
/// magnitude), i.e. `2^13`. Real offsets stay strictly inside `±2^13`,
/// sentinel-class lanes at or below `-2^13`. See
/// [`BlockCtx::with_block_dim`].
pub const I16_OFFSET_BOUND: i64 = -(crate::simd::SENTINEL_BAND16 as i64);

/// Geometry and scoring context shared by all blocks of one task.
#[derive(Debug, Clone, Copy)]
pub struct BlockCtx<'a> {
    /// Reference length.
    pub n: i64,
    /// Query length.
    pub m: i64,
    /// Band half-width (large value = unbanded).
    pub w: i64,
    /// Block side length (8, 16 or 32). Must agree with the `const B` of every
    /// staging buffer this ctx is used with; the fills debug-assert it.
    pub b: i64,
    /// Scoring parameters.
    pub scoring: &'a Scoring,
    /// Whether the rebased 16-bit wavefront fill is provably bit-identical
    /// to the scalar fill for this task: every real `H/E/F` in flight stays
    /// within `±2^13` of the base of the window it is in, so (a) the rebasing
    /// conversions at entry, exit and re-centring are exact, (b) saturating
    /// `i16` arithmetic never saturates on a real value, and (c)
    /// sentinel-class values (derived from masked `-∞` cells) always lose
    /// every `max` against real values, exactly as in the scalar fill. A
    /// property of scoring and geometry — sequence length enters only through
    /// the `i32` reach bound on the carries ([`I32_REACH_BOUND`]), which this
    /// gate includes. When `false`, the task runs the scalar fill — see
    /// [`BlockCtx::fill_tier`].
    pub i16_exact: bool,
    /// Wavefront backend resolved once per task (CPU feature detection is
    /// not free enough to repeat per block): the detected one, or a cap
    /// below it installed by [`BlockCtx::with_backend`]. The value proves
    /// the CPU has the level it names — it holds that level's detection
    /// token — so the vector dispatch needs no other argument.
    pub(crate) wavefront_backend: crate::simd::ProvenBackend,
    /// Precomputed per-query score rows ([`crate::profile::QueryProfile`])
    /// for substitution-matrix models: the SIMD fills read `S(c, Q[j])`
    /// from these rows instead of the two-level matrix lookup. `None` means
    /// the fills fall back to direct lookups (bit-identical by
    /// construction); the fixed model never uses a profile.
    pub profile: Option<&'a crate::profile::QueryProfile>,
}

impl<'a> BlockCtx<'a> {
    /// Build from task dimensions and scoring at the default (8×8) block
    /// geometry.
    pub fn new(n: usize, m: usize, scoring: &'a Scoring) -> BlockCtx<'a> {
        BlockCtx::with_block_dim(n, m, scoring, BLOCK)
    }

    /// Build from task dimensions, scoring and an explicit block side
    /// `b ∈ {8, 16, 32}`, dispatching to the best detected wavefront backend
    /// ([`BlockCtx::with_backend`] caps it).
    ///
    /// ## Derivation of the exactness gate
    ///
    /// The gate's bounds are derived from the `-∞` sentinel encodings, not
    /// free-standing literals, so narrowing a sentinel or widening the
    /// geometry re-derives them instead of silently weakening the proof.
    /// Let `step` be the largest per-cell score increment and
    /// `S = |sentinel|` (`2^30` for the i32 carries, `2^14` for the i16
    /// lanes).
    ///
    /// **Sentinel drift.** Masked cells re-enter the arithmetic at or below
    /// `-S`, and a sentinel-derived candidate can gain at most `step` per
    /// anti-diagonal until something pins it again: the scalar fill's block
    /// boundary after `2b−1` diagonals, the wavefront's window boundary —
    /// where it re-centres and re-pins every sentinel-class lane — after
    /// [`STAGE_ROWS`] steps (at `b` = 8 and 16 a single block's `2b−1` fit in
    /// one window; at 32 blocks run only as segments, window by window). So
    /// `drift = step × STAGE_ROWS` bounds both, and sentinel-class values
    /// stay at or below `-S + drift`.
    ///
    /// **i32 carries — reach.** Boundary carries, staged bases and the
    /// tracker hold absolute scores, so every reachable DP value must
    /// satisfy `|H| ≤ reach = step × (n+m+2) < S/2`, and `drift < S/2` keeps
    /// sentinels below `-S/2 < -reach`. Under these bounds `v − base` cannot
    /// overflow and the scalar fill's defensive `saturating_add` never
    /// saturates on a real value.
    ///
    /// **i16 lanes — span.** Lanes hold offsets from a `base` that follows
    /// the wavefront: a real `H` of the segment's entry ring (west column,
    /// corner, the north row over its first block — the largest of them) for
    /// its first window of [`STAGE_ROWS`] steps, then the largest `H` of the
    /// last two anti-diagonals of the window before (two, so that a band of
    /// one diagonal still has a cell; a window none of whose last two rows
    /// has a cell keeps its base — there is nothing real near the front to
    /// spread from it). What must fit is the spread of real values *around
    /// one window of the front*, not the score itself, however long the row:
    ///
    /// * Adjacent valid cells differ by a bounded amount. Straight from the
    ///   recurrence, `H(i,j) ≥ H(i−1,j) − (o+e)`, `≥ H(i,j−1) − (o+e)` and
    ///   `≥ H(i−1,j−1) + min_score`; conversely `H(i,j)` exceeds none of
    ///   those three neighbours by more than `max_score + o + e` (by
    ///   induction over anti-diagonals: a substitution step gains at most
    ///   `max_score` over the diagonal neighbour, which is one gap open from
    ///   the other two; a cell reached through a gap of length `k` from some
    ///   origin is matched by the parallel gap from the origin's own
    ///   neighbour, which the band's convexity keeps valid). So one step
    ///   between neighbours, in any direction, moves `H` by at most
    ///   `q = max_score + o + e − min_score`.
    /// * The valid region (band ∩ table, plus the DP borders) is convex
    ///   along DP moves: a monotone staircase between two valid cells keeps
    ///   `i − j` between theirs and stays inside their bounding box, and has
    ///   `|Δi| + |Δj|` steps. While a window is in flight the lanes hold
    ///   cells of the `b + 1` rows from the north row down, on the
    ///   anti-diagonals from two before the window's first (the state of the
    ///   step before, and its diagonal input) to its last; the base is a cell
    ///   of those rows one or two diagonals before the first (of the entry
    ///   ring for the first window, which spans the same diagonals). Between
    ///   the two, `Δ(i+j) ≤ STAGE_ROWS + 1` and `|Δj| ≤ b`, so
    ///   `|Δi| + |Δj| ≤ STAGE_ROWS + 1 + 2b` and every real `H` in flight
    ///   lies within `span = (STAGE_ROWS + 2b + 1) × q` of `base`.
    ///   (DP-border cells outside the band feed only masked cells, but
    ///   they can be picked as `base`; they equal their unbanded values,
    ///   which bound the banded ones from above, and a valid cell at most
    ///   `b` rows below is reached from the border by one gap-free
    ///   diagonal, which bounds it from below — so the same span covers
    ///   them.)
    /// * A real `E` (or `F`) lies between the `H` of its own cell and that
    ///   of the neighbour it extends from minus `o + e`; for a ring input
    ///   that neighbour is one step outside the neighbourhood, which costs
    ///   at most `max_score + 2(o+e) ≤ 3 × step ≤ drift` more.
    ///
    /// Requiring `span + drift < S/2 = 2^13` therefore keeps every real
    /// offset strictly inside `±2^13` of the window's base — and of the next
    /// window's, which is one of them, so re-centring subtracts a real offset
    /// from real offsets exactly — and every sentinel-class lane at or below
    /// `-2^14 + drift < -2^13`: real values convert exactly, never saturate,
    /// and win every `max` against a sentinel; at a window boundary and at
    /// segment exit anything at or below `-2^13` is a sentinel, re-pinned to
    /// `-2^14` or written back as exactly `NEG_INF`, so it never drifts with
    /// the base and the next segment (with a different base) saturates it
    /// again. Absolute scores live in the `i32` carries, the staged bases
    /// and the tracker, so the gate includes the reach bound above — and
    /// nothing else that depends on `n + m` ([`BlockCtx::i16_window_sum`] is
    /// `span + drift`): the ONT preset needs `65 × 12 + 32 × 6 = 972` of the
    /// 8,192 at `b = 16`, BLOSUM62 `65 × 26 + 32 × 11 = 2,042`; at `b = 32`
    /// the window sum is `97 × q + 32 × step` — bwa `97 × 12 + 32 × 7 =
    /// 1,388`, the CLR and ONT presets 1,356, BLOSUM62 `97 × 26 + 32 × 11 =
    /// 2,874`.
    pub fn with_block_dim(n: usize, m: usize, scoring: &'a Scoring, b: usize) -> BlockCtx<'a> {
        assert!(
            b == BLOCK || b == MAX_BLOCK || b == MAX_STRIP,
            "unsupported block dim {b}: expected 8, 16 or 32"
        );
        let (ni, mi) = (n as i64, m as i64);
        BlockCtx {
            n: ni,
            m: mi,
            w: if scoring.banded() { scoring.band_width as i64 } else { ni + mi },
            b: b as i64,
            scoring,
            i16_exact: BlockCtx::i16_gate(n, m, scoring, b),
            wavefront_backend: crate::simd::ProvenBackend::detect(),
            profile: None,
        }
    }

    /// The exactness gate of [`BlockCtx::i16_exact`] at block side `b`, as
    /// derived on [`BlockCtx::with_block_dim`].
    fn i16_gate(n: usize, m: usize, scoring: &Scoring, b: usize) -> bool {
        let step = BlockCtx::max_step(scoring);
        let reach = step.saturating_mul(n as i64 + m as i64 + 2);
        let drift = step.saturating_mul(STAGE_ROWS as i64);
        let carries_exact = reach < I32_REACH_BOUND && drift < I32_REACH_BOUND;
        carries_exact && BlockCtx::i16_window_sum(scoring, b) < I16_OFFSET_BOUND
    }

    /// Largest scoring increment that can be applied per DP step, derived
    /// from the model's declared substitution bounds (for the fixed DNA
    /// model this reproduces the historical max(mismatch, ambig,
    /// match_score) arm exactly).
    fn max_step(scoring: &Scoring) -> i64 {
        [
            scoring.gap_open as i64 + scoring.gap_extend as i64,
            scoring.gap_extend as i64,
            scoring.max_score() as i64,
            -(scoring.min_score() as i64),
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }

    /// `span + drift` of the i16 gate at block side `b` (see
    /// [`BlockCtx::with_block_dim`]): how much of the `2^13` offset range
    /// ([`I16_OFFSET_BOUND`]) one window of the front may use under
    /// `scoring`. The gate holds at `b` iff this is below the bound and the
    /// task's reach fits the `i32` carries.
    pub fn i16_window_sum(scoring: &Scoring, b: usize) -> i64 {
        let drift = BlockCtx::max_step(scoring).saturating_mul(STAGE_ROWS as i64);
        let q = scoring.max_score().max(0) as i64
            + scoring.gap_open as i64
            + scoring.gap_extend as i64
            + (-(scoring.min_score() as i64)).max(0);
        q.saturating_mul((STAGE_ROWS + 2 * b + 1) as i64).saturating_add(drift)
    }

    /// Cap the wavefront backend at `choice` (`Auto` leaves the detected
    /// one in place). A cap can only lower the level — a proof yields the
    /// levels below it and no others — whatever is asked for.
    pub fn with_backend(mut self, choice: crate::simd::BackendChoice) -> Self {
        self.wavefront_backend = self.wavefront_backend.capped(choice);
        self
    }

    /// The name of the backend this task dispatches to.
    pub fn backend(&self) -> crate::simd::WavefrontBackend {
        self.wavefront_backend.name()
    }

    /// Attach a prepared per-query score profile (matrix models only; see
    /// [`BlockCtx::profile`]). A profile built for a different matrix or
    /// query is ignored by the fills, so attaching is always safe.
    pub fn with_profile(mut self, profile: Option<&'a crate::profile::QueryProfile>) -> Self {
        self.profile = profile;
        self
    }

    /// Whether this task's wavefront reads a [`crate::QueryProfile`]: under
    /// a matrix model, on every lane impl but the 32-lane strip's, which
    /// looks its windows up in the matrix (see
    /// [`crate::simd`'s table](crate::simd#which-lanes-run)). Where it is
    /// `false` the profile is never read, so a caller need not build one.
    pub fn reads_profile(&self) -> bool {
        let b = self.b as usize;
        self.scoring.model.matrix().is_some_and(|m| self.wavefront_backend.reads_profile(b, m))
    }

    /// The host block side of an `n × m` task whose wavefront runs on
    /// `backend`: the one place the 8 / 16 / 32 choice is made (the kernel,
    /// `AgathaConfig::{block_dim_for, fill_tier_for}` and the CLI's
    /// `--verbose` tally all ask it).
    ///
    /// * 32 on `avx512` when the task's i16 gate holds at 32: one zmm of 32
    ///   query rows per step, twice the cells of the 16-lane strip on the
    ///   same per-step dependency chain.
    /// * 8 on `sse41`, whose 8×i16 vector lanes exist at B=8 only (at B=16
    ///   it would run the array lanes, 2.2–2.4× slower), and for a task whose
    ///   i16 gate holds at 8 but not at 16 (wider windows spread real values
    ///   further; see [`BlockCtx::with_block_dim`]): at 8 it keeps the
    ///   wavefront, at 16 it would demote to the scalar fill.
    /// * 16 otherwise. AVX2 has a 16×i16 kernel (which AVX-512 runs too),
    ///   and the `portable` array lanes autovectorise to two 128-bit ops per
    ///   step over twice the cells.
    ///
    /// The simulated device tiles at 8×8 whatever this returns.
    pub fn geometry_for(
        n: usize,
        m: usize,
        scoring: &Scoring,
        backend: crate::simd::WavefrontBackend,
    ) -> usize {
        use crate::simd::WavefrontBackend::{Avx512, Sse41};
        let gate = |b| BlockCtx::i16_gate(n, m, scoring, b);
        if backend == Avx512 && gate(MAX_STRIP) {
            MAX_STRIP
        } else if backend == Sse41 || (!gate(MAX_BLOCK) && gate(BLOCK)) {
            BLOCK
        } else {
            MAX_BLOCK
        }
    }

    /// Resolve the per-task fill tier from the requested mode: the i16
    /// wavefront when its exactness is *proven* by the gate, the scalar
    /// reference fill otherwise (and always under [`FillMode::Scalar`]).
    /// The second parameter is inert: the frozen `benchmark/` passes one.
    #[inline]
    pub fn fill_tier(&self, mode: FillMode, _precision: FillPrecision) -> FillTier {
        match mode {
            FillMode::Simd if self.i16_exact => FillTier::I16,
            _ => FillTier::Scalar,
        }
    }

    /// Whether cell `(i, j)` exists (inside table and band).
    #[inline(always)]
    pub fn valid(&self, i: i64, j: i64) -> bool {
        i < self.n && j < self.m && (i - j).abs() <= self.w
    }

    /// Number of reference blocks.
    #[inline]
    pub fn ref_blocks(&self) -> i64 {
        ceil_div(self.n, self.b)
    }

    /// Number of query blocks.
    #[inline]
    pub fn query_blocks(&self) -> i64 {
        ceil_div(self.m, self.b)
    }

    /// Inclusive range of reference-block columns a query-block row `bj`
    /// must compute so that every in-band cell of its rows is covered.
    pub fn row_block_range(&self, bj: i64) -> Option<(i64, i64)> {
        band_row_blocks(self.n, self.m, self.w, self.b, bj)
    }

    /// Valid-lane bounds of the wavefront over the *strip* of `cols`
    /// reference positions from `i0` in the block row at `j0`, from its step
    /// `t0` on (see [`StripLanes`]). Lane `l` of step `t` is the cell
    /// `(i0 − (B−1) + t + l, j0 + B−1 − l)`: the `B` lanes are the block row's
    /// query rows, bottom row in lane 0, and a step is one table
    /// anti-diagonal cut to them. A lane is valid when its cell is inside the
    /// strip, the table and the band.
    #[inline]
    pub(crate) fn strip_lanes(&self, i0: i64, cols: usize, j0: i64, t0: usize) -> StripLanes {
        let (b, t0) = (self.b, t0 as i64);
        let off = i0 - j0;
        let last = (i0 + cols as i64).min(self.n) - 1;
        // Every term is only ever compared against lanes `0..B` over at most
        // `STAGE_ROWS` steps, so anything beyond ±2^16 acts exactly like
        // ±2^16 (never / always binding) and the i32 arithmetic is exact.
        let near = |x: i64| x.clamp(-(1 << 16), 1 << 16) as i32;
        StripLanes {
            // j < m
            lo_fix: near((j0 + b - self.m).max(0)),
            // i ≥ i0 and i ≤ last
            lo_ramp: near(b - 1 - t0),
            hi_ramp: near(last - i0 + b - 1 - t0),
            // |i − j| ≤ w, with i − j = off − 2(B−1) + t + 2l
            lo_band: near(2 * (b - 1) - self.w - off - t0),
            hi_band: near(2 * (b - 1) + self.w - off - t0),
            hi_fix: b as i32 - 1,
        }
    }

    /// The steps `from..to` of the strip on which every one of the `B` lanes
    /// is valid (empty when there is none): each bound of
    /// [`BlockCtx::strip_lanes`] is monotone in the step, so the full-vector
    /// steps are one run and the wavefront masks only outside it.
    #[inline]
    pub(crate) fn full_steps(&self, i0: i64, cols: usize, j0: i64) -> (usize, usize) {
        let b = self.b;
        let off = i0 - j0;
        let last = (i0 + cols as i64).min(self.n) - 1;
        if j0 + b > self.m {
            return (0, 0);
        }
        let from = (b - 1).max(2 * (b - 1) - self.w - off);
        let to = (last - i0).min(self.w - off) + 1;
        (from as usize, to.max(from) as usize)
    }

    /// The steps `from..to` of the strip on which some lane is valid — the
    /// hull, by anti-diagonal, of the cells the strip has in the table and
    /// the band (`(0, 0)` when it has none); the wavefront clips the steps
    /// outside it. Step `t` is anti-diagonal `i0 + j0 + t`, and over the
    /// strip's cells — `i0 ≤ i ≤ last`, `j0 ≤ j ≤ j_last`, `|i − j| ≤ w` —
    /// the smallest `i + j` lies on the lowest query row that has a cell,
    /// at its smallest `i`, the largest on the highest row at its largest.
    #[inline]
    pub(crate) fn live_steps(&self, i0: i64, cols: usize, j0: i64) -> (usize, usize) {
        let last = (i0 + cols as i64).min(self.n) - 1;
        let j_last = (j0 + self.b).min(self.m) - 1;
        let (j_lo, j_hi) = (j0.max(i0 - self.w), j_last.min(last + self.w));
        if j_lo > j_hi || i0 > last {
            return (0, 0);
        }
        let c0 = i0 + j0;
        let from = i0.max(j_lo - self.w) + j_lo - c0;
        let to = last.min(j_hi + self.w) + j_hi - c0 + 1;
        (from as usize, to as usize)
    }
}

/// Valid-lane bounds of consecutive steps of a strip
/// ([`BlockCtx::strip_lanes`]), relative to the step they were built at: lane
/// `l` of step `d` is valid iff `lo(d) ≤ l ≤ hi(d)`, each bound the tightest
/// of a constant, a ramp (the strip's first and last column cross one lane
/// per step) and a band edge (one lane per two steps). Plain clamped `i32`
/// arithmetic, so a loop over `d` vectorises where the level has the shifts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StripLanes {
    lo_fix: i32,
    lo_ramp: i32,
    lo_band: i32,
    hi_fix: i32,
    hi_ramp: i32,
    hi_band: i32,
}

impl StripLanes {
    /// `(lo, hi)` of step `d`; empty when `lo > hi`.
    #[inline(always)]
    fn range(&self, d: i32) -> (i32, i32) {
        // ceil(x / 2) = (x + 1) >> 1 and floor(x / 2) = x >> 1.
        let lo = self.lo_fix.max(self.lo_ramp - d).max((self.lo_band - d + 1) >> 1);
        let hi = self.hi_fix.min(self.hi_ramp - d).min((self.hi_band - d) >> 1);
        (lo, hi)
    }

    /// The valid lanes of step `d` as a bit run (`0` when empty). A
    /// non-empty run has `0 ≤ lo ≤ hi ≤ B−1 ≤ 31`, so both shifts stay
    /// inside the word, up to lane 31 of the 32-lane strip.
    #[inline(always)]
    pub(crate) fn mask(&self, d: i32) -> u32 {
        let (lo, hi) = self.range(d);
        let run = u32::MAX.wrapping_shr((31 - hi) as u32) & u32::MAX.wrapping_shl(lo as u32);
        if lo <= hi {
            run
        } else {
            0
        }
    }
}

/// [`BlockCtx::row_block_range`] as a function of the bare geometry — an
/// `n × m` table, band half-width `w`, block side `b` — for callers that
/// tile a task without filling it (the simulated device's trace). Inlined
/// so that a constant `b` divides by shifting.
#[inline]
pub fn band_row_blocks(n: i64, m: i64, w: i64, b: i64, bj: i64) -> Option<(i64, i64)> {
    let j_lo = bj * b;
    let j_hi = (j_lo + b - 1).min(m - 1);
    if j_lo >= m {
        return None;
    }
    let i_lo = (j_lo - w).max(0);
    let i_hi = (j_hi + w).min(n - 1);
    if i_lo > i_hi {
        return None;
    }
    Some((i_lo / b, i_hi / b))
}

/// One boundary (`H`, or the direction-specific gap score) spanning the `B`
/// cells of a block edge. Boundary carries stay `i32` in every tier
/// (converted exactly at block entry/exit), so callers thread the same state
/// through all fills of one geometry.
pub type BoundaryT<const B: usize> = [i32; B];

/// Cell-value scalar of a block staging buffer: `i32` for the scalar fill,
/// `i16` for the wavefront. `MASKED` is the width's `-∞` sentinel.
pub trait CellValue: Copy + PartialEq + std::fmt::Debug + 'static {
    /// The masked ("-∞") encoding at this width.
    const MASKED: Self;
}

impl CellValue for i32 {
    const MASKED: i32 = NEG_INF;
}

impl CellValue for i16 {
    const MASKED: i16 = crate::simd::NEG_INF16;
}

/// Staging buffer for up to [`STAGE_ROWS`] anti-diagonals of one block row:
/// the masked `H` value of every cell plus a validity bitmask per
/// anti-diagonal, laid out anti-diagonal-major so the tracker folds each
/// diagonal's cells contiguously (and in ascending `i`, preserving the
/// canonical tie-break). A single block stages its `2B−1` diagonals; a row
/// segment's wavefront stages one window of its steps after another.
///
/// The lanes are the block row's `B` query rows, bottom row in lane 0:
/// `h[d][l]` holds `H(i0 − (B−1) + d + l, j0 + B−1 − l) − base`, masked to
/// [`CellValue::MASKED`] for out-of-band / out-of-table cells (and cells
/// outside the staged columns); bit `l` of `mask[d]` is set iff that cell is
/// valid. The scalar fill leaves unmasked slots it never visits unspecified —
/// its consumers consult `mask`.
///
/// Each row is exactly `[T; B]`, so the hot row stride of the default
/// geometry is unchanged (32 bytes for `i32×8`). The rows come first in a
/// cache-line-aligned buffer, so a row of the 32-lane strip (one zmm) is
/// one line, and no narrower row straddles two.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct BlockCellsT<T, const B: usize> {
    /// Masked `H` values, anti-diagonal-major.
    pub h: [[T; B]; STAGE_ROWS],
    i0: i32,
    j0: i32,
    /// What the staged values are offsets from: score = `h[d][l] + base` on
    /// valid lanes. The rebased i16 fill sets it per staged window; the scalar
    /// fill stages absolute scores and leaves it 0.
    pub base: i32,
    /// Valid-cell bitmask per staged anti-diagonal (bit `l` = lane `l`);
    /// zero on the rows past the staged ones.
    pub mask: [u32; STAGE_ROWS],
    /// The backend whose lanes staged this block, stamped by the i16 fill so
    /// that [`crate::diag::DiagTracker::on_block_i16`] folds on the same
    /// lanes by construction. Like [`BlockCtx::wavefront_backend`], which it
    /// is a copy of, the value proves the CPU has the level it names.
    /// Hand-built staging stays `Portable`.
    pub(crate) backend: crate::simd::ProvenBackend,
}

impl<T: CellValue, const B: usize> BlockCellsT<T, B> {
    /// Empty staging buffer (no valid cells).
    pub fn new() -> BlockCellsT<T, B> {
        BlockCellsT {
            i0: 0,
            j0: 0,
            base: 0,
            h: [[T::MASKED; B]; STAGE_ROWS],
            mask: [0; STAGE_ROWS],
            backend: crate::simd::ProvenBackend::Portable,
        }
    }

    /// The same buffer viewed at geometry `N`, for a lane impl monomorphic
    /// in its width. Dispatch calls this under a `B == N` match arm, where
    /// it is the identity; any other use panics.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    #[inline(always)]
    pub(crate) fn at_geometry<const N: usize>(&self) -> &BlockCellsT<T, N> {
        (self as &dyn std::any::Any)
            .downcast_ref()
            .expect("lane impl dispatched at the wrong geometry")
    }

    /// Set the block origin with a *checked* narrowing from the engines'
    /// `i64` geometry to the `i32` cell-coordinate width: this is the one
    /// place block coordinates change width, and it refuses (loudly) to
    /// truncate instead of wrapping. Task admission
    /// ([`crate::task::check_dims`]) guarantees it never fires for admitted
    /// tasks.
    pub fn set_origin(&mut self, i0: i64, j0: i64) {
        self.i0 = i32::try_from(i0)
            .expect("block reference origin exceeds i32: task admission must reject such inputs");
        self.j0 = i32::try_from(j0)
            .expect("block query origin exceeds i32: task admission must reject such inputs");
    }

    /// Reference coordinate of the block's first row.
    #[inline]
    pub fn i0(&self) -> i32 {
        self.i0
    }

    /// Reference coordinate of lane 0 on staged row 0 (row `d` lane `l` is
    /// `d + l` past it).
    #[inline]
    pub(crate) fn lane0(&self) -> i32 {
        self.i0 - (B as i32 - 1)
    }

    /// Query coordinate of the block's first column.
    #[inline]
    pub fn j0(&self) -> i32 {
        self.j0
    }
}

impl<T: CellValue, const B: usize> Default for BlockCellsT<T, B> {
    fn default() -> BlockCellsT<T, B> {
        BlockCellsT::new()
    }
}

/// Default-geometry i32 staging buffer (see [`BlockCellsT`]).
pub type BlockCells = BlockCellsT<i32, BLOCK>;

/// Which implementation fills a block's cells. Both produce bit-identical
/// staging buffers and boundary updates; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillMode {
    /// Row-major scalar fill (the reference implementation).
    Scalar,
    /// Anti-diagonal i16 wavefront fill from [`crate::simd`]: the best
    /// detected x86-64 lanes, a portable wavefront otherwise. Falls back to
    /// `Scalar` for tasks where exactness cannot be guaranteed
    /// ([`BlockCtx::i16_exact`]).
    Simd,
}

/// Shell: with one lane element type there is nothing to request. Kept as a
/// one-variant enum only because the frozen `benchmark/` names
/// `fill_tier(mode, precision)`, `AgathaConfig.fill_precision` and
/// `default_fill_precision().name()`; the next `[benchmark]` issue deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillPrecision {
    /// The i16 wavefront when [`BlockCtx::i16_exact`], else scalar.
    #[default]
    Auto,
}

impl FillPrecision {
    /// Stable lower-case name (the benchmark's host block).
    pub fn name(self) -> &'static str {
        "auto"
    }
}

/// Shell: the host block side is not requested, it follows the lanes and the
/// i16 gate ([`BlockCtx::geometry_for`]). Kept as a one-variant enum only
/// because the frozen `benchmark/` records `default_block_dim().name()`; the
/// next `[benchmark]` issue deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockDim {
    /// [`BlockCtx::geometry_for`], per task.
    #[default]
    Auto,
}

impl BlockDim {
    /// Stable lower-case name (the benchmark's host block).
    pub fn name(self) -> &'static str {
        "auto"
    }
}

/// The fill implementation tier resolved per task by
/// [`BlockCtx::fill_tier`]. Both produce bit-identical [`crate::diag::DiagTracker`]
/// observations (and therefore identical task results); they differ only in
/// speed and in the exactness gate the wavefront requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillTier {
    /// Row-major scalar reference fill.
    Scalar,
    /// Shell: never produced (there is no i32 wavefront) and run as
    /// `Scalar` by [`crate::sweep::Sweep::new`]. Kept only because the frozen
    /// `benchmark/` matches on it; the next `[benchmark]` issue deletes it.
    I32,
    /// 16-bit-lane anti-diagonal wavefront (requires [`BlockCtx::i16_exact`]).
    I16,
}

impl FillTier {
    /// Stable lower-case name (stats output, bench rows).
    pub fn name(self) -> &'static str {
        match self {
            FillTier::Scalar => "scalar",
            FillTier::I32 => "i32",
            FillTier::I16 => "i16",
        }
    }
}

/// The default fill: the vectorised wavefront (tasks whose exactness gates
/// fail still demote to scalar, see [`BlockCtx::fill_tier`]).
#[inline]
pub fn default_fill_mode() -> FillMode {
    FillMode::Simd
}

/// Compute one block with the scalar reference fill ([`fill_scalar`]) —
/// what a task outside the i16 gate runs. The `mode` argument is inert
/// (every mode fills scalar): the frozen `benchmark/` passes one, and the
/// next `[benchmark]` issue deletes it.
///
/// * `rcodes`/`qcodes`: base codes for the block's reference/query spans
///   (N-padded past the sequence end, as [`PackedSeq::unpack_block`] yields).
/// * `corner`: `H(i0-1, j0-1)` (already masked/bordered by the caller).
/// * `west_h`/`west_e`: in `H/E(i0-1, j0+k)`; out `H/E(i0+B-1, j0+k)`.
/// * `north_h`/`north_f`: in `H/F(i0+k, j0-1)`; out `H/F(i0+k, j0+B-1)`.
/// * Every cell's masked `H` lands in `cells`; the caller feeds the whole
///   block to the tracker at once via
///   [`crate::diag::DiagTracker::on_block`].
#[allow(clippy::too_many_arguments)]
pub fn compute_block_mode<const B: usize>(
    _mode: FillMode,
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
    corner: i32,
    west_h: &mut BoundaryT<B>,
    west_e: &mut BoundaryT<B>,
    north_h: &mut BoundaryT<B>,
    north_f: &mut BoundaryT<B>,
    cells: &mut BlockCellsT<i32, B>,
) {
    debug_assert_eq!(ctx.b, B as i64, "ctx geometry must match the staging buffer geometry");
    cells.set_origin(i0, j0);
    fill_scalar(ctx, i0, j0, rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells);
}

/// Compute one block with the i16 wavefront — the one-block segment of
/// [`crate::simd::segment_wavefront_i16`], fill only — in
/// [`compute_block_mode`]'s argument convention, staging masked `H` values
/// into an i16 buffer for [`crate::diag::DiagTracker::on_block_i16`].
/// Boundary carries stay absolute `i32` scores at the interface (rebased
/// exactly at entry and exit), so callers thread the same boundary state
/// through both tiers. [`crate::sweep::Sweep::row`] runs a whole band row
/// as one wavefront instead; this is what drives a grid block by block.
///
/// Callers must only select this tier for tasks whose
/// [`BlockCtx::i16_exact`] gate holds *at this geometry* — that is what
/// proves valid-lane values equal the scalar fill bit for bit. The assert
/// turns a broken dispatch into a loud failure instead of silent score
/// corruption.
#[allow(clippy::too_many_arguments)]
pub fn compute_block_i16<const B: usize>(
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
    corner: i32,
    west_h: &mut BoundaryT<B>,
    west_e: &mut BoundaryT<B>,
    north_h: &mut BoundaryT<B>,
    north_f: &mut BoundaryT<B>,
    cells: &mut BlockCellsT<i16, B>,
) {
    const { assert!(B <= MAX_BLOCK, "a single block's diagonals fit one window") };
    assert!(
        ctx.i16_exact,
        "compute_block_i16 dispatched without the i16 exactness gate; \
         use BlockCtx::fill_tier to resolve the tier"
    );
    // The codes of the block's `B` columns, between the `B − 1` columns the
    // strip's ramps slide over on either side (inactive lanes: any code).
    let mut lane_codes = [0i16; 3 * MAX_BLOCK];
    for (slot, &c) in lane_codes[B - 1..].iter_mut().zip(rcodes) {
        *slot = i16::from(c);
    }
    let rcodes = &lane_codes[..3 * B - 2];
    crate::simd::segment_wavefront_i16(
        ctx,
        crate::simd::SegmentIo {
            i0,
            j0,
            rcodes,
            qcodes,
            corner,
            west_h,
            west_e,
            north_h,
            north_f,
            cells,
            tracker: None,
        },
    );
}

/// Row-major scalar reference fill.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_scalar<const B: usize>(
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
    corner: i32,
    west_h: &mut BoundaryT<B>,
    west_e: &mut BoundaryT<B>,
    north_h: &mut BoundaryT<B>,
    north_f: &mut BoundaryT<B>,
    cells: &mut BlockCellsT<i32, B>,
) {
    let sc = ctx.scoring;
    let oe = sc.gap_open + sc.gap_extend;
    let ext = sc.gap_extend;
    let mut carry = corner; // H(i-1, j0-1) for the current column i

    cells.mask.fill(0);
    for l in 0..B {
        let i = i0 + l as i64;
        let mut diag = carry; // H(i-1, j-1) as j advances
        let mut left_h = north_h[l]; // H(i, j-1)
        let mut left_f = north_f[l]; // F(i, j-1)
        for k in 0..B {
            let j = j0 + k as i64;
            let up_h = west_h[k];
            let up_e = west_e[k];

            let e = (up_h - oe).max(up_e - ext);
            let f = (left_h - oe).max(left_f - ext);
            let sub = sc.substitution(rcodes[l], qcodes[k]);
            let mut h = e.max(f).max(diag.saturating_add(sub));

            let (mut ev, mut fv) = (e, f);
            // Staged on diagonal `l + k`, in the lane of query row `k`.
            if ctx.valid(i, j) {
                cells.mask[l + k] |= 1 << (B - 1 - k);
            } else {
                // Masked: out-of-band / out-of-table cells must read as -∞
                // to every neighbour, exactly like the scalar reference.
                h = NEG_INF;
                ev = NEG_INF;
                fv = NEG_INF;
            }
            cells.h[l + k][B - 1 - k] = h;

            diag = up_h;
            west_h[k] = h;
            west_e[k] = ev;
            left_h = h;
            left_f = fv;
        }
        // Corner for the next column is the *input* north value of this one.
        carry = north_h[l];
        north_h[l] = left_h;
        north_f[l] = left_f;
    }
}

/// Prepare the west boundary for the first block of a row sweep starting at
/// reference position `i_start` (block-aligned): true borders when the sweep
/// starts at the table edge, `-∞` when it starts mid-table at the band edge.
pub fn west_init<const B: usize>(
    ctx: &BlockCtx<'_>,
    i_start: i64,
    j0: i64,
) -> (BoundaryT<B>, BoundaryT<B>) {
    let mut h = [NEG_INF; B];
    let e = [NEG_INF; B];
    if i_start == 0 {
        for (k, slot) in h.iter_mut().enumerate() {
            *slot = ctx.scoring.border((j0 + k as i64) as i32);
        }
    }
    (h, e)
}

/// Masked north-boundary read: `H/F(i, j0-1)` for a block starting at
/// reference `i0`. When `j0 == 0` this is the DP border; otherwise it is the
/// stored row boundary masked by band membership.
pub fn north_read<const B: usize>(
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    row_h: &[i32],
    row_f: &[i32],
) -> (BoundaryT<B>, BoundaryT<B>) {
    let mut h = [NEG_INF; B];
    let mut f = [NEG_INF; B];
    for l in 0..B {
        let i = i0 + l as i64;
        if j0 == 0 {
            h[l] = ctx.scoring.border(i as i32);
        } else if (i - (j0 - 1)).abs() <= ctx.w && i < ctx.n {
            h[l] = row_h[i as usize];
            f[l] = row_f[i as usize];
        }
    }
    (h, f)
}

/// Masked corner read: `H(i0-1, j0-1)`.
pub fn corner_read(ctx: &BlockCtx<'_>, i0: i64, j0: i64, row_h: &[i32]) -> i32 {
    if i0 == 0 && j0 == 0 {
        0
    } else if i0 == 0 {
        ctx.scoring.border((j0 - 1) as i32)
    } else if j0 == 0 {
        ctx.scoring.border((i0 - 1) as i32)
    } else if ((i0 - 1) - (j0 - 1)).abs() <= ctx.w {
        row_h[(i0 - 1) as usize]
    } else {
        NEG_INF
    }
}

/// Reference block-grid driver: computes the whole banded table block by
/// block (query-block rows top-down, each sweeping its reference range as
/// one segment of [`crate::sweep::Sweep`]) and returns the exact guided
/// result. Runs at the default (8×8) geometry, on the tier the default fill
/// resolves for the task; [`crate::sweep::grid_align`] takes an explicit
/// geometry.
///
/// This is the skeleton every GPU engine elaborates (with different tiling,
/// checkpointing and cost accounting) over the same sweep; it doubles as the
/// validation target proving the block DP matches the scalar reference.
pub fn block_grid_align(
    reference: &PackedSeq,
    query: &PackedSeq,
    scoring: &Scoring,
) -> crate::result::GuidedResult {
    let ctx = BlockCtx::with_block_dim(reference.len(), query.len(), scoring, BLOCK);
    let tier = ctx.fill_tier(default_fill_mode(), FillPrecision::Auto);
    crate::sweep::grid_align::<BLOCK>(ctx, tier, reference, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guided::guided_align;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_str_seq(s)
    }

    fn check(r: &str, q: &str, scoring: &Scoring) {
        let (r, q) = (seq(r), seq(q));
        let want = guided_align(&r, &q, scoring);
        let got = block_grid_align(&r, &q, scoring);
        assert!(got.same_alignment(&want), "\nblock: {got:?}\nscalar: {want:?}");
        assert_eq!(got.cells, want.cells, "reference cell counts must agree");
        assert_eq!(got.antidiags, want.antidiags);
        // The wide geometries cover the table with a different tiling but
        // must land on the same guided result.
        let ctx = |b| BlockCtx::with_block_dim(r.len(), q.len(), scoring, b);
        let tier = |b| ctx(b).fill_tier(default_fill_mode(), FillPrecision::Auto);
        let wides = [
            crate::sweep::grid_align::<MAX_BLOCK>(ctx(MAX_BLOCK), tier(MAX_BLOCK), &r, &q),
            crate::sweep::grid_align::<MAX_STRIP>(ctx(MAX_STRIP), tier(MAX_STRIP), &r, &q),
        ];
        for wide in wides {
            assert!(wide.same_alignment(&want), "\nwide block: {wide:?}\nscalar: {want:?}");
            assert_eq!(wide.cells, want.cells);
            assert_eq!(wide.antidiags, want.antidiags);
        }
    }

    #[test]
    fn matches_scalar_small_square() {
        let s = Scoring::figure1();
        check("AGATAGAT", "AGACTATC", &s);
    }

    #[test]
    fn matches_scalar_non_block_multiple() {
        let s = Scoring::figure1();
        check("AGATAGATA", "AGACTATCAGA", &s);
        check("AGA", "AGACT", &s);
        check("ACGTACGTACGTACGTA", "ACG", &s);
    }

    #[test]
    fn matches_scalar_banded() {
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 3);
        check("ACGTACGTACGTACGTACGTACGT", "ACGTACGTTCGTACGTACGAACGT", &s);
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 5);
        check("ACGTACGTACGTACGTACGTACGTACGTACGTACGT", "ACGTACGTACGTACG", &s);
    }

    #[test]
    fn matches_scalar_zdrop() {
        let s = Scoring::new(2, 4, 4, 2, 8, 6);
        check(
            "ACGTACGTACGTACGTGGGGGGGGGGGGGGGGGGGGGGGG",
            "ACGTACGTACGTACGTCCCCCCCCCCCCCCCCCCCCCCCC",
            &s,
        );
    }

    #[test]
    fn matches_scalar_band_exhaustion() {
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 2);
        check(&"ACGT".repeat(16), "ACGTA", &s);
    }

    #[test]
    fn matches_scalar_long_random_like() {
        // Deterministic pseudo-random-ish strings exercising many blocks.
        let mut r = String::new();
        let mut q = String::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for k in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
            r.push(c);
            if k % 37 != 0 {
                q.push(c);
            }
            if k % 23 == 0 {
                q.push('T');
            }
        }
        let s = Scoring::new(2, 4, 4, 2, 40, 16);
        check(&r, &q, &s);
        let s = Scoring::preset_bwa().with_band(24);
        check(&r, &q, &s);
    }

    #[test]
    fn ceil_div_matches_naive_in_range() {
        for x in 0..200i64 {
            for d in 1..20i64 {
                assert_eq!(ceil_div(x, d), (x + d - 1) / d, "x={x} d={d}");
            }
        }
    }

    #[test]
    fn ceil_div_overflow_edges() {
        // The open-coded (x + d - 1) / d form wraps on these; the checked
        // helper must not.
        assert_eq!(ceil_div(i64::MAX, 1), i64::MAX);
        assert_eq!(ceil_div(i64::MAX, 2), i64::MAX / 2 + 1);
        assert_eq!(ceil_div(i64::MAX, i64::MAX), 1);
        assert_eq!(ceil_div(i64::MAX - 1, BLOCK as i64), (i64::MAX - 1) / 8 + 1);
        assert_eq!(ceil_div(0, i64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "divisor must be positive")]
    fn ceil_div_rejects_zero_divisor() {
        ceil_div(8, 0);
    }

    #[test]
    #[should_panic(expected = "dividend must be non-negative")]
    fn ceil_div_rejects_negative_dividend() {
        ceil_div(-1, 8);
    }

    #[test]
    fn reach_bounds_derive_to_the_historical_literals() {
        // PR 3/4 shipped the gates as free-standing literals; the derived
        // forms must be the same numbers or every exactness proof changes.
        assert_eq!(I32_REACH_BOUND, 1 << 29);
        assert_eq!(I16_OFFSET_BOUND, 1 << 13);
        assert_eq!(I32_SENTINEL_MAG, 1 << 30);
        assert_eq!(I16_SENTINEL_MAG, 1 << 14);
        assert_eq!(I16_OFFSET_BOUND, I16_SENTINEL_MAG / 2);
    }

    #[test]
    fn matrix_model_gates_derive_from_declared_bounds() {
        // Under BLOSUM62 the gate terms come from the declared matrix bounds
        // (+11 / −4) and the preset's gaps (10 + 1), not any DNA constant:
        // q = 11 + 11 + 4 = 26, step = 11, so span + drift is
        // 49·26 + 32·11 = 1626 at B=8 and 65·26 + 32·11 = 2042 at B=16 —
        // i16-exact at any length the carries' reach admits.
        let sc = Scoring::preset_blosum62();
        for b in [BLOCK, MAX_BLOCK, MAX_STRIP] {
            for (n, m) in [(250, 250), (400, 400), (30_000, 30_000)] {
                let ctx = BlockCtx::with_block_dim(n, m, &sc, b);
                assert!(ctx.i16_exact, "b={b} {n}×{m}");
            }
        }
        // A fixed model with the same bounds gates identically — the gate
        // is model-independent once the bounds agree — on both sides of it:
        // scaling every bound by 5 (q = 130, step = 55) passes B=8
        // (6370 + 1760 = 8130) and fails B=16 (8450 + 1760 = 10210).
        let fixed = Scoring::new(11, 4, 10, 1, sc.zdrop, sc.band_width);
        let hot = Scoring::new(55, 20, 50, 5, sc.zdrop, sc.band_width);
        for b in [BLOCK, MAX_BLOCK] {
            assert!(BlockCtx::with_block_dim(250, 250, &fixed, b).i16_exact, "b={b}");
        }
        assert!(BlockCtx::with_block_dim(250, 250, &hot, BLOCK).i16_exact);
        assert!(!BlockCtx::with_block_dim(250, 250, &hot, MAX_BLOCK).i16_exact);
    }

    #[test]
    fn drift_gate_only_bites_tiny_tasks_under_extreme_scoring() {
        // Ordinary scoring: the gate holds at every geometry, however long
        // the task is.
        let sc = Scoring::preset_bwa();
        for b in [BLOCK, MAX_BLOCK, MAX_STRIP] {
            for len in [250, 25_000] {
                let ctx = BlockCtx::with_block_dim(len, len, &sc, b);
                assert!(ctx.i16_exact, "b={b} len={len}");
            }
        }
        // Huge scoring on a tiny task: the carries' reach (600 × 8 = 4800)
        // and drift (600 × 32) are nowhere near 2^29, but one window already
        // spreads its values past the i16 offset range (span alone is
        // 49 × 602 at B=8), so the task demotes to scalar at both
        // geometries.
        let sc = Scoring::new(600, 1, 0, 1, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let narrow = BlockCtx::with_block_dim(3, 3, &sc, BLOCK);
        let wide = BlockCtx::with_block_dim(3, 3, &sc, MAX_BLOCK);
        assert!(!narrow.i16_exact && !wide.i16_exact);
        // The gate includes the carries' reach: a task whose absolute scores
        // could leave it never runs rebased lanes either.
        let bwa = Scoring::preset_bwa();
        let long = BlockCtx::with_block_dim(1 << 27, 1 << 27, &bwa, BLOCK);
        assert!(!long.i16_exact);
    }

    #[test]
    fn geometry_policy_is_conservative() {
        use crate::simd::WavefrontBackend::{Avx2, Avx512, Portable, Sse41};
        let bwa = Scoring::preset_bwa();
        // Match 80, gaps 4+2: span + drift is 49·90 + 32·80 = 6,970 at B=8
        // and 65·90 + 2,560 = 8,410 at B=16 — inside the gate at 8 only.
        let window = Scoring::new(80, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        assert!(BlockCtx::i16_gate(240, 240, &window, BLOCK));
        assert!(!BlockCtx::i16_gate(240, 240, &window, MAX_BLOCK));
        // Match 50, gaps 4+2: 65·60 + 32·50 = 5,500 at B=16 and 97·60 +
        // 1,600 = 7,420 at B=32 — inside both; match 64 (97·74 + 2,048 =
        // 9,226) only at 16.
        let strip = Scoring::new(50, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let no_strip = Scoring::new(64, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        assert!(BlockCtx::i16_gate(240, 240, &strip, MAX_STRIP));
        assert!(BlockCtx::i16_gate(240, 240, &no_strip, MAX_BLOCK));
        assert!(!BlockCtx::i16_gate(240, 240, &no_strip, MAX_STRIP));
        let hot = Scoring::new(1 << 12, 4, 6, 1, Scoring::NO_ZDROP, Scoring::NO_BAND);
        // The backend is an argument, so the rule is checked for every level
        // whatever this host detects.
        for backend in [Avx512, Avx2, Sse41, Portable] {
            let pick = |n, m, sc: &Scoring| BlockCtx::geometry_for(n, m, sc, backend);
            // `sse41`'s vector lanes are 8 wide, `avx512`'s zmm strip is 32
            // wide wherever the gate holds at 32; every other backend has a
            // 16-lane wavefront, whatever the task's shape.
            let (wide, widest) = match backend {
                Sse41 => (BLOCK, BLOCK),
                Avx512 => (MAX_BLOCK, MAX_STRIP),
                _ => (MAX_BLOCK, MAX_BLOCK),
            };
            assert_eq!(pick(240, 240, &bwa), widest);
            assert_eq!(pick(16, 16, &bwa), widest);
            assert_eq!(pick(240, 240, &bwa.with_band(4)), widest);
            assert_eq!(pick(240, 240, &strip), widest);
            // A task inside the gate at 16 but not at 32 keeps the 16 strip.
            assert_eq!(pick(240, 240, &no_strip), wide);
            // Only 8×8 keeps the gate-window task on the i16 wavefront.
            assert_eq!(pick(240, 240, &window), BLOCK);
            // Outside the gate at every side, no tile keeps it: scalar at
            // the usual side.
            assert_eq!(pick(240, 240, &hot), wide);
        }
    }

    #[test]
    fn row_block_range_geometry() {
        let sc = Scoring::new(1, 1, 1, 1, Scoring::NO_ZDROP, 4);
        let ctx = BlockCtx::new(64, 32, &sc);
        // row 0: j in [0,7], band w=4 → i in [0, 11] → blocks 0..=1
        assert_eq!(ctx.row_block_range(0), Some((0, 1)));
        // row 3: j in [24,31] → i in [20, 35] → blocks 2..=4
        assert_eq!(ctx.row_block_range(3), Some((2, 4)));
        // beyond query
        assert_eq!(ctx.row_block_range(4), None);
        // Wide geometry: row 0 covers j in [0,15] → i in [0, 19] → blocks 0..=1
        let wide = BlockCtx::with_block_dim(64, 32, &sc, MAX_BLOCK);
        assert_eq!(wide.row_block_range(0), Some((0, 1)));
        assert_eq!(wide.row_block_range(1), Some((0, 2)));
        assert_eq!(wide.row_block_range(2), None);
    }

    #[test]
    fn lane_range_agrees_with_valid() {
        // Brute-force cross-check of the closed-form lane intervals against
        // per-cell validity, over assorted strip origins and lengths, bands
        // and every geometry: lane `l` of step `t` is the cell
        // `(i0 − (b−1) + t + l, j0 + b−1 − l)`.
        let cases = [
            (64usize, 32usize, 4i32),
            (20, 20, 2),
            (9, 40, 7),
            (40, 9, Scoring::NO_BAND),
            (8, 8, 1),
            (33, 47, 11),
        ];
        for b in [BLOCK, MAX_BLOCK, MAX_STRIP] {
            for (n, m, w) in cases {
                let sc = Scoring::new(1, 1, 1, 1, Scoring::NO_ZDROP, w);
                let ctx = BlockCtx::with_block_dim(n, m, &sc, b);
                let bi = b as i64;
                for blocks in 1..=ctx.ref_blocks() {
                    for bi_from in 0..=ctx.ref_blocks() - blocks {
                        for bj in 0..ctx.query_blocks() {
                            let (i0, j0, cols) = (bi_from * bi, bj * bi, blocks as usize * b);
                            let (full_from, full_to) = ctx.full_steps(i0, cols, j0);
                            let (live_from, live_to) = ctx.live_steps(i0, cols, j0);
                            for t in 0..cols + b - 1 {
                                let mut want = 0u32;
                                for l in 0..bi {
                                    let (i, j) = (i0 - (bi - 1) + t as i64 + l, j0 + bi - 1 - l);
                                    if (i0..i0 + cols as i64).contains(&i) && ctx.valid(i, j) {
                                        want |= 1 << l;
                                    }
                                }
                                let got = ctx.strip_lanes(i0, cols, j0, t).mask(0);
                                assert_eq!(
                                    got, want,
                                    "b={b} n={n} m={m} w={w} strip ({i0},{j0})×{cols} step {t}: \
                                     lane range {got:#034b} vs per-cell {want:#034b}"
                                );
                                // The full-vector run agrees with all-valid.
                                assert_eq!(
                                    (full_from..full_to).contains(&t),
                                    want == u32::MAX >> (32 - b),
                                    "b={b} ({i0},{j0})×{cols} w={w} step {t}"
                                );
                                // No valid lane outside the live hull, and
                                // one on each of its ends.
                                assert!(
                                    want == 0 || (live_from..live_to).contains(&t),
                                    "b={b} ({i0},{j0})×{cols} w={w} step {t} outside the live steps"
                                );
                                if live_from < live_to && (t == live_from || t + 1 == live_to) {
                                    assert_ne!(want, 0, "b={b} ({i0},{j0})×{cols} w={w} end {t}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "task admission")]
    fn block_origin_narrowing_is_checked() {
        let mut cells = BlockCells::new();
        cells.set_origin(i32::MAX as i64 + 8, 0);
    }
}
