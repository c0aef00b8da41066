//! Vectorised fill: the DP of a whole *row segment* — `k` chained `B×B`
//! blocks of one query-block row — recomputed as one skewed anti-diagonal
//! wavefront, which removes every intra-iteration dependency (cells on one
//! anti-diagonal depend only on the previous two), so each step's `B` lanes
//! compute in parallel, and fills them: `kB + B − 1` steps cover `kB²`
//! cells, 52 % lane occupancy for a single block, 90 % at `k = 8`, ≥ 95 % on
//! the 20–27-block band rows production sweeps.
//!
//! The recurrence is written **once** — `fill::fill_segment`, generic over
//! the block side `B ∈ {8, 16, 32}` and a lane-primitive impl (`lanes::Lanes`:
//! load/store, shift-down-the-strip, add/sub/max, compare, select) — and
//! instantiated per backend inside a `#[target_feature]` wrapper, entered
//! once per segment. So is the tracker fold of its staging
//! ([`crate::diag::DiagTracker::fold_block`], over the same trait's row
//! reduce), inlined into the same instantiation; a single block
//! ([`crate::block::compute_block_i16`], `B ≤` [`crate::MAX_BLOCK`]) is the
//! `k = 1` segment of the same function. Every instantiation is **bit-identical** to
//! [`crate::block::fill_scalar`] at the same geometry: each cell's `H/E/F` is
//! computed from exactly the same inputs with exactly the same integer
//! operations — only the evaluation order differs, and no reassociation of
//! `max`/`+` takes place.
//!
//! ## Wavefront layout
//!
//! The lanes are the block row's `B` query rows, bottom row in lane 0, and
//! step `t` is table anti-diagonal `i0 + j0 + t` cut to them: lane `l` of
//! step `t` holds cell `(i0 − (B−1) + t + l, j0 + B−1 − l)`, so ascending
//! lane is ascending `i` — the tracker's canonical tie-break order. With
//! that layout:
//!
//! * *left* (`H/E(i−1, j)`) is lane `l` of step `t−1` — no shift;
//! * *up* (`H/F(i, j−1)`) is lane `l+1` of step `t−1` — shift one lane down
//!   the strip, the **north row's** value at column `i0 + t` entering at the
//!   top lane: the north boundary is *streamed*, one value per step;
//! * *diag* (`H(i−1, j−1)`) is lane `l+1` of step `t−2` — which is step
//!   `t−1`'s down-shifted `H`, carried over instead of re-shifted;
//! * the **south boundary** leaves through the bottom lane, one value per
//!   step, `B−1` columns behind the north read — so both live in the same
//!   rows, overwritten in place;
//! * the **west boundary** is what the lanes hold before their row starts
//!   (lane `l` starts at step `B−1−l`): an inactive lane *holds* its value
//!   instead of computing, so during the one ramp-up each row's first cell
//!   finds its west `H/E` as left and the row below finds it as diag; the
//!   same rule, after a row's last column, leaves the **east boundary** in
//!   the lanes when the ramp-down ends;
//! * the reference codes of step `t` are one window load from the task's
//!   lane-code array; query codes are fixed per lane;
//! * substitution: the fixed model compares the reference window with the
//!   query lanes and selects a constant; a matrix model loads one row per
//!   step, written per staged window by `Lanes::sub_rows`. By default the
//!   window unskews rows of the task's [`crate::QueryProfile`] (one
//!   contiguous read per reference position); the 32-lane strip reads no
//!   profile — per lane one `vpermw` of its reference codes through the
//!   matrix column of its query residue ([`crate::SubstMatrix::columns`]),
//!   then one 32×32 transpose turns the lane streams into the step rows;
//! * out-of-band / out-of-table lanes are masked to `-∞` in the staged row
//!   and in the carried state (clipping is semantic: a clipped lane must
//!   read as `-∞` from its in-band neighbour). Each bound of the valid-lane
//!   range is affine in `t` ([`crate::block::BlockCtx::strip_lanes`]), so
//!   the steps on which every lane is valid are one run
//!   ([`crate::block::BlockCtx::full_steps`]): they take an unmasked path,
//!   and a window inside the run computes no masks at all. The steps with
//!   no valid lane at all sit at the two ends of the strip
//!   ([`crate::block::BlockCtx::live_steps`]) and are clipped: the fill
//!   sets the state they would have left instead of running them (see
//!   `fill`'s header);
//! * the staged rows are anti-diagonals of the table already, and leave for
//!   the tracker [`crate::STAGE_ROWS`] at a time — a fixed staging buffer,
//!   whatever the row's length.
//!
//! ## Lanes
//!
//! There is one lane element type: `i16` lanes with saturating arithmetic
//! and [`NEG_INF16`] as the sentinel, holding *offsets from a moving base*
//! rather than scores, gated by [`crate::block::BlockCtx::i16_exact`]
//! (derived per geometry — see [`crate::block::BlockCtx::with_block_dim`]);
//! a task outside the gate runs the scalar reference fill instead
//! ([`crate::block::BlockCtx::fill_tier`]). Boundary carries stay absolute
//! `i32` scores at the interface. At segment entry the fill takes the largest
//! `H` of the entry ring as `base` and converts every carry as `i32 → i16`
//! saturation of `v − base` — the streamed north values `B` at a time as
//! they come up — exact for every real value under the gate, which bounds how
//! far the values in flight spread around the front, not how large they are;
//! `-∞`-derived values collapse into the sentinel class, which by
//! construction loses every `max` against a real value just as `NEG_INF`
//! does in the scalar fill. The recurrence is translation-invariant, so it
//! runs unchanged. A band row spans thousands of columns, far more than
//! `±2^13` of drift, so **the base moves**: every [`crate::STAGE_ROWS`]
//! steps the front is re-centred on the largest real `H` of its last two
//! staged rows — the difference is subtracted from the carried state, and
//! sentinel-class lanes are re-pinned to [`NEG_INF16`] so that they never
//! drift with it. A staged window records its base for the tracker fold, and
//! on the way out real lanes go as `x + base` while anything in the sentinel
//! band (`x ≤ `[`SENTINEL_BAND16`]) is written as exactly `NEG_INF`, for the
//! next segment — with its own base — to saturate again. Valid-lane `H`
//! values plus base are therefore bit-identical to the scalar fill; only
//! masked lanes carry a different (equally ultra-negative) encoding, and
//! nothing downstream observes those.
//!
//! ## Which lanes run
//!
//! Lane impl (and the feature level its instantiation is compiled at) per
//! resolved backend × geometry — for the fill and for the tracker fold alike:
//! [`segment_wavefront_i16`] folds on the lanes it fills with, stamps them
//! into the staging buffer, and [`fold_wavefront_i16`] — the fold of a block
//! filled on its own — dispatches on the stamp.
//!
//! | backend    | B=8                 | B=16                      | B=32                         | matrix rows from            |
//! |------------|---------------------|---------------------------|------------------------------|-----------------------------|
//! | `avx512`   | `Sse41I16` (avx2)   | `Avx2I16` (avx2)          | `Avx512I16x32` (avx512bw+vl) | profile; column table at 32 |
//! | `avx2`     | `Sse41I16` (avx2)   | `Avx2I16` (avx2)          | `Portable`                   | profile                     |
//! | `sse41`    | `Sse41I16` (sse4.1) | `Portable`                | `Portable`                   | profile                     |
//! | `portable` | `Portable`          | `Portable`                | `Portable`                   | profile                     |
//!
//! The last column is where a matrix model's substitution rows come from
//! (`Lanes::sub_rows`): every impl but `Avx512I16x32` unskews the task's
//! [`crate::QueryProfile`]; `Avx512I16x32` looks its windows up in the
//! matrix's column table (a matrix of more than 32 residues has none and
//! falls back to the profile). The kernel builds a profile only for a task
//! whose lanes read one ([`crate::block::BlockCtx::reads_profile`]).
//!
//! The tile rule ([`crate::block::BlockCtx::geometry_for`]) picks B=32 on
//! `avx512` wherever the task's i16 gate holds at 32, B=16 on every other
//! backend but `sse41`, and B=8 on `sse41`: a cell whose lanes are the
//! array ones never runs in production (the portable lanes run at 16 only
//! on the `portable` backend; tests and Miri drive them at every side).
//! The wider backends reach a narrower side only through the gate: B=16 for
//! a task inside the gate at 16 but not at 32, B=8 for one inside it at 8
//! only. Only the 32-lane strip fills a zmm, so below 32 `avx512` runs the
//! `avx2` lanes. At B=32 the fold reduces each staged row once (the zmm's
//! halves folded with an unsigned `min` into one `phminposuw`, the first
//! lane from a compare), at B=16 once per 8-lane half.
//!
//! ## Safety
//!
//! One fact stands between this module and safe code — *the CPU has the
//! feature level* — and a value carries it: `x86::{Sse41, Avx2, Avx512}` are
//! zero-sized tokens only their `detect()` constructs (or a higher level's
//! token, which implies the lower ones), an x86 lane impl holds the token of
//! the level it needs, and a resolved backend ([`ProvenBackend`]) holds its
//! level's. So [`Lanes`], the fill and the fold are safe code, and the crate
//! denies `unsafe_code` outside three places:
//!
//! * `mod x86` — the intrinsics, each wrapped where a lane method names it,
//!   on the argument "`self` exists" (plus, for the few loads and stores, an
//!   array-typed argument whose size is the access's);
//! * [`segment_wavefront_i16`] and [`fold_wavefront_i16`] — entering a
//!   `#[target_feature]` wrapper, one `unsafe` per match arm, each with the
//!   token that proves the wrapper's level in hand;
//! * `mod tests` — the same calls, level by level.

use crate::block::{BlockCellsT, BlockCtx};
use crate::diag::DiagTracker;
use crate::scoring::SubstMatrix;
#[cfg(target_arch = "x86_64")]
use crate::{BLOCK, MAX_BLOCK, MAX_STRIP};
use fill::fill_segment;
pub(crate) use fill::SegmentIo;
pub(crate) use lanes::Lanes;
pub(crate) use lanes::Portable;
#[cfg(target_arch = "x86_64")]
use x86::{
    fold_avx2, fold_sse41, segment_avx2, segment_avx512, segment_sse41, Avx2I16, Avx512I16x32,
    Sse41I16,
};
#[cfg(target_arch = "x86_64")]
use ProvenBackend::{Avx2, Avx512, Sse41};

mod fill;
mod lanes;
#[cfg(test)]
#[allow(unsafe_code)]
mod tests;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// Sentinel for "minus infinity" in the 16-bit lanes: `i16::MIN / 2`, the
/// same factor-two headroom [`NEG_INF`] keeps in i32 space. Saturating
/// arithmetic may pin sentinel-derived values anywhere in
/// `[i16::MIN, NEG_INF16]`, and they may drift up from there by less than
/// `2^13`; the i16 exactness gate keeps every real offset strictly above
/// [`SENTINEL_BAND16`].
///
/// [`NEG_INF`]: crate::NEG_INF
pub const NEG_INF16: i16 = i16::MIN / 2;

/// Top of the 16-bit lanes' sentinel band, `-2^13`: a lane at or below it is
/// `-∞`-class, a lane above it is a real offset from the block's base.
pub const SENTINEL_BAND16: i16 = NEG_INF16 / 2;

/// Saturating `i32 → i16` narrowing (the scalar twin of `_mm_packs_epi32`):
/// exact inside the i16 range, pinned at the rails outside it.
#[inline]
pub(crate) fn to16(v: i32) -> i16 {
    v.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
}

/// Which wavefront implementation the dispatcher will run. Resolved once
/// per task (stored in [`BlockCtx`]) so the per-block hot path pays no
/// repeated feature-detection load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WavefrontBackend {
    /// x86-64 with AVX-512BW/VL: the B=32 strip runs one zmm of 32 query
    /// rows per step under `__mmask32` predicates (its own tile side, see
    /// [`crate::block::BlockCtx::geometry_for`]). B=16 and B=8 run as on
    /// [`Self::Avx2`] (only the 32-lane strip fills a zmm).
    Avx512,
    /// x86-64 with AVX2: 8×i16 SSE vectors at B=8 and one full 16×i16 AVX2
    /// vector per diagonal at B=16.
    Avx2,
    /// x86-64 with SSE4.1 but not AVX2: B=8 still runs its vector lanes,
    /// fill and fold (they need nothing wider than 128-bit ops); the B=16
    /// geometry runs the portable lanes.
    Sse41,
    /// Array-backed portable lanes at every geometry (see the
    /// [module table](self#which-lanes-run)).
    Portable,
}

impl WavefrontBackend {
    /// Stable lower-case name (bench rows, stats output).
    pub fn name(self) -> &'static str {
        match self {
            WavefrontBackend::Avx512 => "avx512",
            WavefrontBackend::Avx2 => "avx2",
            WavefrontBackend::Sse41 => "sse41",
            WavefrontBackend::Portable => "portable",
        }
    }

    /// Position in the capability chain `Portable < Sse41 < Avx2 < Avx512`
    /// (a forced choice is clamped to the machine's detected rank).
    fn rank(self) -> u8 {
        match self {
            WavefrontBackend::Portable => 0,
            WavefrontBackend::Sse41 => 1,
            WavefrontBackend::Avx2 => 2,
            WavefrontBackend::Avx512 => 3,
        }
    }
}

/// A requested backend: `Auto` runs the best detected implementation; a
/// named backend caps the dispatch chain at that level. Parsed from
/// `--backend`, carried by value in the kernel configuration, and resolved
/// per task by [`BackendChoice::resolve`] — there is no process-wide
/// selector, so two plans with different backends may run concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Best detected backend (the default).
    #[default]
    Auto,
    /// Dispatch as if this were the best backend the machine supports
    /// (requests above the detected capability degrade to the detected
    /// backend — forcing `avx512` on an AVX2 machine runs AVX2).
    Fixed(WavefrontBackend),
}

impl BackendChoice {
    /// Parse a backend name as accepted by `--backend`.
    pub fn parse(name: &str) -> Result<BackendChoice, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(BackendChoice::Auto),
            "avx512" => Ok(BackendChoice::Fixed(WavefrontBackend::Avx512)),
            "avx2" => Ok(BackendChoice::Fixed(WavefrontBackend::Avx2)),
            "sse41" => Ok(BackendChoice::Fixed(WavefrontBackend::Sse41)),
            "portable" => Ok(BackendChoice::Fixed(WavefrontBackend::Portable)),
            other => Err(format!(
                "invalid backend '{other}': expected auto, avx512, avx2, sse41 or portable"
            )),
        }
    }

    /// Stable lower-case name (round-trips through [`BackendChoice::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Fixed(b) => b.name(),
        }
    }

    /// The backend this choice runs when `available` is the best one on
    /// offer: a pure clamp. Forcing never *raises* the level — a request
    /// above `available` degrades to it, so dispatch stays sound.
    pub fn cap(self, available: WavefrontBackend) -> WavefrontBackend {
        match self {
            BackendChoice::Fixed(forced) if forced.rank() < available.rank() => forced,
            _ => available,
        }
    }

    /// The backend this choice runs on this machine: [`detected_backend`]
    /// capped by the choice (call once per task, not per block).
    pub fn resolve(self) -> WavefrontBackend {
        self.cap(detected_backend())
    }
}

/// The best backend this machine supports (runtime CPU detection, cached
/// by `std`), i.e. what [`BackendChoice::Auto`] resolves to. Under Miri,
/// which interprets no vendor intrinsics worth the name, that is always
/// `Portable`.
pub fn detected_backend() -> WavefrontBackend {
    ProvenBackend::detect().name()
}

/// A [`WavefrontBackend`] together with the proof that this CPU has it: each
/// vector level holds its token ([`x86`]), so a value cannot name a level
/// detection did not find. What a task dispatches on ([`BlockCtx`] resolves
/// one per task, off the per-block path) and what a staged block is stamped
/// with — [`WavefrontBackend`] is only the public *name* of one.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProvenBackend {
    #[cfg(target_arch = "x86_64")]
    Avx512(x86::Avx512),
    #[cfg(target_arch = "x86_64")]
    Avx2(x86::Avx2),
    #[cfg(target_arch = "x86_64")]
    Sse41(x86::Sse41),
    Portable,
}

impl ProvenBackend {
    /// The best level detection finds.
    pub(crate) fn detect() -> ProvenBackend {
        #[cfg(target_arch = "x86_64")]
        if let Some(level) = x86::Avx512::detect() {
            return Avx512(level);
        } else if let Some(level) = x86::Avx2::detect() {
            return Avx2(level);
        } else if let Some(level) = x86::Sse41::detect() {
            return Sse41(level);
        }
        ProvenBackend::Portable
    }

    pub(crate) fn name(self) -> WavefrontBackend {
        match self {
            #[cfg(target_arch = "x86_64")]
            Avx512(_) => WavefrontBackend::Avx512,
            #[cfg(target_arch = "x86_64")]
            Avx2(_) => WavefrontBackend::Avx2,
            #[cfg(target_arch = "x86_64")]
            Sse41(_) => WavefrontBackend::Sse41,
            ProvenBackend::Portable => WavefrontBackend::Portable,
        }
    }

    /// One level down the chain — all a proof can ever do but stay.
    fn lowered(self) -> ProvenBackend {
        match self {
            #[cfg(target_arch = "x86_64")]
            Avx512(level) => Avx2(level.lower()),
            #[cfg(target_arch = "x86_64")]
            Avx2(level) => Sse41(level.lower()),
            _ => ProvenBackend::Portable,
        }
    }

    /// This backend capped at `choice` ([`BackendChoice::cap`] on proofs).
    pub(crate) fn capped(mut self, choice: BackendChoice) -> ProvenBackend {
        while choice.cap(self.name()) != self.name() {
            self = self.lowered();
        }
        self
    }

    /// Whether the lanes this level runs at block side `b` read the
    /// [`crate::QueryProfile`] of the matrix `m` ([`Lanes::sub_rows`]):
    /// every impl but the 32-lane strip's, which looks each window up in the
    /// matrix's column table where it has one.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn reads_profile(self, b: usize, m: &SubstMatrix) -> bool {
        match (self.at_block_dim(b), b) {
            #[cfg(target_arch = "x86_64")]
            (Avx512(_), MAX_STRIP) => m.columns.is_none(),
            _ => true,
        }
    }

    /// The level whose lanes run at block side `b`: only the 32-lane strip
    /// fills a zmm, so below it an AVX-512 host runs its AVX2 level.
    #[inline(always)]
    fn at_block_dim(self, b: usize) -> ProvenBackend {
        if b < crate::MAX_STRIP && self.name() == WavefrontBackend::Avx512 {
            self.lowered()
        } else {
            self
        }
    }
}

/// Every backend this machine can actually run, best first — the sweep
/// domain for forced-backend tests. Always ends with `Portable`.
pub fn supported_backends() -> Vec<WavefrontBackend> {
    let detected = detected_backend();
    [
        WavefrontBackend::Avx512,
        WavefrontBackend::Avx2,
        WavefrontBackend::Sse41,
        WavefrontBackend::Portable,
    ]
    .into_iter()
    .filter(|b| b.rank() <= detected.rank())
    .collect()
}

/// The wavefront fill (and, with a tracker, fold) of one row segment:
/// [`fill_segment`] over the lanes the pre-resolved backend in `ctx` and the
/// geometry `B` select — one dispatch and one feature boundary per segment,
/// however many blocks it spans. All lane impls are bit-identical to each
/// other and — on valid lanes plus base, under [`BlockCtx::i16_exact`] — to
/// the scalar fill.
#[allow(unsafe_code)]
pub(crate) fn segment_wavefront_i16<const B: usize>(ctx: &BlockCtx<'_>, io: SegmentIo<'_, B>) {
    debug_assert_eq!(ctx.b, B as i64, "ctx geometry must match the staging buffer geometry");
    let cells = io.cells;
    cells.backend = ctx.wavefront_backend;
    let io = SegmentIo { cells: &mut *cells, ..io };
    match (ctx.wavefront_backend.at_block_dim(B), B) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` proves AVX-512BW/VL.
        (Avx512(level), MAX_STRIP) => unsafe {
            segment_avx512(level, Avx512I16x32(level), ctx, io.at_geometry())
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` proves AVX2.
        (Avx2(level), MAX_BLOCK) => unsafe {
            segment_avx2(level, Avx2I16(level), ctx, io.at_geometry())
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` proves AVX2.
        (Avx2(level), BLOCK) => unsafe {
            segment_avx2(level, Sse41I16(level.lower()), ctx, io.at_geometry())
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` proves SSE4.1.
        (Sse41(level), BLOCK) => unsafe {
            segment_sse41(level, Sse41I16(level), ctx, io.at_geometry())
        },
        _ => fill_segment(Portable, ctx, io),
    }
    // What is still staged: a segment's last window, a single block whole.
    debug_range_sentinel(cells);
}

/// The tracker fold of one staged i16 block ([`DiagTracker::fold_block`]),
/// on the lanes [`segment_wavefront_i16`] filled it with: the same
/// `(backend, B)` table, read from the proof the fill stamped into the
/// buffer — so a capped plan cannot fold above its cap, whoever drives it.
#[allow(unsafe_code)]
pub(crate) fn fold_wavefront_i16<const B: usize>(
    tracker: &mut DiagTracker,
    cells: &BlockCellsT<i16, B>,
) {
    const { assert!(B <= crate::MAX_BLOCK, "a single block's diagonals fit one window") };
    match (cells.backend.at_block_dim(B), B) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` proves AVX2.
        (Avx2(level), MAX_BLOCK) => unsafe {
            fold_avx2(level, Avx2I16(level), tracker, cells.at_geometry())
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` proves AVX2.
        (Avx2(level), BLOCK) => unsafe {
            fold_avx2(level, Sse41I16(level.lower()), tracker, cells.at_geometry())
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` proves SSE4.1.
        (Sse41(level), BLOCK) => unsafe {
            fold_sse41(level, Sse41I16(level), tracker, cells.at_geometry())
        },
        _ => tracker.fold_block(Portable, cells, &mut true),
    }
}

/// Per-row range sentinel (debug builds): under the `i16_exact` gate every
/// valid lane of a staged row is a real offset strictly inside `±2^13` of a
/// real base — the row's window's — so a lane at a rail or in the sentinel
/// band, or a sentinel-class base under a valid cell, indicates a broken
/// gate, dispatch or re-centring.
#[inline]
pub(crate) fn debug_range_sentinel<const B: usize>(cells: &BlockCellsT<i16, B>) {
    if cfg!(debug_assertions) {
        let bound = -i32::from(SENTINEL_BAND16);
        for (d, (row, mask)) in cells.h.iter().zip(cells.mask).enumerate() {
            for l in (0..B).filter(|l| mask & (1 << l) != 0) {
                let x = i32::from(row[l]);
                debug_assert!(
                    -bound < x && x < bound,
                    "i16 range sentinel: offset {x} of a valid cell leaves ±2^13 at window \
                     ({},{}) row {d} lane {l} — the i16_exact gate must demote such tasks",
                    cells.i0(),
                    cells.j0(),
                );
            }
            debug_assert!(
                mask == 0 || i64::from(cells.base) > -crate::block::I32_REACH_BOUND,
                "i16 range sentinel: window ({},{}) has a valid cell but no real H to rebase on",
                cells.i0(),
                cells.j0(),
            );
        }
    }
}
