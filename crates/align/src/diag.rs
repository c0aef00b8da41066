//! Anti-diagonal completion tracking — the semantic core shared by every
//! engine in the workspace.
//!
//! The guided algorithm's termination condition is defined *per
//! anti-diagonal, in order* (Eq. 4–7), but GPU engines compute cells in
//! tiled orders (chunks, slices) where anti-diagonals complete long after
//! their first cell was touched. [`DiagTracker`] decouples the two: engines
//! feed it every in-band cell as computed (in any order) and call
//! [`DiagTracker::advance`] at their natural checkpoints (chunk/slice
//! boundaries); the tracker folds *completed* anti-diagonals in index order,
//! applying exactly the reference termination semantics. The result is
//! therefore bit-identical to the scalar reference no matter the tiling —
//! this is precisely the exactness property AGAThA claims for its kernel.
//!
//! The tracker also mirrors the paper's memory structures: the per-diagonal
//! local maxima correspond to the LMB (local max buffer) contents and the
//! running global maximum to the GMB (global max buffer); engines charge
//! their cost models for the corresponding accesses while delegating the
//! *values* here.

use crate::block::{block_diags, BlockCellsT};
use crate::guided::{diag_cells, zdrop_triggered};
use crate::result::{GuidedResult, MaxCell, StopReason};
use crate::scoring::Scoring;
use crate::{MAX_BLOCK_DIAGS, NEG_INF};

/// Tracks per-anti-diagonal completion, local maxima and the Z-drop
/// condition for one alignment task.
#[derive(Debug, Clone)]
pub struct DiagTracker {
    n: i64,
    m: i64,
    w: i64,
    zdrop: i32,
    gap_extend: i32,
    zdrop_enabled: bool,
    /// cells seen so far on each anti-diagonal
    seen: Vec<u32>,
    /// local maximum score per anti-diagonal
    local_score: Vec<i32>,
    /// `i` coordinate of the local maximum
    local_i: Vec<i32>,
    /// H value of the (unique) `j == m-1` cell per diagonal, or `NEG_INF`
    qend: Vec<i32>,
    /// next anti-diagonal to finalize
    next: usize,
    /// first anti-diagonal with zero in-band cells (band exhaustion point),
    /// or `total` if none
    cutoff: usize,
    /// total anti-diagonals of the full table
    total: usize,
    global: MaxCell,
    qend_best: Option<i32>,
    finished: Option<StopReason>,
    /// reference-semantics cells (sum of expected cells over finalized diagonals)
    cells: u64,
    /// Which vector backend [`DiagTracker::on_block_i16`] folds with.
    /// Resolved once per task (the same hoisting
    /// [`crate::block::BlockCtx`] does for the fill backend) so the
    /// per-block path pays no repeated feature-detection load.
    fold_backend: crate::simd::WavefrontBackend,
}

/// The band-exhaustion point of an `n × m` table under band half-width `w`:
/// the first anti-diagonal `c < total` with no in-band cell, or `total` when
/// every diagonal has one. In closed form, from the bounds of
/// [`crate::guided::diag_range`]: `lo ≤ hi` reduces to
/// `c ≤ w + 2·min(n, m) − 2` (the band still overlaps the shorter side) and,
/// for `w = 0` only, `c` even (odd diagonals miss the main diagonal).
fn band_cutoff(n: usize, m: usize, w: i64, total: usize) -> usize {
    let first_empty = if w == 0 { 1 } else { w as usize + 2 * n.min(m) - 1 };
    first_empty.min(total)
}

/// The eight staged lanes `row[at..at + 8]` — one half-row of either
/// geometry, the unit `phminposuw` reduces.
///
/// # Safety
/// Requires SSE2 (baseline on x86-64); `at + 8` must not exceed `B`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn load8<const B: usize>(row: &[i16; B], at: usize) -> std::arch::x86_64::__m128i {
    debug_assert!(at + 8 <= B, "8-lane reduction past the staged row");
    // SAFETY: the 16 bytes at `row[at..at + 8]` are in bounds (asserted).
    std::arch::x86_64::_mm_loadu_si128(row.as_ptr().add(at).cast())
}

impl DiagTracker {
    /// New tracker for an `n × m` task under `scoring`.
    pub fn new(n: usize, m: usize, scoring: &Scoring) -> DiagTracker {
        let mut t = DiagTracker {
            n: 0,
            m: 0,
            w: 0,
            zdrop: 0,
            gap_extend: 0,
            zdrop_enabled: false,
            seen: Vec::new(),
            local_score: Vec::new(),
            local_i: Vec::new(),
            qend: Vec::new(),
            next: 0,
            cutoff: 0,
            total: 0,
            global: MaxCell::ORIGIN,
            qend_best: None,
            finished: None,
            cells: 0,
            fold_backend: crate::simd::detected_backend(),
        };
        t.reset(n, m, scoring);
        t
    }

    /// Reinitialize for a new `n × m` task, reusing the scratch vectors.
    /// After `reset` the tracker is indistinguishable from a fresh
    /// [`DiagTracker::new`]; allocations are grow-only, so steady-state
    /// reuse across a task stream performs no heap allocation.
    pub fn reset(&mut self, n: usize, m: usize, scoring: &Scoring) {
        // Central admission chokepoint: every engine funnels its results
        // through a tracker, and the tracker (like `MaxCell`) stores cell
        // coordinates as `i32`. Refusing over-wide tasks here turns what
        // would be silent coordinate truncation into a loud error.
        if let Err(e) = crate::task::check_dims(n, m) {
            panic!("DiagTracker: {e}");
        }
        // Back to the detected fold backend: a cap installed for the
        // previous task ([`DiagTracker::set_backend`]) must not leak into
        // this one when a workspace is reused across configurations.
        self.fold_backend = crate::simd::detected_backend();
        let (ni, mi) = (n as i64, m as i64);
        let w = if scoring.banded() { scoring.band_width as i64 } else { ni + mi };
        let total = if n == 0 || m == 0 { 0 } else { n + m - 1 };
        self.n = ni;
        self.m = mi;
        self.w = w;
        self.zdrop = scoring.zdrop;
        self.gap_extend = scoring.gap_extend;
        self.zdrop_enabled = scoring.zdrop_enabled();
        self.seen.clear();
        self.seen.resize(total, 0);
        self.local_score.clear();
        self.local_score.resize(total, NEG_INF);
        self.local_i.clear();
        self.local_i.resize(total, -1);
        self.qend.clear();
        self.qend.resize(total, NEG_INF);
        self.next = 0;
        self.cutoff = band_cutoff(n, m, w, total);
        self.total = total;
        self.global = MaxCell::ORIGIN;
        self.qend_best = None;
        self.finished = if total == 0 { Some(StopReason::Completed) } else { None };
        self.cells = 0;
    }

    /// Cap the fold backend at `choice` for the current task, so the fold
    /// follows the fill's resolution ([`crate::block::BlockCtx::with_backend`]).
    /// Call after [`DiagTracker::reset`], which restores the detected one.
    pub fn set_backend(&mut self, choice: crate::simd::BackendChoice) {
        self.fold_backend = choice.cap(self.fold_backend);
    }

    /// Fold one computed block's staged cells in a single call — the
    /// batch-update path used by every block engine (the per-cell
    /// [`DiagTracker::on_cell`] remains for scalar row/diagonal engines and
    /// tests, but is gone from the block hot loop).
    ///
    /// Semantics are exactly those of feeding every valid cell through
    /// [`DiagTracker::on_cell`]: the ascending-`i` tie-break is preserved
    /// (each block diagonal is scanned in ascending lane = ascending `i`
    /// order against the carried-over maximum from other blocks), and cells
    /// on already-finalized anti-diagonals (run-ahead past termination) are
    /// skipped whole-diagonal at a time.
    ///
    /// Generic over the block side `B`: the fold walks the first `2B−1`
    /// staged diagonals, so both geometries share one code path and cannot
    /// diverge semantically.
    pub fn on_block<const B: usize>(&mut self, cells: &BlockCellsT<i32, B>) {
        self.fold_block(cells.i0(), cells.j0(), &cells.mask, B as i64, |d, l| cells.h[d][l]);
    }

    /// [`DiagTracker::on_block`] for the 16-bit fill tier: folds a
    /// 16-bit staging buffer of either geometry, whose valid lanes hold
    /// offsets from the block's `base`. Offset plus base is bit-identical to
    /// the i32 tiers' value under the `i16_exact` gate, so the fold observes
    /// exactly the same scores; every variant reduces a diagonal on the raw
    /// offsets (the argmax is offset-invariant) and adds the base to the
    /// winner.
    ///
    /// The staging buffer must come from a gate-admitted i16 fill: that
    /// guarantees every valid lane holds a *real* offset (strictly above the
    /// masked-lane sentinel band), which the vectorised per-diagonal argmax
    /// below relies on. Fills driven past the gate would already have
    /// corrupted values; this fold adds no failure mode of its own.
    pub fn on_block_i16<const B: usize>(&mut self, cells: &BlockCellsT<i16, B>) {
        #[cfg(target_arch = "x86_64")]
        match self.fold_backend {
            // SAFETY: `fold_backend` is the detected backend or a cap below
            // it, and detection reports a vector variant only after the
            // runtime CPU check for its feature level.
            crate::simd::WavefrontBackend::Avx512 => {
                return unsafe { self.on_block_i16_avx512(cells) }
            }
            crate::simd::WavefrontBackend::Avx2 => return unsafe { self.on_block_i16_avx2(cells) },
            crate::simd::WavefrontBackend::Sse41 => {
                return unsafe { self.on_block_i16_sse41(cells) }
            }
            crate::simd::WavefrontBackend::Portable => {}
        }
        self.fold_block(cells.i0(), cells.j0(), &cells.mask, B as i64, |d, l| {
            i32::from(cells.h[d][l]) + cells.base
        });
    }

    /// Vectorised [`DiagTracker::on_block_i16`] body: the shared fold
    /// scaffold with `phminposuw` as the per-diagonal argmax — it computes
    /// the local maximum *and* its smallest lane (the canonical
    /// ascending-`i` tie-break) in a single instruction, via the
    /// order-reversing map `y = 0x7FFF - h` (max-`h` with ties to the
    /// smallest lane becomes min-`y` at the first index, which is exactly
    /// what `phminposuw` returns). Masked lanes hold [`crate::simd::NEG_INF16`],
    /// whose `y` is strictly above every real lane's, so they never win.
    ///
    /// `phminposuw` is 128-bit only, so the wide geometry (`B = 16`) reduces
    /// each half-row separately and merges with ties to the low half — lane
    /// numbers ascend with `i`, so "low half on ties" is the same
    /// ascending-`i` tie-break. `inline(always)` with no `target_feature`
    /// of its own so each feature wrapper below recompiles it at its own
    /// feature level (the AVX2 copy gets VEX encodings); never codegenned
    /// standalone.
    ///
    /// # Safety
    /// Requires SSE4.1 (guaranteed by both wrappers).
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn fold_i16_vector<const B: usize>(&mut self, cells: &BlockCellsT<i16, B>) {
        #[allow(clippy::wildcard_imports)]
        use std::arch::x86_64::*;
        let bias = _mm_set1_epi16(i16::MAX);
        // Staged lanes are offsets from the block's base; the argmax is
        // offset-invariant, so the base joins after the reduction.
        let top = i32::from(i16::MAX) + cells.base;
        // One 128-bit reduction: order-reversed min over the eight i16 lanes
        // `row[at..at + 8]`, returning (score, lane).
        let minpos = |row: &[i16; B], at: usize| {
            // Wrapping `0x7FFF - h` is the exact u16 bit pattern of the
            // order-reversed score, for the full i16 range.
            let y = _mm_sub_epi16(bias, load8(row, at));
            let packed = _mm_cvtsi128_si32(_mm_minpos_epu16(y)) as u32;
            (top - i32::from((packed & 0xFFFF) as u16), at + ((packed >> 16) as usize & 7))
        };
        self.fold_block_argmax(
            cells.i0(),
            cells.j0(),
            &cells.mask,
            B as i64,
            |d, _lo, _hi| {
                let (h, l) = minpos(&cells.h[d], 0);
                if B == crate::BLOCK {
                    return (h, l);
                }
                // Wide row: reduce the high half too; strict `>` keeps the
                // low half (smaller `i`) on equal scores.
                let (h_hi, l_hi) = minpos(&cells.h[d], 8);
                if h_hi > h {
                    (h_hi, l_hi)
                } else {
                    (h, l)
                }
            },
            |d, l| i32::from(cells.h[d][l]) + cells.base,
        );
    }

    /// [`DiagTracker::fold_i16_vector`] at SSE4.1 codegen.
    ///
    /// # Safety
    /// Requires SSE4.1 (checked by the dispatcher).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse4.1")]
    unsafe fn on_block_i16_sse41<const B: usize>(&mut self, cells: &BlockCellsT<i16, B>) {
        self.fold_i16_vector(cells);
    }

    /// [`DiagTracker::fold_i16_vector`] at AVX2 codegen (VEX encodings).
    ///
    /// # Safety
    /// Requires AVX2 (checked by the dispatcher).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn on_block_i16_avx2<const B: usize>(&mut self, cells: &BlockCellsT<i16, B>) {
        self.fold_i16_vector(cells);
    }

    /// [`DiagTracker::on_block_i16`] at the AVX-512 level. For the wide
    /// geometry this is a *batched* fold, not the shared scaffold: phase 1
    /// runs the `phminposuw` argmax over every staged row branch-free
    /// (masked lanes hold [`crate::simd::NEG_INF16`] so invalid rows cost
    /// nothing to reduce and are discarded by mask later), packing each
    /// row's result into a single order-reversed key
    /// `(y << 4) | (half << 3) | lane` whose numeric minimum is the
    /// maximum `H` at its smallest lane — the canonical ascending-`i`
    /// tie-break (`y = 0x7FFF − h` descends as `h` ascends; the half bit
    /// and lane index break ties toward smaller `i`). Phase 2 then merges
    /// all 31 candidates into the per-anti-diagonal `local_score` /
    /// `local_i` arrays — which a block's rows hit *contiguously* at
    /// `c0..c0+31` — as two 16-lane masked compare/blend/store steps, and
    /// folds the `seen` accounting into the same masked windows (a
    /// nibble-LUT popcount over the staged mask vectors replaces the
    /// scaffold's 31 scalar read-modify-writes).
    ///
    /// The point is the merge: the scaffold's per-row scalar
    /// read-compare-update is a data-dependent branch per diagonal
    /// (mispredicted whenever a block does or does not improve on the
    /// carried maximum — i.e. constantly, on real workloads), and those
    /// mispredictions dominate the shared fold's cost at B = 16. The
    /// mask-register merge is branch-free, and the fault-suppressing
    /// masked loads/stores let the two 16-lane steps straddle the table
    /// edge without scalar tail handling. Run-ahead rows (`c < next`),
    /// empty rows, and rows past the last valid diagonal are all cleared
    /// from one `valid` bitmask; `seen` accounting, the `qend` column
    /// extract, and the debug-build band checks mirror the scaffold
    /// exactly.
    ///
    /// # Safety
    /// Requires AVX-512BW/VL (checked by the dispatcher; AVX-512F and the
    /// SSE4.1 `phminposuw` ride along on any AVX-512 machine).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512bw,avx512vl")]
    unsafe fn on_block_i16_avx512<const B: usize>(&mut self, cells: &BlockCellsT<i16, B>) {
        #[allow(clippy::wildcard_imports)]
        use std::arch::x86_64::*;
        if B == crate::BLOCK {
            // Narrow staging: eight lanes per row and eight rows of merge
            // give the batched path nothing to amortize; run the shared
            // fold at AVX-512 codegen.
            return self.fold_i16_vector(cells);
        }
        let diags = 2 * B - 1;
        let i0 = cells.i0();
        let j0 = cells.j0();
        let c0 = i0 as usize + j0 as usize;

        // Valid rows: non-empty mask, not run-ahead past a finalized
        // diagonal. One bit per staged row, built from two 16-lane mask
        // compares (the second load is masked: the staging array holds
        // `MAX_BLOCK_DIAGS` = 31 rows, one short of two full vectors).
        let mp = cells.mask.as_ptr().cast::<i16>();
        debug_assert!(cells.mask.len() >= 16 + 15, "two mask vectors past the staged masks");
        // SAFETY: masks 0..16 and, under the 15-lane load mask, 16..31 are in
        // bounds (asserted).
        let m_lo = _mm256_loadu_si256(mp.cast::<__m256i>());
        let m_hi = _mm256_maskz_loadu_epi16(0x7FFF, mp.add(16));
        let z = _mm256_setzero_si256();
        let mut valid = u32::from(_mm256_cmpneq_epi16_mask(m_lo, z))
            | u32::from(_mm256_cmpneq_epi16_mask(m_hi, z)) << 16;
        valid &= (1u32 << diags) - 1;
        let skip = self.next.saturating_sub(c0).min(diags);
        valid &= !0u32 << skip;
        if valid == 0 {
            return;
        }
        let hi_d = 31 - valid.leading_zeros() as usize;
        debug_assert!(c0 + hi_d < self.total, "block diagonal {} outside table", c0 + hi_d);

        #[cfg(debug_assertions)]
        for d in skip..=hi_d {
            let m = cells.mask[d];
            if m == 0 {
                continue;
            }
            let lo = m.trailing_zeros() as usize;
            let hi = 15 - m.leading_zeros() as usize;
            debug_assert_eq!(m, ((1u32 << (hi + 1)) - (1 << lo)) as u16, "mask must be a run");
            for l in lo..=hi {
                let i = i64::from(i0) + l as i64;
                let c = (c0 + d) as i64;
                debug_assert!(
                    (i - (c - i)).abs() <= self.w,
                    "out-of-band cell ({i},{}) staged for tracker (w = {})",
                    c - i,
                    self.w
                );
            }
        }

        // Phase 1: branch-free per-row argmax. Each half-row reduces with
        // one `phminposuw` on the order-reversed map `y = 0x7FFF − h`
        // (exact over the full i16 range; see
        // [`DiagTracker::fold_i16_vector`]), packing to `(lane << 16) | y`.
        // Structural skip: block diagonal `d` only occupies lanes
        // `max(0, d−B+1)..=min(d, B−1)`, so rows `d < 8` have an empty high
        // half and rows `d ≥ B+7` an empty low half — those reductions are
        // dropped outright and their slots keep the `u32::MAX` sentinel,
        // whose phase-2 key (`0xFFFFF`) is ≥ every computed key, losing
        // each `min` (a tie is only possible against an identical
        // candidate, which decodes identically).
        let bias = _mm_set1_epi16(i16::MAX);
        let mut packed_lo = [u32::MAX; MAX_BLOCK_DIAGS + 1];
        let mut packed_hi = [u32::MAX; MAX_BLOCK_DIAGS + 1];
        let minpos = |row: &[i16; B], at: usize| -> u32 {
            _mm_cvtsi128_si32(_mm_minpos_epu16(_mm_sub_epi16(bias, load8(row, at)))) as u32
        };
        // Live rows only (bit-scan over `valid`): edge and run-ahead
        // blocks stage far fewer than 2B−1 live rows, and reducing their
        // dead rows would cost more than the whole merge. Interior blocks
        // walk every bit, same as a plain loop.
        let seg = |lo: u32, hi: u32| valid & (!0u32 << lo) & ((1u64 << hi) as u32).wrapping_sub(1);
        let mut v = seg(0, 8);
        while v != 0 {
            let d = v.trailing_zeros() as usize;
            v &= v - 1;
            packed_lo[d] = minpos(&cells.h[d], 0);
        }
        let mut v = seg(8, B as u32 + 7);
        while v != 0 {
            let d = v.trailing_zeros() as usize;
            v &= v - 1;
            packed_lo[d] = minpos(&cells.h[d], 0);
            packed_hi[d] = minpos(&cells.h[d], 8);
        }
        let mut v = seg(B as u32 + 7, 32);
        while v != 0 {
            let d = v.trailing_zeros() as usize;
            v &= v - 1;
            packed_hi[d] = minpos(&cells.h[d], 8);
        }

        // Phase 2: two 16-row merge steps over the contiguous
        // `local_score[c0..]` / `local_i[c0..]` windows, with the `seen`
        // accounting folded into the same masked windows: a nibble-LUT
        // popcount over the staged mask vectors (per-byte table lookup,
        // then a `maddubs` byte-pair sum per u16 lane) replaces the
        // scaffold's 31 scalar read-modify-writes — dead lanes add
        // nothing, exactly like the scaffold skipping them, because the
        // `live` mask gates the store and empty live rows popcount to 0.
        let pop_lut = _mm256_broadcastsi128_si256(_mm_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        ));
        let nibble = _mm256_set1_epi8(0x0F);
        let byte_ones = _mm256_set1_epi8(1);
        let popcnt16 = |m: __m256i| -> __m256i {
            let lo = _mm256_shuffle_epi8(pop_lut, _mm256_and_si256(m, nibble));
            let hi =
                _mm256_shuffle_epi8(pop_lut, _mm256_and_si256(_mm256_srli_epi16::<4>(m), nibble));
            _mm256_maddubs_epi16(_mm256_add_epi8(lo, hi), byte_ones)
        };
        let v_ffff = _mm512_set1_epi32(0xFFFF);
        let v_half = _mm512_set1_epi32(1 << 3);
        // Staged lanes are offsets from the block's base; the keys order
        // offsets, and the base joins when a key is decoded to a score.
        let v_bias = _mm512_set1_epi32(i32::from(i16::MAX) + cells.base);
        let v_i0 = _mm512_set1_epi32(i0);
        let v_15 = _mm512_set1_epi32(0xF);
        for chunk in 0..diags.div_ceil(16) {
            let k = chunk * 16;
            let live: __mmask16 = (valid >> k) as u16;
            if live == 0 {
                continue;
            }
            // (y << 4) | (half << 3) | lane, minimized across halves: the
            // numeric min is max-H first, then low half, then low lane —
            // decoding the low nibble yields the row lane directly
            // (half * 8 + minpos index).
            debug_assert!(k + 16 <= packed_lo.len(), "key chunk past the packed rows");
            // SAFETY: `packed_lo[k..k + 16]` and `packed_hi[k..k + 16]` are in
            // bounds (asserted; the arrays have one length).
            let pl = _mm512_loadu_epi32(packed_lo.as_ptr().add(k).cast::<i32>());
            let ph = _mm512_loadu_epi32(packed_hi.as_ptr().add(k).cast::<i32>());
            let key_lo = _mm512_or_epi32(
                _mm512_slli_epi32::<4>(_mm512_and_epi32(pl, v_ffff)),
                _mm512_srli_epi32::<16>(pl),
            );
            let key_hi = _mm512_or_epi32(
                _mm512_or_epi32(_mm512_slli_epi32::<4>(_mm512_and_epi32(ph, v_ffff)), v_half),
                _mm512_srli_epi32::<16>(ph),
            );
            let kmin = _mm512_min_epu32(key_lo, key_hi);
            let cand_h = _mm512_sub_epi32(v_bias, _mm512_srli_epi32::<4>(kmin));
            let cand_i = _mm512_add_epi32(v_i0, _mm512_and_epi32(kmin, v_15));
            // Fault-suppressing masked loads: dead lanes may sit past the
            // table's last diagonal.
            let base = c0 + k;
            // `seen` accounting for the chunk's live rows. SAFETY: masked
            // lanes are neither read nor written, and the highest live lane
            // is inside the three `total`-sized vectors (asserted).
            debug_assert!(
                base + (15 - live.leading_zeros() as usize) < self.total
                    && self.seen.len() == self.total
                    && self.local_score.len() == self.total
                    && self.local_i.len() == self.total,
                "live merge lane past the tracker's diagonals"
            );
            let counts = _mm512_cvtepi16_epi32(popcnt16(if chunk == 0 { m_lo } else { m_hi }));
            let seen_ptr = self.seen.as_mut_ptr().cast::<i32>();
            let cur_seen = _mm512_maskz_loadu_epi32(live, seen_ptr.add(base));
            _mm512_mask_storeu_epi32(seen_ptr.add(base), live, _mm512_add_epi32(cur_seen, counts));
            let cur_h = _mm512_maskz_loadu_epi32(live, self.local_score.as_ptr().add(base));
            let cur_i = _mm512_maskz_loadu_epi32(live, self.local_i.as_ptr().add(base));
            // Canonical merge: higher score wins; equal score goes to the
            // smaller `i`.
            let gt = _mm512_cmpgt_epi32_mask(cand_h, cur_h);
            let eq = _mm512_cmpeq_epi32_mask(cand_h, cur_h);
            let lt_i = _mm512_cmplt_epi32_mask(cand_i, cur_i);
            let upd = (gt | (eq & lt_i)) & live;
            _mm512_mask_storeu_epi32(self.local_score.as_mut_ptr().add(base), upd, cand_h);
            _mm512_mask_storeu_epi32(self.local_i.as_mut_ptr().add(base), upd, cand_i);
        }

        // The unique last-query-column cell per diagonal (lane `l = d − kq`),
        // extracted scalar — at most one run of rows per block touches it.
        let kq = self.m - 1 - i64::from(j0);
        if (0..B as i64).contains(&kq) {
            let kq = kq as usize;
            for d in kq.max(skip)..=(kq + B - 1).min(hi_d) {
                let lq = d - kq;
                if cells.mask[d] & (1 << lq) != 0 {
                    self.qend[c0 + d] = i32::from(cells.h[d][lq]) + cells.base;
                }
            }
        }
    }

    /// Shared whole-block fold: semantics of feeding every valid cell
    /// through [`DiagTracker::on_cell`], with the ascending-`i` tie-break
    /// preserved and run-ahead diagonals skipped whole. `h(d, l)` reads the
    /// staged masked `H` value of lane `l` on block diagonal `d`.
    #[inline(always)]
    fn fold_block(
        &mut self,
        i0: i32,
        j0: i32,
        mask: &[u16; MAX_BLOCK_DIAGS],
        b: i64,
        h: impl Fn(usize, usize) -> i32,
    ) {
        self.fold_block_argmax(
            i0,
            j0,
            mask,
            b,
            |d, lo, hi| {
                // Ascending-lane scan with strict `>`: equal scores keep
                // the earlier (smaller-`i`) lane.
                let mut best = h(d, lo);
                let mut best_l = lo;
                for l in lo + 1..=hi {
                    let hv = h(d, l);
                    if hv > best {
                        best = hv;
                        best_l = l;
                    }
                }
                (best, best_l)
            },
            &h,
        );
    }

    /// The one fold scaffold both tracker folds share (run-ahead skip,
    /// `seen` accounting, carried-max merge, `qend` extraction), so the
    /// vector and scalar folds cannot drift apart. `argmax(d, lo, hi)`
    /// returns the diagonal's maximum staged `H` over valid lanes
    /// `lo..=hi` and the *smallest* lane attaining it; `h(d, l)` reads one
    /// staged value. Folding the diagonal-local argmax into the carried
    /// maximum with the same (score desc, `i` asc) order is equivalent to
    /// the reference ascending-`i` per-cell scan.
    ///
    /// Geometry arrives as one runtime value (`b` lanes per diagonal; the
    /// `2b−1` staged-diagonal count follows from it) so the one scaffold
    /// serves every monomorphization of the public folds.
    #[inline(always)]
    fn fold_block_argmax(
        &mut self,
        i0: i32,
        j0: i32,
        mask: &[u16; MAX_BLOCK_DIAGS],
        b: i64,
        mut argmax: impl FnMut(usize, usize, usize) -> (i32, usize),
        h: impl Fn(usize, usize) -> i32,
    ) {
        let diags = block_diags(b as usize);
        let c0 = i0 as usize + j0 as usize;
        // At most one cell per anti-diagonal sits on the last query column
        // (j == m-1): lane l = d - kq. Constant across the block.
        let kq = self.m - 1 - j0 as i64;
        let block_touches_qend = (0..b).contains(&kq);
        for (d, &m) in mask.iter().enumerate().take(diags) {
            if m == 0 {
                continue; // no valid cell on this block diagonal
            }
            let c = c0 + d;
            if c < self.next {
                continue; // run-ahead past a finalized diagonal
            }
            debug_assert!(c < self.total, "block diagonal {c} outside table");
            self.seen[c] += m.count_ones();
            // Valid lanes form a contiguous run in ascending `i`. The
            // uniform `15 − lz` works for both geometries: a B=8 mask only
            // occupies the low byte, so its leading_zeros are ≥ 8.
            let lo = m.trailing_zeros() as usize;
            let hi = 15 - m.leading_zeros() as usize;
            debug_assert_eq!(m, ((1u32 << (hi + 1)) - (1 << lo)) as u16, "mask must be a run");
            // Every staged valid lane must be in band, not just the argmax
            // lane — a wrong band mask whose extra cell scores below the
            // diagonal max would otherwise slip past debug builds.
            #[cfg(debug_assertions)]
            for l in lo..=hi {
                let i = i64::from(i0) + l as i64;
                debug_assert!(
                    (i - (c as i64 - i)).abs() <= self.w,
                    "out-of-band cell ({i},{}) staged for tracker (w = {})",
                    c as i64 - i,
                    self.w
                );
            }
            let (best, l) = argmax(d, lo, hi);
            debug_assert!((lo..=hi).contains(&l), "argmax lane {l} outside valid run");
            let i = i0 + l as i32;
            // Merge with the carried-over maximum from other blocks under
            // the canonical tie-break: smallest `i` wins equal scores.
            if best > self.local_score[c] || (best == self.local_score[c] && i < self.local_i[c]) {
                self.local_score[c] = best;
                self.local_i[c] = i;
            }
            if block_touches_qend {
                let lq = d as i64 - kq;
                if (lo as i64..=hi as i64).contains(&lq) {
                    self.qend[c] = h(d, lq as usize);
                }
            }
        }
    }

    /// Record one computed in-band cell. Cells may arrive in any order;
    /// cells on already-finalized diagonals (run-ahead after termination)
    /// are ignored.
    #[inline]
    pub fn on_cell(&mut self, i: i32, j: i32, h: i32) {
        let c = (i + j) as usize;
        debug_assert!(c < self.total, "cell ({i},{j}) outside table");
        debug_assert!(
            (i as i64 - j as i64).abs() <= self.w,
            "out-of-band cell ({i},{j}) fed to tracker (w = {})",
            self.w
        );
        if c < self.next {
            return; // run-ahead past a finalized diagonal
        }
        self.seen[c] += 1;
        // Canonical tie-break: smallest `i` wins equal scores, matching the
        // scalar reference's ascending-i scan.
        if h > self.local_score[c] || (h == self.local_score[c] && i < self.local_i[c]) {
            self.local_score[c] = h;
            self.local_i[c] = i;
        }
        if j as i64 == self.m - 1 {
            self.qend[c] = h;
        }
    }

    /// Expected number of in-band cells on diagonal `c`.
    #[inline]
    pub fn expected(&self, c: usize) -> u32 {
        diag_cells(c as i64, self.n, self.m, self.w)
    }

    /// Finalize every complete anti-diagonal in order, applying Z-drop.
    /// Returns the stop reason once the alignment is decided.
    ///
    /// Engines call this at chunk/slice boundaries; calling it more or less
    /// often changes only run-ahead cost, never the result.
    pub fn advance(&mut self) -> Option<StopReason> {
        if self.finished.is_some() {
            return self.finished;
        }
        while self.next < self.cutoff {
            let c = self.next;
            let expected = self.expected(c);
            if self.seen[c] < expected {
                return None; // incomplete; engines must keep filling
            }
            debug_assert!(
                self.seen[c] == expected,
                "diagonal {c}: saw {} cells, expected {expected}",
                self.seen[c]
            );
            let local = MaxCell {
                score: self.local_score[c],
                i: self.local_i[c],
                j: c as i32 - self.local_i[c],
            };
            self.cells += expected as u64;
            self.next = c + 1;
            if self.zdrop_enabled
                && zdrop_triggered(self.global, local, self.zdrop, self.gap_extend)
            {
                self.finished = Some(StopReason::ZDrop { antidiag: c as u32 });
                return self.finished;
            }
            self.global.fold(local);
            if self.qend[c] > NEG_INF {
                let v = self.qend[c];
                self.qend_best = Some(self.qend_best.map_or(v, |q| q.max(v)));
            }
        }
        self.finished = Some(if self.cutoff == self.total {
            StopReason::Completed
        } else {
            StopReason::BandExhausted { antidiag: self.cutoff as u32 }
        });
        self.finished
    }

    /// Whether the alignment outcome is decided.
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// Index of the next anti-diagonal awaiting finalization.
    #[inline]
    pub fn frontier(&self) -> usize {
        self.next
    }

    /// Total anti-diagonals of the full table.
    #[inline]
    pub fn total_diags(&self) -> usize {
        self.total
    }

    /// Running global maximum (the GMB contents).
    #[inline]
    pub fn global_max(&self) -> MaxCell {
        self.global
    }

    /// Reference-semantics cell count over finalized diagonals.
    #[inline]
    pub fn reference_cells(&self) -> u64 {
        self.cells
    }

    /// Consume the tracker into the final result. Must only be called once
    /// [`DiagTracker::advance`] reported a stop reason (engines that filled
    /// the whole table can call `advance` first).
    pub fn result(mut self) -> GuidedResult {
        self.take_result()
    }

    /// Like [`DiagTracker::result`] but keeps the tracker (and its
    /// allocations) alive so it can be [`DiagTracker::reset`] for the next
    /// task. The tracker's state is unspecified afterwards except that
    /// `reset` restores it fully.
    pub fn take_result(&mut self) -> GuidedResult {
        let stop = self.advance().expect(
            "DiagTracker::result called before the alignment was decided \
             (some anti-diagonal never completed)",
        );
        let antidiags = match stop {
            StopReason::Completed => self.total as u32,
            StopReason::ZDrop { antidiag } => antidiag + 1,
            StopReason::BandExhausted { antidiag } => antidiag,
        };
        GuidedResult {
            score: self.global.score,
            max: self.global,
            qend_score: self.qend_best,
            stop,
            antidiags,
            cells: self.cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guided::{diag_range, guided_align};
    use crate::pack::PackedSeq;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_str_seq(s)
    }

    /// Drive the tracker with a full scalar DP in *reverse row* order to
    /// prove order-independence, and compare to the reference.
    fn tracker_replay(r: &str, q: &str, scoring: &Scoring) -> GuidedResult {
        let (r, q) = (seq(r), seq(q));
        let reference = guided_align(&r, &q, scoring);
        // Recompute the full banded table with the unguided full-table DP
        // semantics (no termination), then feed cells diag-by-diag but each
        // diagonal's cells in descending i order.
        let big = scoring.with_zdrop(Scoring::NO_ZDROP);
        let n = r.len() as i64;
        let m = q.len() as i64;
        let w = if scoring.banded() { scoring.band_width as i64 } else { n + m };
        // Build H table via the guided reference machinery on a widened Z:
        // simplest is to recompute cell values with a dense DP.
        let dense = dense_banded(&r, &q, &big);
        let mut tracker = DiagTracker::new(r.len(), q.len(), scoring);
        'outer: for c in 0..(n + m - 1) {
            let Some((lo, hi)) = diag_range(c, n, m, w) else { break };
            for i in (lo..=hi).rev() {
                let j = c - i;
                tracker.on_cell(i as i32, j as i32, dense[(i * m + j) as usize]);
            }
            // advance only every 3 diagonals to emulate checkpointing
            if c % 3 == 2 && tracker.advance().is_some() {
                break 'outer;
            }
        }
        let got = tracker.result();
        assert!(got.same_alignment(&reference), "tracker {got:?} vs reference {reference:?}");
        got
    }

    /// Dense banded H table (no termination), reference semantics.
    fn dense_banded(r: &PackedSeq, q: &PackedSeq, scoring: &Scoring) -> Vec<i32> {
        let n = r.len() as i64;
        let m = q.len() as i64;
        let w = if scoring.banded() { scoring.band_width as i64 } else { n + m };
        let oe = scoring.gap_open + scoring.gap_extend;
        let ext = scoring.gap_extend;
        let mut h = vec![NEG_INF; (n * m) as usize];
        let mut e = vec![NEG_INF; (n * m) as usize];
        let mut f = vec![NEG_INF; (n * m) as usize];
        for i in 0..n {
            for j in 0..m {
                if (i - j).abs() > w {
                    continue;
                }
                let idx = (i * m + j) as usize;
                let up_h = if i == 0 {
                    scoring.border(j as i32)
                } else if (i - 1 - j).abs() <= w {
                    h[idx - m as usize]
                } else {
                    NEG_INF
                };
                let up_e =
                    if i == 0 || (i - 1 - j).abs() > w { NEG_INF } else { e[idx - m as usize] };
                let left_h = if j == 0 {
                    scoring.border(i as i32)
                } else if (i - (j - 1)).abs() <= w {
                    h[idx - 1]
                } else {
                    NEG_INF
                };
                let left_f = if j == 0 || (i - (j - 1)).abs() > w { NEG_INF } else { f[idx - 1] };
                let diag = if i == 0 && j == 0 {
                    0
                } else if i == 0 {
                    scoring.border((j - 1) as i32)
                } else if j == 0 {
                    scoring.border((i - 1) as i32)
                } else if (i - j).abs() <= w {
                    h[idx - m as usize - 1]
                } else {
                    NEG_INF
                };
                let ev = (up_h - oe).max(up_e - ext);
                let fv = (left_h - oe).max(left_f - ext);
                let sub = scoring.substitution(r.code(i as usize), q.code(j as usize));
                e[idx] = ev;
                f[idx] = fv;
                h[idx] = ev.max(fv).max(diag.saturating_add(sub));
            }
        }
        h
    }

    #[test]
    fn order_independent_no_guides() {
        let s = Scoring::figure1();
        tracker_replay("AGATAGAT", "AGACTATC", &s);
        tracker_replay("ACGTACGTACGTAC", "ACGTTCGTACGAAC", &s);
    }

    #[test]
    fn order_independent_with_band() {
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 3);
        tracker_replay("ACGTACGTACGTACGT", "ACGTACGTACGTACGT", &s);
        tracker_replay("ACGTACGTACGTACGTAAAA", "ACGTACGTACGT", &s);
    }

    #[test]
    fn order_independent_with_zdrop() {
        let s = Scoring::new(2, 4, 4, 2, 10, 5);
        tracker_replay("ACGTACGTACGTGGGGGGGGGGGGGGGG", "ACGTACGTACGTCCCCCCCCCCCCCCCC", &s);
    }

    #[test]
    fn runahead_cells_after_termination_ignored() {
        let s = Scoring::new(2, 4, 4, 2, 4, Scoring::NO_BAND);
        let (r, q) = ("ACGTACGTGGGGGGGG", "ACGTACGTCCCCCCCC");
        let reference = guided_align(&seq(r), &seq(q), &s);
        assert!(reference.stop.z_dropped());
        // Feed the *entire* table (as a run-ahead engine would), then check.
        let dense = dense_banded(&seq(r), &seq(q), &s.with_zdrop(Scoring::NO_ZDROP));
        let n = r.len() as i64;
        let m = q.len() as i64;
        let mut tracker = DiagTracker::new(r.len(), q.len(), &s);
        for c in 0..(n + m - 1) {
            let (lo, hi) = diag_range(c, n, m, n + m).unwrap();
            for i in lo..=hi {
                tracker.on_cell(i as i32, (c - i) as i32, dense[(i * m + (c - i)) as usize]);
            }
        }
        let got = tracker.result();
        assert!(got.same_alignment(&reference), "{got:?} vs {reference:?}");
    }

    #[test]
    fn reset_matches_fresh_tracker() {
        // A tracker reused across tasks of different geometry (including a
        // z-dropping one) must be indistinguishable from a fresh tracker.
        let cases = [
            ("AGATAGAT", "AGACTATC", Scoring::figure1()),
            ("ACGTACGTGGGGGGGG", "ACGTACGTCCCCCCCC", Scoring::new(2, 4, 4, 2, 4, Scoring::NO_BAND)),
            ("ACGT", "ACGTACGTACGT", Scoring::new(2, 4, 4, 2, Scoring::NO_BAND, 3)),
        ];
        let mut reused = DiagTracker::new(0, 0, &Scoring::figure1());
        for (r, q, s) in &cases {
            let (rp, qp) = (seq(r), seq(q));
            let dense = dense_banded(&rp, &qp, &s.with_zdrop(Scoring::NO_ZDROP));
            let n = rp.len() as i64;
            let m = qp.len() as i64;
            let w = if s.banded() { s.band_width as i64 } else { n + m };
            let mut fresh = DiagTracker::new(rp.len(), qp.len(), s);
            reused.reset(rp.len(), qp.len(), s);
            for c in 0..(n + m - 1) {
                let Some((lo, hi)) = diag_range(c, n, m, w) else { continue };
                for i in lo..=hi {
                    let h = dense[(i * m + (c - i)) as usize];
                    fresh.on_cell(i as i32, (c - i) as i32, h);
                    reused.on_cell(i as i32, (c - i) as i32, h);
                }
            }
            let want = fresh.result();
            let got = reused.take_result();
            assert_eq!(got, want, "reused tracker diverged on ({r}, {q})");
        }
    }

    #[test]
    fn band_cutoff_closed_form_matches_the_scan() {
        // The closed form against the definition (first diagonal with no
        // in-band cell), over degenerate, square, tall and wide tables and
        // bands from the bare main diagonal to wider than the table.
        let dims: &[usize] =
            if cfg!(miri) { &[0, 1, 2, 9, 40] } else { &[0, 1, 2, 3, 7, 8, 9, 40, 257] };
        let mut exhausted = 0;
        for &n in dims {
            for &m in dims {
                let total = if n == 0 || m == 0 { 0 } else { n + m - 1 };
                let (ni, mi) = (n as i64, m as i64);
                for w in [0, 1, 2, 3, 7, 8, 15, 16, 17, 100, ni + mi, ni + mi + 5, 1 << 31] {
                    let scan = (0..total)
                        .find(|&c| crate::guided::diag_cells(c as i64, ni, mi, w) == 0)
                        .unwrap_or(total);
                    assert_eq!(band_cutoff(n, m, w, total), scan, "n={n} m={m} w={w}");
                    exhausted += usize::from(scan < total);
                }
            }
        }
        assert!(exhausted > 50, "only {exhausted} cases exhausted their band");
        // The tracker reports what the closed form found.
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 2);
        let t = DiagTracker::new(64, 5, &s);
        assert_eq!(t.cutoff, 2 + 2 * 5 - 1);
        assert!(t.cutoff < t.total);
    }

    #[test]
    fn on_block_equals_per_cell_feed() {
        // Feed the same dense table to one tracker cell by cell and to
        // another block by block (staged through BlockCells); every
        // observable (result, frontier behaviour, run-ahead skips) must
        // agree, including the ascending-i tie-break on equal scores.
        use crate::block::{compute_block, corner_read, north_read, west_init, BlockCtx};
        use crate::BLOCK;

        let cases = [
            ("AGATAGATAGA", "AGACTATCA", Scoring::figure1()),
            ("ACGTACGTACGTACGTACGT", "ACGTACGTTCGTACGTACGA", Scoring::new(2, 4, 4, 2, 10, 3)),
            ("AAAAAAAAAAAAAAAA", "AAAAAAAAAAAAAAAA", Scoring::figure1()), // many score ties
        ];
        for (r, q, s) in &cases {
            let (rp, qp) = (seq(r), seq(q));
            let ctx = BlockCtx::new(rp.len(), qp.len(), s);
            let b = BLOCK as i64;
            let padded_n = (ctx.ref_blocks() * b) as usize;
            let mut row_h = vec![NEG_INF; padded_n];
            let mut row_f = vec![NEG_INF; padded_n];
            let (mut rb, mut qb) = ([0u8; BLOCK], [0u8; BLOCK]);
            let mut cells = crate::block::BlockCells::new();
            let mut per_cell = DiagTracker::new(rp.len(), qp.len(), s);
            let mut per_block = DiagTracker::new(rp.len(), qp.len(), s);
            for bj in 0..ctx.query_blocks() {
                let j0 = bj * b;
                let Some((lo, hi)) = ctx.row_block_range(bj) else { continue };
                qp.unpack_block(j0 as usize, &mut qb);
                let (mut wh, mut we) = west_init(&ctx, lo * b, j0);
                let mut corner = corner_read(&ctx, lo * b, j0, &row_h);
                for bi in lo..=hi {
                    let i0 = bi * b;
                    rp.unpack_block(i0 as usize, &mut rb);
                    let (mut nh, mut nf) = north_read(&ctx, i0, j0, &row_h, &row_f);
                    let next_corner = nh[BLOCK - 1];
                    compute_block(
                        &ctx, i0, j0, &rb, &qb, corner, &mut wh, &mut we, &mut nh, &mut nf,
                        &mut cells,
                    );
                    per_block.on_block(&cells);
                    for d in 0..crate::block::BLOCK_DIAGS {
                        for l in 0..BLOCK {
                            if cells.mask[d] & (1 << l) != 0 {
                                let i = cells.i0() + l as i32;
                                let j = cells.j0() + (d - l) as i32;
                                per_cell.on_cell(i, j, cells.h[d][l]);
                            }
                        }
                    }
                    row_h[i0 as usize..i0 as usize + BLOCK].copy_from_slice(&nh);
                    row_f[i0 as usize..i0 as usize + BLOCK].copy_from_slice(&nf);
                    corner = next_corner;
                }
                // Advance both (mid-stream, to exercise run-ahead skips).
                let a = per_cell.advance();
                let bstop = per_block.advance();
                assert_eq!(a, bstop, "case ({r},{q})");
                assert_eq!(per_cell.frontier(), per_block.frontier());
                if a.is_some() {
                    break;
                }
            }
            let want = per_cell.take_result();
            let got = per_block.take_result();
            assert_eq!(got, want, "case ({r},{q})");
        }
    }

    #[test]
    #[should_panic(expected = "32 bits")]
    fn oversized_task_rejected_at_reset() {
        let _ = DiagTracker::new(crate::task::MAX_SEQ_LEN + 1, 4, &Scoring::figure1());
    }

    #[test]
    fn empty_task_finishes_immediately() {
        let s = Scoring::figure1();
        let mut t = DiagTracker::new(0, 5, &s);
        assert_eq!(t.advance(), Some(StopReason::Completed));
        let r = t.result();
        assert_eq!(r.score, 0);
    }

    #[test]
    fn frontier_blocks_on_incomplete_diag() {
        let s = Scoring::figure1();
        let mut t = DiagTracker::new(4, 4, &s);
        t.on_cell(0, 0, 2);
        assert!(t.advance().is_none());
        assert_eq!(t.frontier(), 1);
        // diag 1 has 2 cells; feed only one
        t.on_cell(0, 1, -4);
        assert!(t.advance().is_none());
        assert_eq!(t.frontier(), 1);
        t.on_cell(1, 0, -4);
        assert!(t.advance().is_none());
        assert_eq!(t.frontier(), 2);
    }

    #[test]
    #[should_panic(expected = "never completed")]
    fn result_panics_when_cells_missing() {
        let s = Scoring::figure1();
        let t = DiagTracker::new(4, 4, &s);
        let _ = t.result();
    }
}
