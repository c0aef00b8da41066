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
//!
//! Cells arrive one at a time ([`DiagTracker::on_cell`], the definition) or
//! a staged block at a time, through two folds held to it on whole tracker
//! state: the scalar reference [`DiagTracker::on_block`] for the scalar
//! fill's i32 staging, and the one vector fold [`DiagTracker::fold_block`]
//! for the wavefront's i16 staging —
//! written once over the [`crate::simd`] lane layer, which owns everything
//! backend-specific (instantiation, feature levels, dispatch).
//!
//! Finalizing is batched too. [`DiagTracker::advance`] does not step
//! diagonal by diagonal: one compare of `seen` against the closed-form
//! expected counts per chunk of 16 diagonals finds how far the complete
//! run reaches, and the run folds as reductions — its first largest local
//! maximum, its largest `qend`, and its largest fall below the running
//! global maximum, which decides whether any diagonal of it could Z-drop
//! (only a run that could is walked one diagonal at a time, to the drop).
//! Each of the four per-diagonal arrays carries `WINDOW` slack entries past
//! the table, so both a staged window and a chunk from any unfinalized
//! diagonal read in bounds. The i16 wavefront finalizes at the end of each
//! segment it fills, inside its feature wrapper, so those loops run on the
//! fill's vector level; the tests keep the per-diagonal loop as the
//! reference the batched one is held to, field by field.

use crate::block::BlockCellsT;
use crate::guided::{diag_cells, zdrop_triggered};
use crate::result::{GuidedResult, MaxCell, StopReason};
use crate::scoring::Scoring;
use crate::simd::{Lanes, Portable};
use crate::{NEG_INF, STAGE_ROWS as WINDOW};

/// Diagonals [`DiagTracker::advance`] checks for completion per compare; a
/// chunk must fit the slack.
pub(crate) const CHUNK: usize = 16;

/// Tracks per-anti-diagonal completion, local maxima and the Z-drop
/// condition for one alignment task.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct DiagTracker {
    n: i64,
    m: i64,
    w: i64,
    zdrop: i32,
    gap_extend: i32,
    zdrop_enabled: bool,
    /// cells seen so far on each anti-diagonal. This and the other three
    /// per-diagonal arrays carry `WINDOW` (= [`crate::STAGE_ROWS`], what one
    /// fold merges) never-finalized slack entries past `total`, so the
    /// window `c0..c0 + WINDOW` of every staged buffer, and every batch
    /// [`DiagTracker::advance`] reads, is in bounds.
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

/// The `WINDOW` per-diagonal entries a staged buffer at diagonal `c0` merges
/// into.
#[inline(always)]
fn window<T>(v: &mut [T], c0: usize) -> &mut [T; WINDOW] {
    v[c0..].first_chunk_mut().expect("tracker slack covers every staged window")
}

/// Step 3 of [`DiagTracker::fold_block`], a function of its own so that the
/// three windows are known not to alias: row `d`'s key `(y << 5) | lane`
/// becomes a candidate `(base + 0x7FFF − y, i0 − (B−1) + d + lane)`, merged
/// into `score[d]` / `best_i[d]` where bit `d` of `open` is set; `seen[d]`
/// gains the popcount of the row's mask where bit `d` of `live` is.
#[inline(always)]
fn merge_window<const B: usize>(
    seen: &mut [u32; WINDOW],
    score: &mut [i32; WINDOW],
    best_i: &mut [i32; WINDOW],
    keys: &[u32; WINDOW],
    (live, open): (u32, u32),
    cells: &BlockCellsT<i16, B>,
) {
    let (top, lane0) = (i32::from(i16::MAX) + cells.base, cells.lane0());
    // A loop of its own: over a lane array the popcount vectorises (to a
    // nibble table lookup); inside the merge it is bit-twiddling per row
    // wherever the feature level has no `popcnt`.
    let mut counts = [0u32; WINDOW];
    for (count, m) in counts.iter_mut().zip(cells.mask) {
        *count = m.count_ones();
    }
    if open == 0 {
        for (seen, (&count, d)) in seen.iter_mut().zip(counts.iter().zip(0..)) {
            *seen += count & (-((live >> d & 1) as i32)) as u32;
        }
        return;
    }
    for (d, &k) in keys.iter().enumerate() {
        let (h, i) = (top - (k >> 5) as i32, lane0 + d as i32 + (k & 31) as i32);
        // All-ones lane masks, blended by hand: an `if` here may come back
        // as a branch per diagonal at the levels without masked stores.
        let (live, open) = (-((live >> d & 1) as i32), -((open >> d & 1) as i32));
        let better = open & -i32::from((h > score[d]) | ((h == score[d]) & (i < best_i[d])));
        score[d] = h & better | score[d] & !better;
        best_i[d] = i & better | best_i[d] & !better;
        seen[d] += counts[d] & live as u32;
    }
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
        self.seen.resize(total + WINDOW, 0);
        self.local_score.clear();
        self.local_score.resize(total + WINDOW, NEG_INF);
        self.local_i.clear();
        self.local_i.resize(total + WINDOW, -1);
        self.qend.clear();
        self.qend.resize(total + WINDOW, NEG_INF);
        self.next = 0;
        self.cutoff = band_cutoff(n, m, w, total);
        self.total = total;
        self.global = MaxCell::ORIGIN;
        self.qend_best = None;
        self.finished = if total == 0 { Some(StopReason::Completed) } else { None };
    }

    /// Debug-build contract of one live staged row — diagonal `c`, lane 0 at
    /// reference position `i0`: the diagonal is inside the table, its mask
    /// `m` is one run of lanes, and *every* valid lane is in band, not just
    /// the argmax lane — a wrong band mask whose extra cell scores below the
    /// diagonal max would otherwise slip past debug builds.
    #[inline(always)]
    fn debug_check_row(&self, i0: i32, c: usize, m: u32) {
        debug_assert!(c < self.total, "block diagonal {c} outside table");
        let (lo, hi) = (m.trailing_zeros(), 31 - m.leading_zeros());
        debug_assert_eq!(m, ((1u64 << (hi + 1)) - (1 << lo)) as u32, "mask must be a run");
        for i in i64::from(i0) + i64::from(lo)..=i64::from(i0) + i64::from(hi) {
            let j = c as i64 - i;
            debug_assert!(
                (i - j).abs() <= self.w,
                "out-of-band cell ({i},{j}) staged for tracker (w = {})",
                self.w
            );
        }
    }

    /// Fold one computed block's staged cells in a single call. This is the
    /// scalar reference fold (i32 staging: the reference fill), and with
    /// [`DiagTracker::on_cell`] what the vector fold behind
    /// [`DiagTracker::on_block_i16`] is held to.
    ///
    /// Semantics are exactly those of feeding every valid cell through
    /// [`DiagTracker::on_cell`]: each staged diagonal is scanned in ascending
    /// lane = ascending `i` order with a strict `>` (equal scores keep the
    /// smaller `i`), its argmax merged into the carried-over maximum from
    /// other blocks under the same (score desc, `i` asc) order, and cells on
    /// already-finalized anti-diagonals (run-ahead past termination) are
    /// skipped whole-diagonal at a time. The scan walks each mask's run
    /// `lo..=hi` because [`crate::block::fill_scalar`] leaves out-of-shape
    /// slots unspecified.
    pub fn on_block<const B: usize>(&mut self, cells: &BlockCellsT<i32, B>) {
        let c0 = cells.i0() as usize + cells.j0() as usize;
        let lane0 = cells.lane0();
        // At most one cell per anti-diagonal sits on the last query column
        // (j == m-1): this lane, when the block row holds that column.
        let lq = i64::from(cells.j0()) + B as i64 - self.m;
        for (d, &m) in cells.mask.iter().enumerate() {
            let c = c0 + d;
            if m == 0 || c < self.next {
                continue; // no valid cell, or run-ahead past a finalized diagonal
            }
            self.debug_check_row(lane0 + d as i32, c, m);
            self.seen[c] += m.count_ones();
            // The uniform `31 − lz` works for every geometry: a narrower
            // mask only occupies the low bits, so its leading_zeros are more.
            let lo = m.trailing_zeros() as usize;
            let hi = 31 - m.leading_zeros() as usize;
            let row = &cells.h[d];
            let (mut best, mut best_l) = (row[lo], lo);
            for (l, &h) in row[..=hi].iter().enumerate().skip(lo + 1) {
                if h > best {
                    (best, best_l) = (h, l);
                }
            }
            let i = lane0 + (d + best_l) as i32;
            if best > self.local_score[c] || (best == self.local_score[c] && i < self.local_i[c]) {
                self.local_score[c] = best;
                self.local_i[c] = i;
            }
            if (lo as i64..=hi as i64).contains(&lq) {
                self.qend[c] = row[lq as usize];
            }
        }
    }

    /// [`DiagTracker::on_block`] for the i16 wavefront: folds a 16-bit
    /// staging buffer of a single block (`B ≤` [`crate::MAX_BLOCK`], whose
    /// `2B−1` diagonals fit one window), whose valid lanes hold offsets
    /// from the buffer's `base`, on the lanes of the backend that staged it
    /// ([`crate::simd::fold_wavefront_i16`]). Offset plus base is
    /// bit-identical to the scalar fill's value under the `i16_exact` gate,
    /// so the fold observes exactly the same scores.
    ///
    /// The staging buffer must come from a gate-admitted i16 fill: that
    /// guarantees every valid lane holds a *real* offset (strictly above the
    /// masked-lane sentinel band) and every masked lane
    /// [`crate::simd::NEG_INF16`], which the row reduce relies on. Fills
    /// driven past the gate would already have corrupted values; this fold
    /// adds no failure mode of its own.
    pub fn on_block_i16<const B: usize>(&mut self, cells: &BlockCellsT<i16, B>) {
        crate::simd::fold_wavefront_i16(self, cells);
    }

    /// The one vector fold, generic over the geometry and the lane impl
    /// (`inline(always)` with no feature attribute of its own, like
    /// [`crate::simd`]'s fill: each instantiation compiles inside the feature
    /// wrapper, or the portable dispatch arm, that names it). A staged row
    /// *is* a table anti-diagonal — of a single block or of one window of a
    /// row segment's wavefront alike — so the fold is three steps:
    ///
    /// 1. *Live rows* — non-empty mask, not run-ahead past a finalized
    ///    diagonal — as one bit per staged row.
    /// 2. *Row reduce*: [`Lanes::max_keys_above`] — per row, the maximum
    ///    `H` at its smallest lane, as one ordered key. Masked lanes hold
    ///    [`crate::simd::NEG_INF16`], whose order-reversed `y` is strictly
    ///    above every real lane's, so they never win and no `lo..=hi` is
    ///    needed; the argmax is offset-invariant, so the base joins when a
    ///    key is decoded. A row whose maximum lies strictly below its
    ///    diagonal's carried one cannot change it, so a lane impl that has
    ///    the maxima of a whole window cheaply (the 32-lane strip's
    ///    reduction tree) closes those rows and looks for the first lane of
    ///    the others only — most rows of a band row off its alignment path.
    /// 3. *Merge*, as plain lane-array code over the `WINDOW` anti-diagonals
    ///    from `c0` — the staged rows hit `local_score` / `local_i` / `seen`
    ///    contiguously: each key decodes to a candidate, which replaces the
    ///    carried maximum under the canonical (score desc, `i` asc) order
    ///    where the row is open; `seen` gains the mask's popcount where it
    ///    is live. All branch-free and gated per lane — the merge of
    ///    [`DiagTracker::on_block`] is a data-dependent branch per diagonal,
    ///    mispredicted whenever a block does or does not improve on the
    ///    carried maximum, i.e. constantly. Dead lanes (empty, run-ahead,
    ///    past the staged rows, in the slack past the table) are rewritten
    ///    unchanged.
    ///
    /// The `j == m−1` extract stays scalar: only the last block row has it.
    #[inline(always)]
    pub(crate) fn fold_block<L: Lanes<B>, const B: usize>(
        &mut self,
        lanes: L,
        cells: &BlockCellsT<i16, B>,
        closed_run: &mut bool,
    ) {
        crate::simd::debug_range_sentinel(cells);
        let c0 = cells.i0() as usize + cells.j0() as usize;
        // The run-ahead rows are cut off after.
        let mut live = lanes.nonzero_rows(&cells.mask);
        let skip = u32::try_from(self.next.saturating_sub(c0)).ok();
        live &= skip.and_then(|skip| u32::MAX.checked_shl(skip)).unwrap_or(0);
        if live == 0 {
            return;
        }
        let live_rows = || (0..WINDOW).filter(|d| live >> d & 1 != 0);
        // (Spelled out because the shift could panic, which would keep the
        // otherwise empty loop alive in release builds.)
        if cfg!(debug_assertions) {
            for d in live_rows() {
                self.debug_check_row(cells.lane0() + d as i32, c0 + d, cells.mask[d]);
            }
        }

        // The live rows that can still raise their diagonal's maximum, and
        // their keys — none, while a segment's windows lie wholly below the
        // maxima carried for their diagonals.
        let floor = window(&mut self.local_score, c0);
        *closed_run = *closed_run && lanes.window_below(&cells.h, floor, cells.base, live);
        let (keys, open) = if *closed_run {
            ([0; WINDOW], 0)
        } else {
            lanes.max_keys_above(&cells.h, floor, cells.base, live)
        };
        merge_window::<B>(
            window(&mut self.seen, c0),
            window(&mut self.local_score, c0),
            window(&mut self.local_i, c0),
            &keys,
            (live, open),
            cells,
        );

        let lq = i64::from(cells.j0()) + B as i64 - self.m;
        if (0..B as i64).contains(&lq) {
            // Every row, the cells off the last query row kept: a select,
            // where a loop over those rows is a branch a row.
            let (qend, lq) = (window(&mut self.qend, c0), lq as usize);
            for (d, (q, (h, &m))) in
                qend.iter_mut().zip(cells.h.iter().zip(&cells.mask)).enumerate()
            {
                let on = live >> d & m >> lq & 1 != 0;
                *q = if on { i32::from(h[lq]) + cells.base } else { *q };
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
    /// often changes only run-ahead cost, never the result. The i16
    /// wavefront also calls it after folding a segment's last window
    /// ([`DiagTracker::advance_inlined`]), so a sweep's own call after the
    /// segment finds the frontier diagonal still incomplete, or the
    /// alignment decided, in one check.
    ///
    /// The complete diagonals finalize as one run, not one step each:
    /// `seen` against the closed-form expected counts, [`CHUNK`] diagonals
    /// per compare, finds how far the run reaches, and
    /// [`DiagTracker::finalize`] folds it chunk by chunk. A chunk from any
    /// diagonal before `total` reads at most [`CHUNK`] `≤ WINDOW` entries,
    /// inside the slack past the table.
    pub fn advance(&mut self) -> Option<StopReason> {
        self.advance_inlined::<_, { crate::BLOCK }>(Portable)
    }

    /// [`DiagTracker::advance`], `inline(always)`: called from inside a
    /// wavefront's feature wrapper, its loops compile at the fill's level
    /// (a chunk's compare is then a handful of vector instructions).
    #[inline(always)]
    pub(crate) fn advance_inlined<L: Lanes<B>, const B: usize>(
        &mut self,
        lanes: L,
    ) -> Option<StopReason> {
        if self.finished.is_some() {
            return self.finished;
        }
        let mut end = self.next;
        if end < self.cutoff && self.seen[end] < self.expected(end) {
            return None; // incomplete; engines must keep filling
        }
        // Chunk by chunk, each compare independent of the last: only the
        // chunk's start carries from one to the next.
        while end < self.cutoff {
            let expected = self.expected_chunk(end);
            let seen =
                self.seen[end..].first_chunk::<CHUNK>().expect("tracker slack covers a chunk");
            let short = lanes.chunk_short(seen, &expected);
            if short != 0 || self.cutoff - end <= CHUNK {
                let done = (short.trailing_zeros() as usize).min(self.cutoff - end);
                debug_assert!(
                    seen[..done] == expected[..done],
                    "diagonals {end}..{}: saw {:?} cells, expected {:?}",
                    end + done,
                    &seen[..done],
                    &expected[..done]
                );
                end += done;
                break;
            }
            debug_assert_eq!(seen, &expected, "diagonals {end}..{}", end + CHUNK);
            end += CHUNK;
        }
        if self.finalize(lanes, end) {
            return self.finished;
        }
        if end < self.cutoff {
            return None;
        }
        self.finished = Some(if self.cutoff == self.total {
            StopReason::Completed
        } else {
            StopReason::BandExhausted { antidiag: self.cutoff as u32 }
        });
        self.finished
    }

    /// [`DiagTracker::expected`] of the [`CHUNK`] diagonals from `c0`, as
    /// one loop of `i32` lane arithmetic: the band half-width is clamped to
    /// `n + m` (wider bands bind nowhere), so every term fits, and the
    /// halvings are shifts.
    #[inline(always)]
    fn expected_chunk(&self, c0: usize) -> [u32; CHUNK] {
        let (n, m) = (self.n as i32, self.m as i32);
        let w = self.w.min(self.n + self.m) as i32;
        let mut out = [0u32; CHUNK];
        for (d, e) in out.iter_mut().enumerate() {
            let c = (c0 + d) as i32;
            // `diag_range`: lo = max(0, c − m + 1, ⌈(c − w)/2⌉),
            // hi = min(n − 1, c, ⌊(c + w)/2⌋) — the sum in `u32`.
            let lo = 0.max(c - m + 1).max((c - w + 1) >> 1);
            let hi = (n - 1).min(c).min(((c as u32 + w as u32) >> 1) as i32);
            *e = (hi - lo + 1).max(0) as u32;
        }
        out
    }

    /// Finalize the complete diagonals `next..end` as the per-diagonal
    /// loop would (its scalar twin is in the tests). Returns whether one of
    /// them Z-dropped.
    ///
    /// A diagonal drops only if the global maximum before it exceeds its
    /// local one by more than `zdrop` (the rule's gap term is
    /// non-negative). Within a chunk, that maximum is at most the larger of
    /// the one before the chunk and the chunk's largest local maximum — so
    /// a run none of whose chunks holds a local maximum more than `zdrop`
    /// below that bound, which is every run of an alignment still on
    /// course, cannot drop, and folds as a chunk maximum and one compare
    /// per chunk ([`Lanes::chunk_max`], [`Lanes::chunk_any_below`]) and an
    /// element-wise `qend` maximum. The global maximum becomes the first
    /// diagonal holding the run's largest local maximum if that beats it
    /// (strict `>`: the earliest diagonal keeps a tie). Any other run is
    /// walked diagonal by diagonal up to the drop.
    #[inline(always)]
    fn finalize<L: Lanes<B>, const B: usize>(&mut self, lanes: L, end: usize) -> bool {
        let c0 = self.next;
        if end - c0 < CHUNK {
            return self.finalize_each(end);
        }
        let (mut top, mut raised, mut steep) = (self.global.score, None, false);
        let mut q = [NEG_INF; CHUNK];
        for k in (c0..end).step_by(CHUNK) {
            // The last chunk ends at `end`, overlapping the one before: the
            // maxima are idempotent, and the bound below only grows where
            // `top` includes a later diagonal.
            let k = k.min(end - CHUNK);
            let score = self.local_score[k..].first_chunk::<CHUNK>().expect("a chunk");
            let qend = self.qend[k..].first_chunk::<CHUNK>().expect("a chunk");
            for (q, &v) in q.iter_mut().zip(qend) {
                *q = (*q).max(v);
            }
            let hi = lanes.chunk_max(score);
            // (No overflow while Z-drop is enabled: `zdrop < NO_ZDROP`.)
            steep |= lanes.chunk_any_below(score, top.max(hi).saturating_sub(self.zdrop));
            if hi > top {
                (top, raised) = (hi, Some(k));
            }
        }
        let q = lanes.chunk_max(&q);
        if self.zdrop_enabled && (steep || self.gap_extend < 0) {
            return self.finalize_each(end);
        }
        // The run's maximum first appears in the chunk that raised `top` to
        // it, and nowhere before that chunk.
        if let Some(k) = raised {
            let d = self.local_score[k..end].iter().position(|&s| s == top);
            let c = k + d.expect("the maximum is in its chunk");
            let i = self.local_i[c];
            self.global = MaxCell { score: top, i, j: c as i32 - i };
        }
        if q > NEG_INF {
            self.qend_best = Some(self.qend_best.map_or(q, |b| b.max(q)));
        }
        self.next = end;
        false
    }

    /// [`DiagTracker::finalize`] one diagonal at a time, for a run that may
    /// Z-drop or is shorter than a chunk: the reference semantics, stopping
    /// at the drop.
    #[inline(never)]
    fn finalize_each(&mut self, end: usize) -> bool {
        for c in self.next..end {
            let local = MaxCell {
                score: self.local_score[c],
                i: self.local_i[c],
                j: c as i32 - self.local_i[c],
            };
            self.next = c + 1;
            if self.zdrop_enabled
                && zdrop_triggered(self.global, local, self.zdrop, self.gap_extend)
            {
                self.finished = Some(StopReason::ZDrop { antidiag: c as u32 });
                return true;
            }
            self.global.fold(local);
            if self.qend[c] > NEG_INF {
                let v = self.qend[c];
                self.qend_best = Some(self.qend_best.map_or(v, |q| q.max(v)));
            }
        }
        false
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

    /// Reference-semantics cell count over finalized diagonals: a
    /// finalized diagonal saw exactly its expected cells and takes no more,
    /// so this is the sum of their `seen` — taken when asked for, not at
    /// every finalize.
    #[inline]
    pub fn reference_cells(&self) -> u64 {
        self.seen[..self.next].iter().map(|&s| u64::from(s)).sum()
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
            cells: self.reference_cells(),
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

    impl DiagTracker {
        /// The slack entries past `total` still hold what `reset` wrote:
        /// nothing leaked past the table (or, on a reused tracker, across
        /// tasks).
        pub(crate) fn assert_slack_pristine(&self) {
            assert_eq!(self.seen[self.total..], [0; WINDOW]);
            assert_eq!(self.local_score[self.total..], [NEG_INF; WINDOW]);
            assert_eq!(self.local_i[self.total..], [-1; WINDOW]);
        }
    }

    impl DiagTracker {
        /// The per-diagonal finalize [`DiagTracker::advance`] batches, kept
        /// as its reference: one diagonal at a time, in order.
        fn advance_reference(&mut self) -> Option<StopReason> {
            if self.finished.is_some() {
                return self.finished;
            }
            while self.next < self.cutoff {
                let c = self.next;
                let expected = self.expected(c);
                if self.seen[c] < expected {
                    return None;
                }
                let local = MaxCell {
                    score: self.local_score[c],
                    i: self.local_i[c],
                    j: c as i32 - self.local_i[c],
                };
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
    }

    /// xorshift64: the test's only source of randomness, fixed-seeded.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    #[test]
    fn batched_advance_matches_the_per_diagonal_reference() {
        // Two trackers fed the same cells, one finalizing runs chunk by
        // chunk and one diagonal by diagonal, must agree on every field
        // after every `advance`, and the reference cells must be the sum
        // of the finalized diagonals' expected counts: over tables smaller
        // and larger than a chunk, bands 0, 1, 15 and none, Z-drop on and
        // off, scores from a narrow range around a rise-then-fall trend
        // (ties across diagonals and across lanes, drops that fire early,
        // late or never), fed in a random order in random portions — and
        // diagonal by diagonal in runs one short of, equal to and one past
        // a chunk and two.
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let dims: &[usize] =
            if cfg!(miri) { &[1, 5, 34] } else { &[1, 2, 5, 31, 32, 33, 34, 64, 65, 97, 150] };
        let runs = [CHUNK - 1, CHUNK, CHUNK + 1, 1, 2 * CHUNK - 1, 2 * CHUNK + 1];
        let (mut dropped, mut advances) = (0, 0);
        for &n in dims {
            for &m in dims {
                for band in [0, 1, 15, Scoring::NO_BAND] {
                    for zdrop in [6, Scoring::NO_ZDROP] {
                        let s = Scoring::new(2, 4, 4, 2, zdrop, band);
                        let (ni, mi) = (n as i64, m as i64);
                        let w = if s.banded() { i64::from(band) } else { ni + mi };
                        let peak = rng.below((n + m) as u64) as i32;
                        let mut cells = Vec::new();
                        for c in 0..ni + mi - 1 {
                            let Some((lo, hi)) = diag_range(c, ni, mi, w) else { continue };
                            let trend =
                                if (c as i32) < peak { c as i32 } else { 3 * peak - 2 * c as i32 };
                            for i in lo..=hi {
                                let h = trend / 2 + rng.below(4) as i32;
                                cells.push((i as i32, (c - i) as i32, h));
                            }
                        }
                        for ordered in [false, true] {
                            if !ordered {
                                for k in (1..cells.len()).rev() {
                                    cells.swap(k, rng.below(k as u64 + 1) as usize);
                                }
                            } else {
                                cells.sort_by_key(|&(i, j, _)| (i + j, i));
                            }
                            let mut batched = DiagTracker::new(n, m, &s);
                            let mut reference = batched.clone();
                            let (mut fed, mut run) = (0, 0);
                            while fed < cells.len() {
                                let portion = if ordered {
                                    // The cells of the next `runs[run]` diagonals.
                                    let c_end = cells[fed].0 + cells[fed].1 + runs[run] as i32;
                                    run = (run + 1) % runs.len();
                                    cells[fed..]
                                        .iter()
                                        .take_while(|&&(i, j, _)| i + j < c_end)
                                        .count()
                                } else {
                                    1 + rng.below(2 * CHUNK as u64) as usize
                                };
                                for &(i, j, h) in &cells[fed..(fed + portion).min(cells.len())] {
                                    batched.on_cell(i, j, h);
                                    reference.on_cell(i, j, h);
                                }
                                fed += portion;
                                assert_eq!(batched.advance(), reference.advance_reference());
                                assert_eq!(
                                    batched, reference,
                                    "n={n} m={m} band={band} zdrop={zdrop}"
                                );
                                let finalized = (0..batched.next).map(|c| batched.expected(c));
                                assert_eq!(
                                    batched.reference_cells(),
                                    finalized.map(u64::from).sum::<u64>(),
                                    "n={n} m={m} band={band} zdrop={zdrop}: cells"
                                );
                                advances += 1;
                            }
                            dropped += usize::from(matches!(
                                batched.advance(),
                                Some(StopReason::ZDrop { .. })
                            ));
                        }
                    }
                }
            }
        }
        assert!(dropped > dims.len(), "only {dropped} of the cases dropped");
        assert!(advances > 20 * dims.len(), "only {advances} advances");
    }

    #[test]
    fn reset_matches_fresh_tracker() {
        // A tracker reused across tasks of different geometry (including a
        // z-dropping one, and a large task followed by a tiny one whose
        // slack lands where the large one kept live diagonals) must be
        // indistinguishable from a fresh tracker.
        let long = "ACGTTGCA".repeat(12);
        let cases = [
            ("AGATAGAT", "AGACTATC", Scoring::figure1()),
            ("ACGTACGTGGGGGGGG", "ACGTACGTCCCCCCCC", Scoring::new(2, 4, 4, 2, 4, Scoring::NO_BAND)),
            ("ACGT", "ACGTACGTACGT", Scoring::new(2, 4, 4, 2, Scoring::NO_BAND, 3)),
            (&long, &long, Scoring::figure1()),
            ("AC", "A", Scoring::figure1()),
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
            assert_eq!(reused, fresh, "reset tracker differs from a fresh one on ({r}, {q})");
            reused.assert_slack_pristine();
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
