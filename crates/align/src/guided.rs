//! Exact scalar reference for **guided alignment**: banded affine-gap DP
//! with the Z-drop termination condition, processed anti-diagonal by
//! anti-diagonal (the "reference algorithm" every GPU engine must match).
//!
//! ## Semantics (the workspace-wide exactness contract)
//!
//! * Recurrences (paper Eq. 1–3), with the gap-open term read as
//!   *open-then-extend* — a gap of length `k` costs `α + k·β` — which is
//!   Minimap2/ksw2's convention and the one consistent with the paper's own
//!   Figure 1 border values (`-6, -8, -10, …` for `α=4, β=2`):
//!
//!   ```text
//!   E(i,j) = max(H(i-1,j) - (α+β), E(i-1,j) - β)
//!   F(i,j) = max(H(i,j-1) - (α+β), F(i,j-1) - β)
//!   H(i,j) = max(E(i,j), F(i,j), H(i-1,j-1) + S(R[i], Q[j]))
//!   ```
//!
//! * Borders: `H(-1,-1) = 0`, `H(i,-1) = H(-1,i) = -(α + (i+1)·β)`;
//!   `E`/`F` are `-∞` outside the table.
//! * Band: cell `(i,j)` exists iff `|i - j| ≤ w`; out-of-band neighbours
//!   read as `-∞`.
//! * Termination (Eq. 4–7): for each anti-diagonal `c = i + j` in increasing
//!   order, with `(i,j)` the in-band local maximum of `c` and `(i',j')` the
//!   running global maximum over anti-diagonals `< c` (seeded with the
//!   origin, score 0 at `(-1,-1)`), terminate iff
//!   `i' < i ∧ j' < j ∧ H(i',j') - H(i,j) > Z + β·|(i-i') - (j-j')|`.
//!   On termination the result is the global maximum *excluding* `c`;
//!   otherwise `c`'s local maximum is folded into the global maximum and the
//!   scan continues.

use crate::pack::PackedSeq;
use crate::result::{GuidedResult, MaxCell, StopReason};
use crate::scoring::Scoring;
use crate::NEG_INF;

/// Reusable buffers for [`guided_align_ws`]; avoids per-task allocation in
/// batch runs (see the perf-book guidance on workhorse collections).
#[derive(Debug, Default)]
pub struct GuidedWorkspace {
    h: [Vec<i32>; 3],
    e: [Vec<i32>; 2],
    f: [Vec<i32>; 2],
}

impl GuidedWorkspace {
    /// Fresh workspace; buffers grow on demand.
    pub fn new() -> GuidedWorkspace {
        GuidedWorkspace::default()
    }

    fn reset(&mut self, n: usize) {
        for buf in self.h.iter_mut().chain(self.e.iter_mut()).chain(self.f.iter_mut()) {
            buf.clear();
            buf.resize(n, NEG_INF);
        }
    }
}

/// Inclusive in-band `i`-range of anti-diagonal `c` for an `n × m` table
/// with band half-width `w`, or `None` when the diagonal has no in-band
/// cells.
///
/// A cell `(i, j=c-i)` exists iff `0 ≤ i < n`, `0 ≤ j < m` and
/// `|2i - c| ≤ w`.
#[inline]
pub fn diag_range(c: i64, n: i64, m: i64, w: i64) -> Option<(i64, i64)> {
    let lo = 0.max(c - m + 1).max((c - w + 1).div_euclid(2));
    let hi = (n - 1).min(c).min((c + w).div_euclid(2));
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

/// Number of in-band cells on anti-diagonal `c`.
#[inline]
pub fn diag_cells(c: i64, n: i64, m: i64, w: i64) -> u32 {
    diag_range(c, n, m, w).map_or(0, |(lo, hi)| (hi - lo + 1) as u32)
}

/// Evaluate the Z-drop condition (Eq. 5) between a running global maximum
/// and a local (anti-diagonal) maximum. Returns `true` when the alignment
/// must terminate.
#[inline]
pub fn zdrop_triggered(global: MaxCell, local: MaxCell, zdrop: i32, gap_extend: i32) -> bool {
    if !(global.i < local.i && global.j < local.j) {
        return false;
    }
    let diag_gap = ((local.i - global.i) - (local.j - global.j)).abs();
    (global.score as i64 - local.score as i64) > zdrop as i64 + gap_extend as i64 * diag_gap as i64
}

/// Align `query` against `reference` under `scoring`, allocating internal
/// buffers. See [`guided_align_ws`] for the batch-friendly variant.
pub fn guided_align(reference: &PackedSeq, query: &PackedSeq, scoring: &Scoring) -> GuidedResult {
    guided_align_ws(reference, query, scoring, &mut GuidedWorkspace::new())
}

/// Align using caller-provided buffers.
pub fn guided_align_ws(
    reference: &PackedSeq,
    query: &PackedSeq,
    scoring: &Scoring,
    ws: &mut GuidedWorkspace,
) -> GuidedResult {
    guided_align_until(reference, query, scoring, ws, exact_zdrop(scoring), |_, _, _, _| {})
}

/// The exact termination test (Eq. 4–7) as a `stop_at` rule for
/// [`guided_align_until`].
pub(crate) fn exact_zdrop(scoring: &Scoring) -> impl Fn(i64, MaxCell, MaxCell) -> bool + '_ {
    |_, global, local| {
        scoring.zdrop_enabled() && zdrop_triggered(global, local, scoring.zdrop, scoring.gap_extend)
    }
}

/// The candidates one cell's maxima chose between (Eq. 1–3):
/// `E = max(e_open, e_extend)`, `F = max(f_open, f_extend)` and
/// `H = max(E, F, diag)`.
#[derive(Debug, Clone, Copy)]
pub struct CellCandidates {
    /// `H(i-1,j) - (α+β)`.
    pub e_open: i32,
    /// `E(i-1,j) - β`.
    pub e_extend: i32,
    /// `H(i,j-1) - (α+β)`.
    pub f_open: i32,
    /// `F(i,j-1) - β`.
    pub f_extend: i32,
    /// `H(i-1,j-1) + S(R[i], Q[j])`.
    pub diag: i32,
    /// `H(i,j)`.
    pub h: i32,
}

impl CellCandidates {
    /// The cell whose `H` is the best of these five candidates.
    #[inline]
    pub(crate) fn new(e_open: i32, e_extend: i32, f_open: i32, f_extend: i32, diag: i32) -> Self {
        let h = e_open.max(e_extend).max(f_open.max(f_extend)).max(diag);
        CellCandidates { e_open, e_extend, f_open, f_extend, diag, h }
    }

    /// `E(i,j)`.
    #[inline]
    pub(crate) fn e(&self) -> i32 {
        self.e_open.max(self.e_extend)
    }

    /// `F(i,j)`.
    #[inline]
    pub(crate) fn f(&self) -> i32 {
        self.f_open.max(self.f_extend)
    }
}

/// The anti-diagonal DP loop with its termination test and a per-cell
/// observer as parameters.
///
/// After anti-diagonal `c` is filled, `stop_at(c, global, local)` sees the
/// running global maximum over diagonals `< c` and `c`'s local maximum, and
/// `true` ends the scan as [`StopReason::ZDrop`] with `c` excluded.
/// [`guided_align_ws`] passes the exact Z-drop rule (Eq. 4–7); a baseline
/// modelling an approximate rule passes its own.
///
/// `observe(i, j, lo, &cell)` sees every computed cell, anti-diagonal by
/// anti-diagonal and by rising `i` within one, where `lo` is the first
/// in-band `i` of anti-diagonal `i + j`. Score-only callers pass a no-op;
/// [`crate::traceback::guided_align_traced`] records directions.
pub fn guided_align_until(
    reference: &PackedSeq,
    query: &PackedSeq,
    scoring: &Scoring,
    ws: &mut GuidedWorkspace,
    mut stop_at: impl FnMut(i64, MaxCell, MaxCell) -> bool,
    mut observe: impl FnMut(i64, i64, i64, &CellCandidates),
) -> GuidedResult {
    let n = reference.len() as i64;
    let m = query.len() as i64;
    if n == 0 || m == 0 {
        return GuidedResult {
            score: 0,
            max: MaxCell::ORIGIN,
            qend_score: None,
            stop: StopReason::Completed,
            antidiags: 0,
            cells: 0,
        };
    }
    let w = if scoring.banded() { scoring.band_width as i64 } else { n + m };
    let open_ext = scoring.gap_open + scoring.gap_extend;
    let ext = scoring.gap_extend;

    ws.reset(n as usize);

    let rcodes: Vec<u8> = reference.to_codes();
    let qcodes: Vec<u8> = query.to_codes();

    let mut global = MaxCell::ORIGIN;
    let mut qend_score: Option<i32> = None;
    let mut cells: u64 = 0;

    let total_diags = n + m - 1;
    let mut stop = StopReason::Completed;
    let mut last_diag: i64 = -1;

    // Index of the buffer holding anti-diagonal (c - k) for k = 1, 2.
    for c in 0..total_diags {
        let Some((lo, hi)) = diag_range(c, n, m, w) else {
            stop = StopReason::BandExhausted { antidiag: c as u32 };
            break;
        };
        let (h_slot, h_prev_slot, h_prev2_slot) =
            ((c % 3) as usize, ((c + 2) % 3) as usize, ((c + 1) % 3) as usize);
        let ef_slot = (c % 2) as usize;
        let ef_prev_slot = ((c + 1) % 2) as usize;

        let mut local = MaxCell { score: NEG_INF, i: -1, j: -1 };
        let mut diag_qend: Option<i32> = None;

        for i in lo..=hi {
            let j = c - i;
            let iu = i as usize;

            let up_h = if i == 0 { scoring.border(j as i32) } else { ws.h[h_prev_slot][iu - 1] };
            let up_e = if i == 0 { NEG_INF } else { ws.e[ef_prev_slot][iu - 1] };
            let left_h = if j == 0 { scoring.border(i as i32) } else { ws.h[h_prev_slot][iu] };
            let left_f = if j == 0 { NEG_INF } else { ws.f[ef_prev_slot][iu] };
            let diag_h = if i == 0 && j == 0 {
                0
            } else if i == 0 {
                scoring.border((j - 1) as i32)
            } else if j == 0 {
                scoring.border((i - 1) as i32)
            } else {
                ws.h[h_prev2_slot][iu - 1]
            };

            let sub = scoring.substitution(rcodes[iu], qcodes[j as usize]);
            let cell = CellCandidates::new(
                up_h - open_ext,
                up_e - ext,
                left_h - open_ext,
                left_f - ext,
                diag_h.saturating_add(sub),
            );
            observe(i, j, lo, &cell);
            let h = cell.h;

            ws.h[h_slot][iu] = h;
            ws.e[ef_slot][iu] = cell.e();
            ws.f[ef_slot][iu] = cell.f();

            if h > local.score {
                local = MaxCell { score: h, i: i as i32, j: j as i32 };
            }
            if j == m - 1 {
                diag_qend = Some(h);
            }
        }
        cells += (hi - lo + 1) as u64;
        last_diag = c;

        // Sentinels: neighbours just outside the written range must read -∞
        // on the next two diagonals (band edges / range shifts).
        if lo > 0 {
            ws.h[h_slot][(lo - 1) as usize] = NEG_INF;
            ws.e[ef_slot][(lo - 1) as usize] = NEG_INF;
            ws.f[ef_slot][(lo - 1) as usize] = NEG_INF;
        }
        if hi + 1 < n {
            ws.h[h_slot][(hi + 1) as usize] = NEG_INF;
            ws.e[ef_slot][(hi + 1) as usize] = NEG_INF;
            ws.f[ef_slot][(hi + 1) as usize] = NEG_INF;
        }

        if stop_at(c, global, local) {
            stop = StopReason::ZDrop { antidiag: c as u32 };
            break;
        }
        global.fold(local);
        if let Some(v) = diag_qend {
            qend_score = Some(qend_score.map_or(v, |q| q.max(v)));
        }
    }

    GuidedResult {
        score: global.score,
        max: global,
        qend_score,
        stop,
        antidiags: (last_diag + 1) as u32,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_str_seq(s)
    }

    #[test]
    fn perfect_match_scores_len_times_match() {
        let s = Scoring::figure1(); // match +2
        let r = guided_align(&seq("AGATTACA"), &seq("AGATTACA"), &s);
        assert_eq!(r.score, 16);
        assert_eq!(r.max, MaxCell { score: 16, i: 7, j: 7 });
        assert_eq!(r.stop, StopReason::Completed);
        assert_eq!(r.qend_score, Some(16));
        assert_eq!(r.antidiags, 15);
        assert_eq!(r.cells, 64);
    }

    #[test]
    fn empty_inputs() {
        let s = Scoring::figure1();
        let r = guided_align(&seq(""), &seq("ACGT"), &s);
        assert_eq!(r.score, 0);
        assert_eq!(r.max, MaxCell::ORIGIN);
        assert_eq!(r.cells, 0);
    }

    #[test]
    fn single_mismatch_middle() {
        let s = Scoring::figure1(); // match +2, mismatch -4
        let r = guided_align(&seq("AAAAAAA"), &seq("AAATAAA"), &s);
        // 6 matches + 1 mismatch = 12 - 4 = 8
        assert_eq!(r.score, 8);
        assert_eq!(r.max.i, 6);
        assert_eq!(r.max.j, 6);
    }

    #[test]
    fn single_insertion_uses_affine_cost() {
        // query has one extra base
        let s = Scoring::figure1(); // α=4, β=2 → 1-gap costs 6
        let r = guided_align(&seq("AAAAAAAA"), &seq("AAAATAAAA"), &s);
        // 8 matches (16) minus gap(1) = 6 → 10
        assert_eq!(r.score, 10);
    }

    #[test]
    fn long_gap_extends_cheaply() {
        let s = Scoring::figure1();
        // 12 reference matches with a 2-base query insertion in the middle:
        // 12 matches (24) minus gap(2) = 4+2*2 = 8 → 16, which beats both the
        // 4-match prefix (8) and the gapless mismatch path (12).
        let r = guided_align(&seq(&"A".repeat(12)), &seq("AAAATTAAAAAAAA"), &s);
        assert_eq!(r.score, 16);
        // And a longer gap costs only β more per base: gap(4) = 12 → 12.
        let r = guided_align(&seq(&"A".repeat(12)), &seq("AAAATTTTAAAAAAAA"), &s);
        assert_eq!(r.score, 12);
    }

    #[test]
    fn score_never_negative() {
        let s = Scoring::figure1();
        let r = guided_align(&seq("AAAAAAAA"), &seq("GGGGGGGG"), &s);
        assert_eq!(r.score, 0);
        assert_eq!(r.max, MaxCell::ORIGIN);
    }

    #[test]
    fn prefix_match_then_junk_keeps_prefix_score() {
        let s = Scoring::figure1().with_zdrop(Scoring::NO_ZDROP);
        let r = guided_align(&seq("ACGTACGTGGGGGGGG"), &seq("ACGTACGTCCCCCCCC"), &s);
        assert_eq!(r.score, 16); // 8-match prefix
        assert_eq!(r.max.i, 7);
        assert_eq!(r.max.j, 7);
    }

    #[test]
    fn zdrop_terminates_on_junk_tail() {
        // Long matching prefix followed by pure mismatch: the score drops by
        // (match+mismatch)=6 per diagonal step, so with Z=12 it must stop
        // soon after the junk starts, well before the table end.
        let prefix = "ACGTACGTACGTACGT"; // 16 matches → score 32
        let r_tail = "G".repeat(40);
        let q_tail = "C".repeat(40);
        let s = Scoring::new(2, 4, 4, 2, 12, Scoring::NO_BAND);
        let r = guided_align(
            &seq(&format!("{prefix}{r_tail}")),
            &seq(&format!("{prefix}{q_tail}")),
            &s,
        );
        assert_eq!(r.score, 32);
        assert_eq!(r.max.i, 15);
        assert_eq!(r.max.j, 15);
        assert!(r.stop.z_dropped(), "stop was {:?}", r.stop);
        let t = r.stop.antidiag().unwrap();
        assert!(t > 30 && t < 50, "terminated at {t}");
        assert!(r.qend_score.is_none(), "must stop before reaching query end");
    }

    #[test]
    fn no_zdrop_completes_on_junk_tail() {
        let prefix = "ACGTACGTACGTACGT";
        let tail = "G".repeat(40);
        let tail_q = "C".repeat(40);
        let s = Scoring::figure1();
        let r =
            guided_align(&seq(&format!("{prefix}{tail}")), &seq(&format!("{prefix}{tail_q}")), &s);
        assert_eq!(r.stop, StopReason::Completed);
        assert_eq!(r.score, 32);
    }

    #[test]
    fn band_restricts_large_offsets() {
        // A 6-base insertion shifts the tail onto the offset-6 diagonal,
        // which a band of 2 cannot reach.
        let prefix = "ACGA";
        let suffix = "CGCACGCACGCACGCA"; // 16 bases, no T runs
        let reference = format!("{prefix}{suffix}");
        let query = format!("{prefix}TTTTTT{suffix}");
        let banded = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 2);
        let r = guided_align(&seq(&reference), &seq(&query), &banded);
        let r2 = guided_align(&seq(&reference), &seq(&query), &banded.with_band(Scoring::NO_BAND));
        // Unbanded: 20 matches (40) - gap(6) = 16 → 24; banded: prefix only.
        assert_eq!(r2.score, 24);
        assert!(r.score < r2.score, "banded {} vs unbanded {}", r.score, r2.score);
    }

    #[test]
    fn band_exhaustion_reported_when_band_cannot_reach_end() {
        // n >> m with a band narrower than the length difference: trailing
        // anti-diagonals have no in-band cells.
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 2);
        let r = guided_align(&seq(&"A".repeat(64)), &seq("AAAA"), &s);
        assert!(matches!(r.stop, StopReason::BandExhausted { .. }), "{:?}", r.stop);
    }

    #[test]
    fn diag_range_basics() {
        // 4x4 table, unbounded band.
        assert_eq!(diag_range(0, 4, 4, 100), Some((0, 0)));
        assert_eq!(diag_range(3, 4, 4, 100), Some((0, 3)));
        assert_eq!(diag_range(6, 4, 4, 100), Some((3, 3)));
        assert_eq!(diag_range(7, 4, 4, 100), None);
        // band w=1 on diag 3: |2i-3|<=1 → i in {1,2}
        assert_eq!(diag_range(3, 4, 4, 1), Some((1, 2)));
        assert_eq!(diag_cells(3, 4, 4, 1), 2);
    }

    #[test]
    fn diag_cells_sum_equals_band_area() {
        let (n, m, w) = (13i64, 9i64, 3i64);
        let total: u64 = (0..n + m - 1).map(|c| diag_cells(c, n, m, w) as u64).sum();
        let mut expect = 0u64;
        for i in 0..n {
            for j in 0..m {
                if (i - j).abs() <= w {
                    expect += 1;
                }
            }
        }
        assert_eq!(total, expect);
    }

    #[test]
    fn zdrop_condition_respects_position_constraint() {
        let g = MaxCell { score: 100, i: 10, j: 10 };
        // Local max up-left of global: no termination regardless of drop.
        let l = MaxCell { score: -100, i: 5, j: 12 };
        assert!(!zdrop_triggered(g, l, 10, 2));
        let l2 = MaxCell { score: -100, i: 12, j: 12 };
        assert!(zdrop_triggered(g, l2, 10, 2));
        // Gap-adjusted threshold: drop of 20, |Δi-Δj| = 4 → 10 + 2*4 = 18 < 20.
        let l3 = MaxCell { score: 80, i: 16, j: 12 };
        assert!(zdrop_triggered(g, l3, 10, 2));
        // Same drop, threshold 12 + 2*4 = 20: not strictly greater → no stop.
        assert!(!zdrop_triggered(g, l3, 12, 2));
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let s = Scoring::figure1();
        let mut ws = GuidedWorkspace::new();
        let r1 = guided_align_ws(&seq("ACGTACGT"), &seq("ACGTACGT"), &s, &mut ws);
        // Run a longer task, then the first again: identical results.
        let _ = guided_align_ws(&seq(&"ACGT".repeat(20)), &seq(&"ACGA".repeat(20)), &s, &mut ws);
        let r2 = guided_align_ws(&seq("ACGTACGT"), &seq("ACGTACGT"), &s, &mut ws);
        assert_eq!(r1, r2);
    }
}
