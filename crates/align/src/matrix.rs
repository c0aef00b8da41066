//! Full (unguided) dynamic-programming table with traceback.
//!
//! This is the textbook `O(N²)` formulation from §2.1, used as an oracle for
//! the banded/guided implementations and to produce human-readable alignments
//! (the "Alignment Result" of Figure 1) in examples. It is **not** meant for
//! long reads — that is the whole point of the paper.

use crate::guided::CellCandidates;
use crate::pack::PackedSeq;
use crate::result::MaxCell;
use crate::scoring::Scoring;
use crate::NEG_INF;

/// One column of the alignment result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// `R[i]` aligned to `Q[j]` and equal.
    Match,
    /// `R[i]` aligned to `Q[j]` and different (or ambiguous).
    Mismatch,
    /// Gap in the query: `R[i]` aligned to `-` (a deletion from the query's
    /// point of view).
    Delete,
    /// Gap in the reference: `Q[j]` aligned to `-` (an insertion).
    Insert,
}

/// A full-table alignment: score, end cell, and the operation list from the
/// extension origin to the maximum cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullAlignment {
    /// Best extension score (`>= 0`; 0 means "do not extend").
    pub score: i32,
    /// Cell achieving the best score (`(-1,-1)` when score is 0).
    pub max: MaxCell,
    /// Operations from `(0,0)` to the maximum cell, in sequence order.
    pub ops: Vec<AlignOp>,
}

impl FullAlignment {
    /// Render the classic three-line alignment view.
    pub fn pretty(&self, reference: &PackedSeq, query: &PackedSeq) -> String {
        let (mut rl, mut ml, mut ql) = (String::new(), String::new(), String::new());
        let (mut i, mut j) = (0usize, 0usize);
        for op in &self.ops {
            match op {
                AlignOp::Match | AlignOp::Mismatch => {
                    rl.push(reference.base(i).to_char());
                    ql.push(query.base(j).to_char());
                    ml.push(if matches!(op, AlignOp::Match) { '|' } else { '.' });
                    i += 1;
                    j += 1;
                }
                AlignOp::Delete => {
                    rl.push(reference.base(i).to_char());
                    ql.push('-');
                    ml.push(' ');
                    i += 1;
                }
                AlignOp::Insert => {
                    rl.push('-');
                    ql.push(query.base(j).to_char());
                    ml.push(' ');
                    j += 1;
                }
            }
        }
        format!("R: {rl}\n   {ml}\nQ: {ql}")
    }

    /// Compact CIGAR-like string (`=`, `X`, `D`, `I` run-length encoded).
    pub fn cigar(&self) -> String {
        cigar(&self.ops)
    }
}

/// Run-length encode `ops` as a CIGAR-like string (`=`, `X`, `D`, `I`).
pub(crate) fn cigar(ops: &[AlignOp]) -> String {
    let mut out = String::new();
    for run in ops.chunk_by(|a, b| a == b) {
        let symbol = match run[0] {
            AlignOp::Match => '=',
            AlignOp::Mismatch => 'X',
            AlignOp::Delete => 'D',
            AlignOp::Insert => 'I',
        };
        out.push_str(&format!("{}{symbol}", run.len()));
    }
    out
}

// Traceback direction encoding, two bits for H's source and one flag each
// for E and F:
const H_FROM_DIAG: u8 = 0;
const H_FROM_E: u8 = 1; // gap along reference (Delete)
const H_FROM_F: u8 = 2; // gap along query (Insert)
const E_EXTEND: u8 = 4; // E came from E(i-1,j) rather than H(i-1,j)
const F_EXTEND: u8 = 8; // F came from F(i,j-1) rather than H(i,j-1)

/// The direction byte of one cell. Ties go to the diagonal, then to `E`,
/// and to opening a gap rather than extending one.
#[inline]
pub(crate) fn direction(cell: &CellCandidates) -> u8 {
    let src = if cell.h == cell.diag {
        H_FROM_DIAG
    } else if cell.h == cell.e() {
        H_FROM_E
    } else {
        H_FROM_F
    };
    let e = if cell.e_extend > cell.e_open { E_EXTEND } else { 0 };
    let f = if cell.f_extend > cell.f_open { F_EXTEND } else { 0 };
    src | e | f
}

/// Maximum table size (cells) accepted by [`full_align`]; larger inputs
/// should use the banded/guided engines.
pub const MAX_FULL_CELLS: usize = 1 << 26;

/// Full-table extension alignment with traceback.
///
/// Panics if `n*m` exceeds [`MAX_FULL_CELLS`].
pub fn full_align(reference: &PackedSeq, query: &PackedSeq, scoring: &Scoring) -> FullAlignment {
    let n = reference.len();
    let m = query.len();
    if n == 0 || m == 0 {
        return FullAlignment { score: 0, max: MaxCell::ORIGIN, ops: Vec::new() };
    }
    assert!(
        n.checked_mul(m).is_some_and(|c| c <= MAX_FULL_CELLS),
        "full_align table too large ({n} x {m}); use the guided engines"
    );
    let open_ext = scoring.gap_open + scoring.gap_extend;
    let ext = scoring.gap_extend;

    let rcodes = reference.to_codes();
    let qcodes = query.to_codes();

    let mut dir = vec![0u8; n * m];
    // Row-major over i; one row of H/E plus running F per column sweep.
    let mut h_row = vec![0i32; m + 1]; // h_row[j+1] = H(i-1, j); h_row[0] = H(i-1, -1)
    let mut e_row = vec![NEG_INF; m + 1];
    // Initialise virtual row i = -1.
    h_row[0] = 0;
    for j in 0..m {
        h_row[j + 1] = scoring.border(j as i32);
    }

    let mut best = MaxCell::ORIGIN;
    for i in 0..n {
        let mut diag_h = h_row[0]; // H(i-1, j-1) as j advances
        h_row[0] = scoring.border(i as i32); // H(i, -1)
        let mut f = NEG_INF;
        let mut left_h = h_row[0];
        for j in 0..m {
            let up_h = h_row[j + 1];
            let up_e = e_row[j + 1];

            let sub = scoring.substitution(rcodes[i], qcodes[j]);
            let cell = CellCandidates::new(
                up_h - open_ext,
                up_e - ext,
                left_h - open_ext,
                f - ext,
                diag_h.saturating_add(sub),
            );
            dir[i * m + j] = direction(&cell);
            let h = cell.h;

            f = cell.f();
            diag_h = up_h;
            h_row[j + 1] = h;
            e_row[j + 1] = cell.e();
            left_h = h;

            if h > best.score {
                best = MaxCell { score: h, i: i as i32, j: j as i32 };
            }
        }
    }

    let ops = traceback(best, |i, j| dir[i * m + j]);
    FullAlignment { score: best.score, max: best, ops }
}

/// Walk a direction table back from `start` to the origin, reading cell
/// `(i, j)`'s byte through `dir` wherever the table keeps it. Diagonal
/// moves come out as [`AlignOp::Match`] until [`classify_ops`] labels them;
/// from [`MaxCell::ORIGIN`] (score 0) the walk is empty.
pub(crate) fn traceback(start: MaxCell, dir: impl Fn(usize, usize) -> u8) -> Vec<AlignOp> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        H,
        E,
        F,
    }
    let mut ops = Vec::new();
    let (mut i, mut j) = (start.i, start.j);
    let mut state = State::H;
    while i >= 0 && j >= 0 {
        let d = dir(i as usize, j as usize);
        match state {
            State::H => match d & 3 {
                H_FROM_DIAG => {
                    ops.push(AlignOp::Match);
                    i -= 1;
                    j -= 1;
                }
                H_FROM_E => state = State::E,
                _ => state = State::F,
            },
            State::E => {
                ops.push(AlignOp::Delete);
                if d & E_EXTEND == 0 {
                    state = State::H;
                }
                i -= 1;
            }
            State::F => {
                ops.push(AlignOp::Insert);
                if d & F_EXTEND == 0 {
                    state = State::H;
                }
                j -= 1;
            }
        }
    }
    // Any leading border gap (i or j still >= 0) is part of the alignment.
    while i >= 0 {
        ops.push(AlignOp::Delete);
        i -= 1;
    }
    while j >= 0 {
        ops.push(AlignOp::Insert);
        j -= 1;
    }
    ops.reverse();
    ops
}

/// Post-process ops to distinguish matches from mismatches (traceback marks
/// all diagonal moves as [`AlignOp::Match`]): a diagonal move is a match iff
/// both residue codes are equal and neither is its sequence's pad code
/// (`N` for DNA, `X` for protein), so an ambiguous residue never matches.
pub fn classify_ops(ops: &mut [AlignOp], reference: &PackedSeq, query: &PackedSeq) {
    let (mut i, mut j) = (0usize, 0usize);
    for op in ops.iter_mut() {
        match op {
            AlignOp::Match | AlignOp::Mismatch => {
                let (r, q) = (reference.code(i), query.code(j));
                let eq = r == q && r != reference.pad() && q != query.pad();
                *op = if eq { AlignOp::Match } else { AlignOp::Mismatch };
                i += 1;
                j += 1;
            }
            AlignOp::Delete => i += 1,
            AlignOp::Insert => j += 1,
        }
    }
}

/// Convenience: align and classify in one call.
pub fn full_align_classified(
    reference: &PackedSeq,
    query: &PackedSeq,
    scoring: &Scoring,
) -> FullAlignment {
    let mut a = full_align(reference, query, scoring);
    classify_ops(&mut a.ops, reference, query);
    a
}

/// Score an operation list under a scoring scheme (for traceback validation).
pub fn score_ops(
    ops: &[AlignOp],
    reference: &PackedSeq,
    query: &PackedSeq,
    scoring: &Scoring,
) -> i32 {
    let mut score = 0i32;
    let (mut i, mut j) = (0usize, 0usize);
    let mut k = 0usize;
    while k < ops.len() {
        match ops[k] {
            AlignOp::Match | AlignOp::Mismatch => {
                score += scoring.substitution(reference.code(i), query.code(j));
                i += 1;
                j += 1;
                k += 1;
            }
            AlignOp::Delete => {
                let mut run = 0;
                while k < ops.len() && ops[k] == AlignOp::Delete {
                    run += 1;
                    k += 1;
                }
                i += run as usize;
                score -= scoring.gap_cost(run);
            }
            AlignOp::Insert => {
                let mut run = 0;
                while k < ops.len() && ops[k] == AlignOp::Insert {
                    run += 1;
                    k += 1;
                }
                j += run as usize;
                score -= scoring.gap_cost(run);
            }
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guided::guided_align;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_str_seq(s)
    }

    #[test]
    fn identity_alignment() {
        let s = Scoring::figure1();
        let a = full_align_classified(&seq("ACGTACGT"), &seq("ACGTACGT"), &s);
        assert_eq!(a.score, 16);
        assert_eq!(a.cigar(), "8=");
    }

    #[test]
    fn mismatch_alignment() {
        // Mismatch penalty (1) small enough that crossing it pays off, so
        // the global max is at the table end rather than the prefix.
        let s = Scoring::new(2, 1, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let a = full_align_classified(&seq("AAAAA"), &seq("AATAA"), &s);
        assert_eq!(a.cigar(), "2=1X2=");
        assert_eq!(a.score, 8 - 1); // 4 matches (8) - mismatch (1)
    }

    #[test]
    fn extension_max_prefers_earliest_tie() {
        // With mismatch -4 the full crossing ties the prefix score, and the
        // canonical semantics keep the earliest maximum.
        let s = Scoring::figure1();
        let a = full_align_classified(&seq("AAAAA"), &seq("AATAA"), &s);
        assert_eq!(a.score, 4);
        assert_eq!((a.max.i, a.max.j), (1, 1));
        assert_eq!(a.cigar(), "2=");
    }

    #[test]
    fn insertion_alignment() {
        let s = Scoring::figure1();
        let a = full_align_classified(&seq("AACCGGTT"), &seq("AACCTGGTT"), &s);
        assert_eq!(a.score, 10);
        assert_eq!(a.cigar(), "4=1I4=");
    }

    #[test]
    fn deletion_alignment() {
        let s = Scoring::figure1();
        let a = full_align_classified(&seq("AACCTGGTT"), &seq("AACCGGTT"), &s);
        assert_eq!(a.score, 10);
        assert_eq!(a.cigar(), "4=1D4=");
    }

    #[test]
    fn traceback_score_matches_dp_score() {
        let s = Scoring::figure1();
        let cases = [
            ("AGATAGAT", "AGACTATC"), // the Figure 1 pair
            ("ACGTACGTACGT", "ACGACGTTACGT"),
            ("TTTTACGT", "ACGTTTTT"),
            ("AGAT", "AGATAGATAGAT"),
        ];
        for (r, q) in cases {
            let (r, q) = (seq(r), seq(q));
            let a = full_align_classified(&r, &q, &s);
            if a.score > 0 {
                assert_eq!(score_ops(&a.ops, &r, &q, &s), a.score, "pair {r:?} {q:?}");
            }
        }
    }

    #[test]
    fn agrees_with_guided_when_unguided() {
        let s = Scoring::figure1(); // no band, no zdrop
        let cases = [
            ("AGATAGAT", "AGACTATC"),
            ("ACGT", "TGCA"),
            ("AAAACCCCGGGG", "AAAAGGGG"),
            ("AGCTAGCTAGCTAA", "AGCTTGCTAGCTAA"),
        ];
        for (r, q) in cases {
            let (r, q) = (seq(r), seq(q));
            let f = full_align(&r, &q, &s);
            let g = guided_align(&r, &q, &s);
            assert_eq!(f.score, g.score, "pair {r:?} {q:?}");
            assert_eq!((f.max.i, f.max.j), (g.max.i, g.max.j), "pair {r:?} {q:?}");
        }
    }

    #[test]
    fn pretty_output_shape() {
        let s = Scoring::figure1();
        let (r, q) = (seq("AACCGGTT"), seq("AACCTGGTT"));
        let a = full_align_classified(&r, &q, &s);
        let p = a.pretty(&r, &q);
        let lines: Vec<&str> = p.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn zero_score_has_no_ops() {
        let s = Scoring::figure1();
        let a = full_align(&seq("AAAA"), &seq("GGGG"), &s);
        assert_eq!(a.score, 0);
        assert!(a.ops.is_empty());
    }
}
