//! Banded guided alignment **with traceback**: the CIGAR-producing variant
//! used when the mapper needs base-level alignments, not only scores.
//!
//! The paper's kernels are score-only (the artifact outputs `score.log`),
//! but Minimap2's pipeline runs a traceback pass over accepted extensions.
//! This module is the reference loop [`crate::guided::guided_align_until`]
//! with a recorder as its per-cell observer, so scores, termination and
//! maxima are [`crate::guided`]'s by construction, followed by
//! [`crate::matrix`]'s walker from the global maximum. Memory is
//! `O(band × antidiags)` direction bytes, bounded by [`MAX_TRACE_CELLS`].

use crate::guided::{exact_zdrop, guided_align_until, CellCandidates, GuidedWorkspace};
use crate::matrix::{classify_ops, direction, traceback, AlignOp};
use crate::pack::PackedSeq;
use crate::result::GuidedResult;
use crate::scoring::Scoring;

/// Maximum number of stored direction cells (band × anti-diagonals).
pub const MAX_TRACE_CELLS: usize = 1 << 28;

/// A guided alignment together with its traceback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedAlignment {
    /// The score-level result (identical to [`crate::guided::guided_align`]).
    pub result: GuidedResult,
    /// Operations from `(0,0)` to the global maximum cell (empty when the
    /// best extension is empty).
    pub ops: Vec<AlignOp>,
}

impl TracedAlignment {
    /// Run-length encoded CIGAR-like string (`=`,`X`,`D`,`I`).
    pub fn cigar(&self) -> String {
        crate::matrix::cigar(&self.ops)
    }
}

/// Guided alignment with traceback: [`crate::guided::guided_align`]'s loop
/// recording each in-band cell's direction, then a walk back from the
/// global maximum.
pub fn guided_align_traced(
    reference: &PackedSeq,
    query: &PackedSeq,
    scoring: &Scoring,
) -> TracedAlignment {
    let (n, m) = (reference.len() as i64, query.len() as i64);
    let w = if scoring.banded() { scoring.band_width as i64 } else { n + m };
    let band = (2 * w + 1).min(n.max(m)) as usize + 2;
    // An empty side fills no anti-diagonal.
    let total = if n == 0 || m == 0 { 0 } else { (n + m - 1) as usize };
    assert!(
        band.checked_mul(total).is_some_and(|c| c <= MAX_TRACE_CELLS),
        "traceback table too large ({band} x {total})"
    );

    // Direction bytes per anti-diagonal `c`, at offset `i - lo_of[c]`.
    let mut dirs: Vec<u8> = vec![0; band * total];
    let mut lo_of: Vec<usize> = vec![0; total];
    let record = |i: i64, j: i64, lo: i64, cell: &CellCandidates| {
        let c = (i + j) as usize;
        lo_of[c] = lo as usize;
        dirs[c * band + (i - lo) as usize] = direction(cell);
    };
    let ws = &mut GuidedWorkspace::new();
    let result = guided_align_until(reference, query, scoring, ws, exact_zdrop(scoring), record);

    let mut ops = traceback(result.max, |i, j| dirs[(i + j) * band + i - lo_of[i + j]]);
    classify_ops(&mut ops, reference, query);
    TracedAlignment { result, ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guided::guided_align;
    use crate::matrix::{full_align_classified, score_ops};
    use crate::BLOSUM62;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_str_seq(s)
    }

    #[test]
    fn scores_match_reference() {
        let cases = [
            ("AGATAGAT", "AGACTATC", Scoring::figure1()),
            ("ACGTACGTACGTACGT", "ACGTTCGTACGAACGT", Scoring::new(2, 4, 4, 2, 40, 6)),
            (
                "ACGTACGTACGTGGGGGGGGGGGGGGGG",
                "ACGTACGTACGTCCCCCCCCCCCCCCCC",
                Scoring::new(2, 4, 4, 2, 10, 8),
            ),
        ];
        for (r, q, s) in cases {
            let want = guided_align(&seq(r), &seq(q), &s);
            let got = guided_align_traced(&seq(r), &seq(q), &s);
            assert!(got.result.same_alignment(&want), "{r} vs {q}");
            assert_eq!(got.result.cells, want.cells);
        }
    }

    #[test]
    fn traceback_score_consistent() {
        let s = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 8);
        let r = seq("ACGTACGTACGTACGTACGT");
        let q = seq("ACGTACGTTACGTACGACGT");
        let t = guided_align_traced(&r, &q, &s);
        assert_eq!(score_ops(&t.ops, &r, &q, &s), t.result.score);
    }

    #[test]
    fn matches_full_table_when_unbanded() {
        let s = Scoring::figure1();
        let r = seq("AACCGGTTAACC");
        let q = seq("AACCTGGTTAACC");
        let t = guided_align_traced(&r, &q, &s);
        let f = full_align_classified(&r, &q, &s);
        assert_eq!(t.result.score, f.score);
        assert_eq!(t.cigar(), f.cigar());
    }

    #[test]
    fn zdropped_alignment_traces_to_max() {
        let s = Scoring::new(2, 4, 4, 2, 10, 16);
        let r = seq(&format!("{}{}", "ACGT".repeat(8), "G".repeat(64)));
        let q = seq(&format!("{}{}", "ACGT".repeat(8), "C".repeat(64)));
        let t = guided_align_traced(&r, &q, &s);
        assert!(t.result.stop.z_dropped());
        assert_eq!(t.cigar(), "32=");
    }

    #[test]
    fn identical_protein_residues_are_matches() {
        let s = Scoring::preset_blosum62();
        let p = PackedSeq::from_protein_str("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ", &BLOSUM62);
        assert_eq!(guided_align_traced(&p, &p, &s).cigar(), "33=");
        assert_eq!(full_align_classified(&p, &p, &s).cigar(), "33=");
    }

    #[test]
    fn pad_residues_never_match() {
        let s = Scoring::preset_blosum62();
        let p = PackedSeq::from_protein_str("MKWXWAC", &BLOSUM62);
        assert_eq!(guided_align_traced(&p, &p, &s).cigar(), "3=1X3=");
        let s = Scoring::figure1();
        let d = seq("ACGTNACGT");
        assert_eq!(guided_align_traced(&d, &d, &s).cigar(), "4=1X4=");
    }

    #[test]
    fn empty_and_zero_score() {
        let s = Scoring::figure1();
        let t = guided_align_traced(&seq(""), &seq("ACGT"), &s);
        assert!(t.ops.is_empty());
        let t = guided_align_traced(&seq("AAAA"), &seq("GGGG"), &s);
        assert_eq!(t.result.score, 0);
        assert!(t.ops.is_empty());
    }
}
