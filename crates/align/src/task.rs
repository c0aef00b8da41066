//! Alignment tasks: the unit of work produced by the read-mapping
//! pre-computation (seed & chain) and consumed by every engine.

use crate::pack::PackedSeq;

/// Largest admissible per-sequence length.
///
/// Chosen so that every cell coordinate (`i`, `j`) and every anti-diagonal
/// index (`i + j <= n + m - 2`) of an admitted task fits an `i32`. This is
/// the single width contract the whole DP layer relies on: engines narrow
/// `i64` block geometry to the `i32` cell coordinates stored in
/// [`crate::result::MaxCell`] / fed to [`crate::diag::DiagTracker`], and
/// admission here is what makes those conversions lossless instead of
/// silently truncating.
pub const MAX_SEQ_LEN: usize = (i32::MAX / 2) as usize;

/// Checked admission of task dimensions (reference length `n`, query length
/// `m`). Over-wide inputs get a human-readable error instead of wrapping
/// cell coordinates later in the pipeline.
pub fn check_dims(n: usize, m: usize) -> Result<(), String> {
    for (axis, len) in [("reference", n), ("query", m)] {
        if len > MAX_SEQ_LEN {
            return Err(format!(
                "{axis} sequence of {len} bases exceeds the supported maximum of {MAX_SEQ_LEN} \
                 (cell coordinates must fit 32 bits)"
            ));
        }
    }
    Ok(())
}

/// One extension-alignment task: a reference segment vs. a query segment.
///
/// In the real pipeline these are produced by Minimap2's seeding/chaining
/// steps ("we ran them through the pre-computing steps to obtain the final
/// datasets for alignment", §5.1); here they come from
/// `agatha-datasets`' emulation of that step or from FASTA input.
#[derive(Debug, Clone)]
pub struct Task {
    /// Stable identifier (index in the input batch); used for output order
    /// and for workload-balancing bookkeeping.
    pub id: u32,
    /// Reference segment (the `R` axis, index `i`).
    pub reference: PackedSeq,
    /// Query segment (the `Q` axis, index `j`).
    pub query: PackedSeq,
}

impl Task {
    /// Build a task from ASCII sequences (convenience for tests/examples).
    pub fn from_strs(id: u32, reference: &str, query: &str) -> Task {
        Task {
            id,
            reference: PackedSeq::from_str_seq(reference),
            query: PackedSeq::from_str_seq(query),
        }
    }

    /// Build a task from ASCII sequences under a score model's alphabet:
    /// DNA 4-bit packing for the fixed model, the matrix's residue codes at
    /// 8 bits otherwise. Input paths that accept a model-parameterised
    /// workload (the serve daemon, scenario-aware FASTA readers) must pack
    /// through this so residue codes always index the model that scores
    /// them.
    pub fn from_strs_model(
        id: u32,
        reference: &str,
        query: &str,
        model: &crate::scoring::ScoreModel,
    ) -> Task {
        let table = model.code_table();
        Task { id, reference: table.pack_str(reference), query: table.pack_str(query) }
    }

    /// Checked admission: every engine narrows this task's cell coordinates
    /// to `i32` downstream, so dimensions beyond [`MAX_SEQ_LEN`] must be
    /// rejected up front (see [`check_dims`]).
    pub fn admit(&self) -> Result<(), String> {
        check_dims(self.ref_len(), self.query_len())
    }

    /// Reference length `n`.
    #[inline]
    pub fn ref_len(&self) -> usize {
        self.reference.len()
    }

    /// Query length `m`.
    #[inline]
    pub fn query_len(&self) -> usize {
        self.query.len()
    }

    /// Total number of anti-diagonals of the (unterminated) score table:
    /// `n + m - 1`. The paper uses this as the a-priori workload measure for
    /// sorting and bucketing (§4.4, §5.6).
    #[inline]
    pub fn antidiags(&self) -> u32 {
        let n = self.ref_len() as u32;
        let m = self.query_len() as u32;
        (n + m).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_dimensions() {
        let t = Task::from_strs(0, "AGATAGAT", "AGACTATC");
        assert_eq!(t.ref_len(), 8);
        assert_eq!(t.query_len(), 8);
        assert_eq!(t.antidiags(), 15);
    }

    #[test]
    fn model_aware_packing_follows_the_alphabet() {
        use crate::scoring::{ScoreModel, BLOSUM62};
        let fixed = ScoreModel::Fixed { match_score: 2, mismatch: 4, ambig: 1 };
        let t = Task::from_strs_model(0, "ACGT", "ACGA", &fixed);
        assert_eq!(t.reference.bits(), crate::pack::BITS_PER_BASE);
        let t = Task::from_strs_model(0, "ARND", "WWWW", &ScoreModel::Matrix(&BLOSUM62));
        assert_eq!(t.reference.bits(), 8);
        assert_eq!(t.query.pad(), BLOSUM62.pad_code());
        assert_eq!(t.reference.code(1), 1, "R packs to its BLOSUM62 row index");
    }

    #[test]
    fn empty_task_has_zero_antidiags() {
        let t = Task::from_strs(0, "", "");
        assert_eq!(t.antidiags(), 0);
    }

    #[test]
    fn admission_bounds_dimensions() {
        assert!(check_dims(0, 0).is_ok());
        assert!(check_dims(MAX_SEQ_LEN, MAX_SEQ_LEN).is_ok());
        let err = check_dims(MAX_SEQ_LEN + 1, 4).unwrap_err();
        assert!(err.contains("reference") && err.contains("32 bits"), "{err}");
        let err = check_dims(4, MAX_SEQ_LEN + 1).unwrap_err();
        assert!(err.contains("query"), "{err}");
        assert!(Task::from_strs(0, "ACGT", "ACGT").admit().is_ok());
    }

    #[test]
    fn admitted_coordinates_fit_i32() {
        // The contract admission exists for: the largest anti-diagonal index
        // of an admitted task is representable as i32 (and u32).
        let max_diag = (MAX_SEQ_LEN as u64) * 2 - 1;
        assert!(max_diag <= i32::MAX as u64);
    }
}
