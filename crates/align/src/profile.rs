//! Per-query score profiles for substitution-matrix models.
//!
//! The fixed DNA model lets the SIMD fills compute `S(x, y)` with a
//! compare/blend against broadcast constants. A substitution matrix cannot:
//! each cell needs a table lookup. The classic striped-SW answer is a *query
//! profile* — for each residue code `c`, precompute the row
//! `S(c, Q[j])` over the whole query once per task, so the wavefront's work
//! per reference position becomes one contiguous read — the scores of that
//! position's residue against a block row's `B` query rows, in lane order
//! ([`QueryProfile::strip`]) — instead of `B` two-level
//! `scores[x * dim + y]` gathers.
//!
//! Rows carry [`crate::MAX_STRIP`] tail slots holding `S(c, pad)` so a block
//! row of any geometry whose query span hangs past the sequence end still reads the same
//! scores the direct lookup produces for pad codes — the profile path is
//! bit-identical to the lookup path by construction.
//!
//! Who reads it: the default `Lanes::sub_rows` of the wavefront fill, i.e.
//! every lane impl at 8 and 16 lanes and the portable lanes at 32. The
//! 32-lane AVX-512 strip does not — it looks each window's reference codes
//! up in the matrix's compile-time column table
//! ([`crate::SubstMatrix::columns`]) with one permute per lane — so the
//! kernel builds no profile for a task tiled at 32 there
//! ([`crate::block::BlockCtx::reads_profile`]).

use crate::pack::PackedSeq;
use crate::scoring::{Scoring, SubstMatrix};
use crate::MAX_STRIP;

/// Precomputed `S(c, Q[j])` rows for one (matrix, query) pair, reusable
/// across tasks like the kernel workspace that owns it.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// `dim` rows of `stride` i16 scores each (matrix entries fit i8),
    /// *descending* in `j` — the wavefront's lanes are a block row's query
    /// rows bottom-up, so a strip reads a row slice as it lies.
    rows: Vec<i16>,
    /// Row length: query length + [`MAX_STRIP`] pad slots.
    stride: usize,
    /// Alphabet size of the matrix the rows were built for.
    dim: usize,
    /// Query length the rows were built for.
    query_len: usize,
    /// The matrix the rows were built for (`None` = inactive).
    matrix: Option<&'static SubstMatrix>,
    /// The query's codes, clamped into the alphabet: scratch the rows are
    /// swept from, kept for its allocation.
    codes: Vec<usize>,
}

impl QueryProfile {
    /// Empty, inactive profile.
    pub fn new() -> QueryProfile {
        QueryProfile::default()
    }

    /// Build (or rebuild, reusing the allocation) the rows for `query`
    /// under `scoring`. A fixed-model scoring deactivates the profile — the
    /// fills then use their compare/blend constants as before.
    pub fn prepare(&mut self, query: &PackedSeq, scoring: &Scoring) {
        let Some(m) = scoring.model.matrix() else {
            self.matrix = None;
            return;
        };
        self.matrix = Some(m);
        self.dim = m.dim;
        self.query_len = query.len();
        self.stride = query.len() + MAX_STRIP;
        // Row-major: one decode of the query, clamped like
        // `SubstMatrix::score`, then each row swept along it, last query
        // position first, from its residue's matrix row.
        let pad = usize::from(m.pad_code());
        self.codes.clear();
        self.codes.extend(query.codes().take(self.query_len).map(|qc| usize::from(qc).min(pad)));
        self.rows.clear();
        for scores in m.scores.chunks_exact(m.dim) {
            self.rows.extend(std::iter::repeat_n(i16::from(scores[pad]), MAX_STRIP));
            self.rows.extend(self.codes.iter().rev().map(|&qc| i16::from(scores[qc])));
        }
    }

    /// Whether no rows were ever built (the profile was never prepared
    /// under a matrix model).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether these rows were built for exactly this matrix and query
    /// length (the fills' guard before reading rows).
    #[inline]
    pub fn covers(&self, matrix: &'static SubstMatrix, query_len: usize) -> bool {
        self.matrix.is_some_and(|m| std::ptr::eq(m, matrix)) && self.query_len == query_len
    }

    /// Scores of residue code `c` (clamped to the ambiguous residue, matching
    /// [`SubstMatrix::score`]) against the `B` query rows of the block row at
    /// `j0`, in the wavefront's lane order: `strip[l] = S(c, Q[j0 + B−1 − l])`,
    /// with `S(c, pad)` for the rows past the query end.
    #[inline]
    pub fn strip<const B: usize>(&self, c: u8, j0: usize) -> &[i16; B] {
        let c = (c as usize).min(self.dim - 1);
        let from = (c + 1) * self.stride - j0 - B;
        self.rows[from..].first_chunk().expect("block rows start inside the query")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::BLOSUM62;
    use crate::{BLOCK, MAX_BLOCK};

    #[test]
    fn rows_match_direct_lookup() {
        let sc = Scoring::preset_blosum62();
        let codes: Vec<u8> = (0..50u8).map(|i| i % 21).collect();
        let q = PackedSeq::from_codes_wide(&codes, 8, BLOSUM62.pad_code());
        let mut p = QueryProfile::new();
        p.prepare(&q, &sc);
        assert!(p.covers(&BLOSUM62, q.len()));
        for c in 0..BLOSUM62.dim as u8 {
            for j0 in (0..q.len()).step_by(MAX_STRIP) {
                for (l, &slot) in p.strip::<MAX_STRIP>(c, j0).iter().enumerate() {
                    let j = j0 + MAX_STRIP - 1 - l;
                    // Past the query end a strip scores like the pad residue.
                    let qc = if j < q.len() { q.code(j) } else { BLOSUM62.pad_code() };
                    assert_eq!(i32::from(slot), BLOSUM62.score(c, qc), "c={c} j={j}");
                }
            }
            assert_eq!(p.strip::<BLOCK>(c, 8), p.strip::<MAX_BLOCK>(c, 0).first_chunk().unwrap());
            assert_eq!(
                p.strip::<MAX_BLOCK>(c, 16),
                p.strip::<MAX_STRIP>(c, 0).first_chunk().unwrap()
            );
        }
        // Out-of-alphabet row requests clamp exactly like SubstMatrix::score.
        assert_eq!(p.strip::<BLOCK>(200, 16), p.strip::<BLOCK>(BLOSUM62.pad_code(), 16));
    }

    #[test]
    fn fixed_model_deactivates() {
        let mut p = QueryProfile::new();
        let q = PackedSeq::from_codes(&[0, 1, 2, 3]);
        p.prepare(&q, &Scoring::preset_blosum62());
        assert!(p.covers(&BLOSUM62, 4));
        p.prepare(&q, &Scoring::preset_bwa());
        assert!(!p.covers(&BLOSUM62, 4));
    }
}
