//! Scoring models and the affine-gap parameters used in the evaluation.
//!
//! The paper (and the AGAThA artifact's `AGAThA.sh`) parameterises alignment
//! with: match score `-a`, mismatch penalty `-b`, gap-open penalty `-q` (α),
//! gap-extension penalty `-r` (β), termination threshold `-z` (Z), and band
//! width `-w`. Minimap2 preset parameters are used per dataset category
//! (§5.1); BWA-MEM uses "significantly smaller" band width and termination
//! threshold (§5.9).
//!
//! The per-cell substitution score `S(x, y)` is abstracted behind
//! [`ScoreModel`]: the paper's fixed match/mismatch DNA scoring is one
//! instance, and protein substitution matrices (BLOSUM62-class) are another.
//! Every downstream consumer that used to read the DNA constants — the
//! `i16`/`i32` overflow gates, the SIMD kernels' substitution vectors — now
//! derives its bounds from [`ScoreModel::max_score`] /
//! [`ScoreModel::min_score`], so adding a model re-derives every exactness
//! proof instead of silently weakening it.

use crate::base::Base;
use crate::pack::{CodeTable, DNA};
use crate::MAX_STRIP;

/// A substitution matrix over a residue alphabet (protein scoring).
///
/// `scores` is `dim × dim`, row-major, indexed by residue code; the last
/// code (`dim - 1`) is the ambiguous/unknown residue (`X`), which also pads
/// sequences past their end — the protein analogue of DNA's `N`.
#[derive(Debug)]
pub struct SubstMatrix {
    /// Stable matrix name (CLI/bench/scenario rows).
    pub name: &'static str,
    /// Residue alphabet in code order; the final character is the
    /// ambiguous/pad residue.
    pub alphabet: &'static str,
    /// `alphabet`'s character → code table at 8 bits per code, built at
    /// compile time (`CodeTable::from_alphabet(alphabet, 8)`; checked by
    /// [`SubstMatrix::validate`]).
    pub table: CodeTable,
    /// Alphabet size (number of residue codes).
    pub dim: usize,
    /// `dim × dim` substitution scores, row-major.
    pub scores: &'static [i8],
    /// Largest entry of `scores` (declared, asserted by tests).
    pub max_score: i32,
    /// Smallest (most negative) entry of `scores` (declared, asserted by
    /// tests).
    pub min_score: i32,
    /// `scores` as one column per query residue, built at compile time
    /// ([`SubstMatrix::lane_columns`]; checked by [`SubstMatrix::validate`]):
    /// what the 32-lane strip looks a window's reference codes up in.
    /// `None` for an alphabet wider than [`MAX_STRIP`].
    pub columns: Option<LaneColumns>,
}

/// A matrix's scores as [`MAX_STRIP`] columns of [`MAX_STRIP`] `i16`
/// entries, `columns[q][r] = S(r, q)`: one vector register of scores per
/// query residue, indexed by the reference residue. Codes at or past `dim`
/// (either index) hold the ambiguous residue's scores, as
/// [`SubstMatrix::score`] clamps them.
pub type LaneColumns = [[i16; MAX_STRIP]; MAX_STRIP];

impl SubstMatrix {
    /// The column table of the `dim × dim` row-major `scores` (see
    /// [`LaneColumns`]), or `None` when the alphabet is wider than
    /// [`MAX_STRIP`] or `scores` is not `dim × dim`.
    pub const fn lane_columns(scores: &[i8], dim: usize) -> Option<LaneColumns> {
        if dim == 0 || dim > MAX_STRIP || scores.len() != dim * dim {
            return None;
        }
        let mut columns = [[0i16; MAX_STRIP]; MAX_STRIP];
        let mut q = 0;
        while q < MAX_STRIP {
            let qc = if q < dim { q } else { dim - 1 };
            let mut r = 0;
            while r < MAX_STRIP {
                let rc = if r < dim { r } else { dim - 1 };
                columns[q][r] = scores[rc * dim + qc] as i16;
                r += 1;
            }
            q += 1;
        }
        Some(columns)
    }

    /// Substitution score between residue codes `x` and `y`. Codes at or
    /// beyond `dim` (foreign-alphabet input) clamp to the ambiguous residue.
    #[inline(always)]
    pub fn score(&self, x: u8, y: u8) -> i32 {
        let clamp = |c: u8| (c as usize).min(self.dim - 1);
        i32::from(self.scores[clamp(x) * self.dim + clamp(y)])
    }

    /// The ambiguous/pad residue code (`dim - 1`).
    #[inline]
    pub fn pad_code(&self) -> u8 {
        (self.dim - 1) as u8
    }

    /// Residue code for a character (case-insensitive) through
    /// [`SubstMatrix::table`]; characters outside the alphabet map to the
    /// ambiguous residue.
    #[inline]
    pub fn code_of(&self, c: char) -> u8 {
        self.table.code(c)
    }

    /// Encode a residue string to codes, one per `char`.
    pub fn codes_from_str(&self, s: &str) -> Vec<u8> {
        self.table.codes(s)
    }

    /// Check declared bounds and shape against the score table.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 || self.scores.len() != self.dim * self.dim {
            return Err(format!(
                "matrix {}: expected {}x{} scores, got {}",
                self.name,
                self.dim,
                self.dim,
                self.scores.len()
            ));
        }
        if self.alphabet.chars().count() != self.dim {
            return Err(format!("matrix {}: alphabet length != dim {}", self.name, self.dim));
        }
        if self.table != CodeTable::from_alphabet(self.alphabet, 8) {
            return Err(format!("matrix {}: code table does not match the alphabet", self.name));
        }
        if self.columns != SubstMatrix::lane_columns(self.scores, self.dim) {
            return Err(format!("matrix {}: column table does not match the scores", self.name));
        }
        let max = self.scores.iter().copied().max().unwrap() as i32;
        let min = self.scores.iter().copied().min().unwrap() as i32;
        if max != self.max_score || min != self.min_score {
            return Err(format!(
                "matrix {}: declared bounds [{}, {}] but table has [{min}, {max}]",
                self.name, self.min_score, self.max_score
            ));
        }
        if self.max_score <= 0 {
            return Err(format!("matrix {}: max_score must be positive", self.name));
        }
        Ok(())
    }
}

/// BLOSUM62's residues in code order, `X` last.
const BLOSUM62_ALPHABET: &str = "ARNDCQEGHILKMFPSTWYVX";

/// [`BLOSUM62`]'s alphabet size.
const BLOSUM62_DIM: usize = 21;

/// BLOSUM62 over the 20 standard amino acids plus `X` (ambiguous/pad).
///
/// The 20×20 core is the standard BLOSUM62 table (order `ARNDCQEGHILKMFPSTWYV`,
/// max 11 on `W/W`, min −4); `X` scores −1 against everything — a documented
/// simplification of NCBI's per-residue `X` column, chosen so the pad residue
/// behaves like DNA's flat `-ambig` penalty.
pub static BLOSUM62: SubstMatrix = SubstMatrix {
    name: "blosum62",
    alphabet: BLOSUM62_ALPHABET,
    table: CodeTable::from_alphabet(BLOSUM62_ALPHABET, 8),
    dim: BLOSUM62_DIM,
    scores: &BLOSUM62_SCORES,
    max_score: 11,
    min_score: -4,
    columns: SubstMatrix::lane_columns(&BLOSUM62_SCORES, BLOSUM62_DIM),
};

/// [`BLOSUM62`]'s scores, row-major in code order.
#[rustfmt::skip]
const BLOSUM62_SCORES: [i8; BLOSUM62_DIM * BLOSUM62_DIM] = [
//   A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   X
     4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0, -1,
    -1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3, -1,
    -2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3, -1,
    -2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3, -1,
     0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -1,
    -1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2, -1,
    -1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2, -1,
     0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3, -1,
    -2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3, -1,
    -1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3, -1,
    -1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1, -1,
    -1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2, -1,
    -1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1, -1,
    -2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1, -1,
    -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2, -1,
     1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2, -1,
     0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0, -1,
    -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3, -1,
    -2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1, -1,
     0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
];

/// The per-cell substitution model: how `S(x, y)` is computed.
///
/// Kept `Copy` (like [`Scoring`]): the matrix variant borrows a `'static`
/// table, so a score model is two words either way.
#[derive(Debug, Clone, Copy)]
pub enum ScoreModel {
    /// Fixed-score DNA model (paper Eq. 1): `+match_score` on equal
    /// non-ambiguous codes, `-mismatch` otherwise, `-ambig` when either code
    /// is `N` (ambiguous bases never "match").
    Fixed {
        /// Score added on a match (`+a`, positive).
        match_score: i32,
        /// Penalty subtracted on a mismatch (`b`, non-negative).
        mismatch: i32,
        /// Penalty applied instead of `mismatch` whenever either base is
        /// ambiguous (non-negative).
        ambig: i32,
    },
    /// Substitution-matrix model (protein scoring).
    Matrix(&'static SubstMatrix),
}

impl PartialEq for ScoreModel {
    fn eq(&self, other: &ScoreModel) -> bool {
        match (self, other) {
            (
                ScoreModel::Fixed { match_score: a, mismatch: b, ambig: c },
                ScoreModel::Fixed { match_score: x, mismatch: y, ambig: z },
            ) => (a, b, c) == (x, y, z),
            // Matrices are static singletons; identity is the right equality
            // (and avoids comparing 441-entry tables per block dispatch).
            (ScoreModel::Matrix(a), ScoreModel::Matrix(b)) => std::ptr::eq(*a, *b),
            _ => false,
        }
    }
}

impl Eq for ScoreModel {}

impl ScoreModel {
    /// Substitution score `S(x, y)` between two residue codes.
    #[inline(always)]
    pub fn score(&self, x: u8, y: u8) -> i32 {
        match self {
            ScoreModel::Fixed { match_score, mismatch, ambig } => {
                let n = Base::N.code();
                if x >= n || y >= n {
                    -ambig
                } else if x == y {
                    *match_score
                } else {
                    -mismatch
                }
            }
            ScoreModel::Matrix(m) => m.score(x, y),
        }
    }

    /// Largest possible substitution score — the positive reach bound every
    /// overflow gate derives from.
    #[inline]
    pub fn max_score(&self) -> i32 {
        match self {
            ScoreModel::Fixed { match_score, .. } => *match_score,
            ScoreModel::Matrix(m) => m.max_score,
        }
    }

    /// Smallest (most negative) possible substitution score.
    #[inline]
    pub fn min_score(&self) -> i32 {
        match self {
            ScoreModel::Fixed { mismatch, ambig, .. } => -(*mismatch).max(*ambig),
            ScoreModel::Matrix(m) => m.min_score,
        }
    }

    /// The fixed-model parameters `(match_score, mismatch, ambig)`, if this
    /// is the fixed model (the SIMD kernels' compare/blend constants).
    #[inline]
    pub fn fixed_params(&self) -> Option<(i32, i32, i32)> {
        match self {
            ScoreModel::Fixed { match_score, mismatch, ambig } => {
                Some((*match_score, *mismatch, *ambig))
            }
            ScoreModel::Matrix(_) => None,
        }
    }

    /// The substitution matrix, if this is the matrix model.
    #[inline]
    pub fn matrix(&self) -> Option<&'static SubstMatrix> {
        match self {
            ScoreModel::Fixed { .. } => None,
            ScoreModel::Matrix(m) => Some(m),
        }
    }

    /// The ambiguous/pad residue code of this model's alphabet: `N` for the
    /// fixed DNA model, the matrix's pad residue (`X`) otherwise.
    #[inline]
    pub fn pad_code(&self) -> u8 {
        match self {
            ScoreModel::Fixed { .. } => Base::N.code(),
            ScoreModel::Matrix(m) => m.pad_code(),
        }
    }

    /// The character → code table input text decodes through under this
    /// model: [`DNA`] for the fixed model, the matrix's own table otherwise.
    #[inline]
    pub fn code_table(&self) -> &'static CodeTable {
        match self {
            ScoreModel::Fixed { .. } => &DNA,
            ScoreModel::Matrix(m) => &m.table,
        }
    }

    /// Stable lower-case name (stats output, bench/scenario rows).
    pub fn name(&self) -> &'static str {
        match self {
            ScoreModel::Fixed { .. } => "fixed",
            ScoreModel::Matrix(m) => m.name,
        }
    }

    /// Check model sanity; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ScoreModel::Fixed { match_score, mismatch, ambig } => {
                if *match_score <= 0 {
                    return Err(format!("match_score must be positive, got {match_score}"));
                }
                for (name, v) in [("mismatch", *mismatch), ("ambig", *ambig)] {
                    if v < 0 {
                        return Err(format!("{name} must be non-negative, got {v}"));
                    }
                }
                Ok(())
            }
            ScoreModel::Matrix(m) => m.validate(),
        }
    }
}

/// Affine-gap scoring parameters for guided alignment.
///
/// A gap of length `k` costs `gap_open + k * gap_extend` (the paper's
/// `α`/`β`; opening a 1-gap costs `α + β`). Per-cell substitution scores
/// come from [`ScoreModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scoring {
    /// Substitution model (fixed DNA scores or a substitution matrix).
    pub model: ScoreModel,
    /// Gap-open penalty `α` (positive).
    pub gap_open: i32,
    /// Gap-extend penalty `β` (positive).
    pub gap_extend: i32,
    /// Z-drop termination threshold `Z` (positive). Use [`Scoring::NO_ZDROP`]
    /// to disable termination.
    pub zdrop: i32,
    /// Band half-width `w`: cell `(i, j)` is computed iff `|i - j| <= w`.
    /// Use [`Scoring::NO_BAND`] for unbanded alignment.
    pub band_width: i32,
}

impl Scoring {
    /// Disables the Z-drop termination condition.
    pub const NO_ZDROP: i32 = i32::MAX / 4;
    /// Disables banding.
    pub const NO_BAND: i32 = i32::MAX / 4;

    /// Construct with explicit fixed-model parameters (the CLI's
    /// `-a -b -q -r -z -w`). Panics on invalid parameters; user-facing input
    /// paths should prefer [`Scoring::try_new`] and surface the error.
    pub fn new(
        match_score: i32,
        mismatch: i32,
        gap_open: i32,
        gap_extend: i32,
        zdrop: i32,
        band_width: i32,
    ) -> Scoring {
        Scoring::try_new(match_score, mismatch, gap_open, gap_extend, zdrop, band_width)
            .expect("invalid scoring parameters")
    }

    /// Checked twin of [`Scoring::new`]: returns the [`Scoring::validate`]
    /// error instead of panicking (CLI flags surface this as a usage error).
    pub fn try_new(
        match_score: i32,
        mismatch: i32,
        gap_open: i32,
        gap_extend: i32,
        zdrop: i32,
        band_width: i32,
    ) -> Result<Scoring, String> {
        let s = Scoring {
            model: ScoreModel::Fixed { match_score, mismatch, ambig: 1 },
            gap_open,
            gap_extend,
            zdrop,
            band_width,
        };
        s.validate()?;
        Ok(s)
    }

    /// Construct with a substitution-matrix model. Panics on invalid
    /// parameters; see [`Scoring::try_with_matrix`].
    pub fn with_matrix(
        matrix: &'static SubstMatrix,
        gap_open: i32,
        gap_extend: i32,
        zdrop: i32,
        band_width: i32,
    ) -> Scoring {
        Scoring::try_with_matrix(matrix, gap_open, gap_extend, zdrop, band_width)
            .expect("invalid scoring parameters")
    }

    /// Checked constructor for the substitution-matrix model.
    pub fn try_with_matrix(
        matrix: &'static SubstMatrix,
        gap_open: i32,
        gap_extend: i32,
        zdrop: i32,
        band_width: i32,
    ) -> Result<Scoring, String> {
        let s =
            Scoring { model: ScoreModel::Matrix(matrix), gap_open, gap_extend, zdrop, band_width };
        s.validate()?;
        Ok(s)
    }

    /// Check parameter sanity; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        self.model.validate()?;
        for (name, v) in [("gap_open", self.gap_open), ("zdrop", self.zdrop)] {
            if v < 0 {
                return Err(format!("{name} must be non-negative, got {v}"));
            }
        }
        if self.gap_extend <= 0 {
            return Err(format!("gap_extend must be positive, got {}", self.gap_extend));
        }
        if self.band_width < 0 {
            return Err(format!("band_width must be non-negative, got {}", self.band_width));
        }
        Ok(())
    }

    /// Substitution score `S(x, y)` between two residue codes (paper Eq. 1).
    #[inline(always)]
    pub fn substitution(&self, x: u8, y: u8) -> i32 {
        self.model.score(x, y)
    }

    /// Largest possible substitution score (see [`ScoreModel::max_score`]).
    #[inline]
    pub fn max_score(&self) -> i32 {
        self.model.max_score()
    }

    /// Smallest possible substitution score (see [`ScoreModel::min_score`]).
    #[inline]
    pub fn min_score(&self) -> i32 {
        self.model.min_score()
    }

    /// Cost of a gap of length `k >= 1`: `gap_open + k * gap_extend`.
    #[inline]
    pub fn gap_cost(&self, k: i32) -> i32 {
        debug_assert!(k >= 1);
        self.gap_open + k * self.gap_extend
    }

    /// Border score `H(i, -1) = H(-1, i) = -(α + (i+1)β)` for `i >= 0`.
    #[inline(always)]
    pub fn border(&self, i: i32) -> i32 {
        -(self.gap_open + (i + 1) * self.gap_extend)
    }

    /// Whether cell `(i, j)` falls inside the diagonal band.
    #[inline(always)]
    pub fn in_band(&self, i: i32, j: i32) -> bool {
        (i - j).abs() <= self.band_width
    }

    /// Whether the Z-drop termination condition is active.
    #[inline]
    pub fn zdrop_enabled(&self) -> bool {
        self.zdrop < Scoring::NO_ZDROP
    }

    /// Whether banding is active.
    #[inline]
    pub fn banded(&self) -> bool {
        self.band_width < Scoring::NO_BAND
    }

    /// Minimap2 `map-hifi`-style preset (PacBio HiFi reads):
    /// `A=1 B=4 O=6 E=2 z=200 w=200`.
    pub fn preset_hifi() -> Scoring {
        Scoring::new(1, 4, 6, 2, 200, 200)
    }

    /// Minimap2 `map-pb`-style preset (PacBio CLR reads):
    /// `A=2 B=4 O=4 E=2 z=400 w=400`.
    pub fn preset_clr() -> Scoring {
        Scoring::new(2, 4, 4, 2, 400, 400)
    }

    /// Minimap2 `map-ont`-style preset (Oxford Nanopore reads):
    /// `A=2 B=4 O=4 E=2 z=400 w=400`.
    pub fn preset_ont() -> Scoring {
        Scoring::new(2, 4, 4, 2, 400, 400)
    }

    /// BWA-MEM-style preset: "the default band width and termination
    /// threshold being significantly smaller" (§5.9):
    /// `A=1 B=4 O=6 E=1 z=100 w=100`.
    pub fn preset_bwa() -> Scoring {
        Scoring::new(1, 4, 6, 1, 100, 100)
    }

    /// BLOSUM62 protein preset: standard BLAST-style gap costs
    /// (`O=10 E=1`), guides at BWA scale.
    pub fn preset_blosum62() -> Scoring {
        Scoring::with_matrix(&BLOSUM62, 10, 1, 100, 100)
    }

    /// The worked example from Figure 1 of the paper:
    /// match `+2`, mismatch `-4`, `α=4`, `β=2`.
    pub fn figure1() -> Scoring {
        Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND)
    }

    /// Return a copy with a different band width.
    pub fn with_band(mut self, w: i32) -> Scoring {
        self.band_width = w;
        self
    }

    /// Return a copy with a different Z-drop threshold.
    pub fn with_zdrop(mut self, z: i32) -> Scoring {
        self.zdrop = z;
        self
    }

    /// Scale band width and Z-drop threshold down by `factor` (used when
    /// generating reduced-scale benchmark datasets; keeps score parameters
    /// identical so per-cell arithmetic is unchanged).
    pub fn scaled_guides(mut self, factor: i32) -> Scoring {
        assert!(factor >= 1);
        if self.banded() {
            self.band_width = (self.band_width / factor).max(8);
        }
        if self.zdrop_enabled() {
            self.zdrop = (self.zdrop / factor).max(10);
        }
        self
    }
}

impl Default for Scoring {
    /// Minimap2's long-read default (`map-ont`-style).
    fn default() -> Scoring {
        Scoring::preset_ont()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitution_matrix() {
        let s = Scoring::figure1();
        assert_eq!(s.substitution(0, 0), 2);
        assert_eq!(s.substitution(0, 1), -4);
        assert_eq!(s.substitution(4, 0), -1);
        assert_eq!(s.substitution(0, 4), -1);
        assert_eq!(s.substitution(4, 4), -1);
    }

    #[test]
    fn border_matches_figure1() {
        // Figure 1 with α=4, β=2: first border cells are -6, -8, -10, ...
        let s = Scoring::figure1();
        assert_eq!(s.border(0), -6);
        assert_eq!(s.border(1), -8);
        assert_eq!(s.border(2), -10);
    }

    #[test]
    fn gap_cost_affine() {
        let s = Scoring::preset_clr();
        assert_eq!(s.gap_cost(1), 6);
        assert_eq!(s.gap_cost(5), 14);
    }

    #[test]
    fn band_membership() {
        let s = Scoring::preset_bwa(); // w = 100
        assert!(s.in_band(0, 100));
        assert!(!s.in_band(0, 101));
        assert!(s.in_band(350, 250));
    }

    #[test]
    fn presets_validate() {
        for p in [
            Scoring::preset_hifi(),
            Scoring::preset_clr(),
            Scoring::preset_ont(),
            Scoring::preset_bwa(),
            Scoring::preset_blosum62(),
            Scoring::figure1(),
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn invalid_scoring_rejected() {
        let s = Scoring {
            model: ScoreModel::Fixed { match_score: 0, mismatch: 4, ambig: 1 },
            ..Scoring::default()
        };
        assert!(s.validate().is_err());
        let s = Scoring { gap_extend: 0, ..Scoring::default() };
        assert!(s.validate().is_err());
        assert!(Scoring::try_new(0, 4, 6, 1, 100, 100).is_err());
        assert!(Scoring::try_new(1, -4, 6, 1, 100, 100).is_err());
        assert!(Scoring::try_new(1, 4, -6, 1, 100, 100).is_err());
        assert!(Scoring::try_new(1, 4, 6, 0, 100, 100).is_err());
    }

    #[test]
    fn scaled_guides_floor() {
        let s = Scoring::preset_clr().scaled_guides(1000);
        assert_eq!(s.band_width, 8);
        assert_eq!(s.zdrop, 10);
    }

    #[test]
    fn blosum62_table_is_consistent() {
        BLOSUM62.validate().unwrap();
        // Spot checks against the canonical table.
        let code = |c| BLOSUM62.code_of(c);
        assert_eq!(BLOSUM62.score(code('W'), code('W')), 11);
        assert_eq!(BLOSUM62.score(code('N'), code('W')), -4);
        assert_eq!(BLOSUM62.score(code('A'), code('A')), 4);
        assert_eq!(BLOSUM62.score(code('A'), code('R')), -1);
        // The matrix must be symmetric.
        for x in 0..BLOSUM62.dim as u8 {
            for y in 0..BLOSUM62.dim as u8 {
                assert_eq!(BLOSUM62.score(x, y), BLOSUM62.score(y, x), "({x},{y})");
            }
        }
        // Ambiguous/pad residue scores -1 against everything, and unknown
        // characters/codes clamp to it.
        for x in 0..BLOSUM62.dim as u8 {
            assert_eq!(BLOSUM62.score(x, BLOSUM62.pad_code()), -1);
        }
        assert_eq!(code('?'), BLOSUM62.pad_code());
        assert_eq!(BLOSUM62.score(200, 0), BLOSUM62.score(BLOSUM62.pad_code(), 0));
    }

    #[test]
    fn lane_columns_are_the_clamped_lookup() {
        let columns = BLOSUM62.columns.as_ref().expect("21 residues fit 32 lanes");
        for (q, column) in columns.iter().enumerate() {
            for (r, &s) in column.iter().enumerate() {
                assert_eq!(i32::from(s), BLOSUM62.score(r as u8, q as u8), "S({r}, {q})");
            }
        }
        // A table that is not square, or an alphabet wider than the strip,
        // has no columns.
        assert_eq!(SubstMatrix::lane_columns(&[0; 6], 2), None);
        assert_eq!(SubstMatrix::lane_columns(&[0; 33 * 33], 33), None);
        let wrong = SubstMatrix { columns: None, ..BLOSUM62 };
        assert!(wrong.validate().unwrap_err().contains("column table"));
    }

    #[test]
    fn score_model_bounds() {
        let dna = Scoring::preset_clr();
        assert_eq!(dna.max_score(), 2);
        assert_eq!(dna.min_score(), -4);
        let prot = Scoring::preset_blosum62();
        assert_eq!(prot.max_score(), 11);
        assert_eq!(prot.min_score(), -4);
        assert_eq!(prot.model.pad_code(), 20);
        assert_eq!(dna.model.pad_code(), 4);
        assert_eq!(prot.model.name(), "blosum62");
        assert_eq!(dna.model.name(), "fixed");
        // Model equality: fixed by value, matrix by identity.
        assert_eq!(prot.model, ScoreModel::Matrix(&BLOSUM62));
        assert_ne!(prot.model, dna.model);
    }
}
