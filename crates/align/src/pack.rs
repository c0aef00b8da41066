//! 4-bit input packing (§2.2, "Input Packing").
//!
//! Genome sequences use only five literals, so four bits suffice per base.
//! GPUs move 32-bit words, so eight bases are packed per `u32`. The packed
//! word is also the natural unit for the 8×8 cell blocks used by all the
//! GPU-style engines: one reference word × one query word covers one block.
//!
//! Protein alphabets (21 residue codes for BLOSUM62-class matrices) do not
//! fit four bits, so a [`PackedSeq`] carries its bit width (4 for DNA, 8
//! for protein) and its pad code (`N` for DNA, `X` for protein) per
//! instance; all the DNA constructors keep the historical 4-bit layout
//! bit-for-bit.

use crate::base::Base;
use crate::scoring::SubstMatrix;
#[cfg(test)]
use crate::{BLOCK, MAX_BLOCK};

/// Bases per packed 32-bit word at the default (DNA, 4-bit) width.
pub const BASES_PER_WORD: usize = 8;
/// Bits per packed base at the default (DNA) width.
pub const BITS_PER_BASE: u32 = 4;
/// Mask extracting one base from a word at the default (DNA) width.
pub const BASE_MASK: u32 = 0xF;

/// An immutable residue sequence packed at `bits` bits per code (4 for the
/// five-letter DNA alphabet, 8 for protein alphabets).
///
/// Code `i` lives in bits `[bits*(i%per), bits*(i%per)+bits)` of word
/// `i/per` (`per = 32/bits`); unused tail slots of the final word are
/// filled with the pad code so that whole-word loads (as a GPU block would
/// issue) read deterministic data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedSeq {
    words: Vec<u32>,
    len: usize,
    bits: u32,
    pad: u8,
}

impl PackedSeq {
    /// Pack a slice of DNA base codes (0–4; anything larger is clamped to
    /// `N`) at the default 4-bit width.
    pub fn from_codes(codes: &[u8]) -> PackedSeq {
        PackedSeq::from_codes_wide(codes, BITS_PER_BASE, Base::N.code())
    }

    /// Pack a slice of residue codes at an explicit bit width with an
    /// explicit pad code (codes above `pad` are clamped to `pad`; the pad
    /// code itself must fit `bits`). `bits` must divide 32.
    pub fn from_codes_wide(codes: &[u8], bits: u32, pad: u8) -> PackedSeq {
        assert!(bits > 0 && 32 % bits == 0, "bits must divide 32, got {bits}");
        assert!(
            u32::from(pad) < (1u32 << bits).min(256),
            "pad code {pad} does not fit {bits} bits"
        );
        let per = (32 / bits) as usize;
        let mut words = vec![0u32; codes.len().div_ceil(per)];
        for (i, &c) in codes.iter().enumerate() {
            let code = u32::from(if c > pad { pad } else { c });
            words[i / per] |= code << (bits * (i % per) as u32);
        }
        // Fill the tail with the pad code so whole-word block loads are
        // deterministic.
        let tail_start = codes.len() % per;
        if tail_start != 0 {
            let last = words.len() - 1;
            for k in tail_start..per {
                words[last] |= u32::from(pad) << (bits * k as u32);
            }
        }
        PackedSeq { words, len: codes.len(), bits, pad }
    }

    /// Pack protein residue codes for a substitution matrix: 8 bits per
    /// code, padded with the matrix's ambiguous residue (`X`).
    pub fn from_protein_codes(codes: &[u8], matrix: &SubstMatrix) -> PackedSeq {
        PackedSeq::from_codes_wide(codes, 8, matrix.pad_code())
    }

    /// Pack a protein sequence from an ASCII string under a substitution
    /// matrix's alphabet (unknown characters become the ambiguous residue).
    pub fn from_protein_str(s: &str, matrix: &SubstMatrix) -> PackedSeq {
        PackedSeq::from_protein_codes(&matrix.codes_from_str(s), matrix)
    }

    /// Pack from an ASCII string (characters outside `ACGTU` become `N`).
    pub fn from_str_seq(s: &str) -> PackedSeq {
        PackedSeq::from_codes(&crate::base::codes_from_str(s))
    }

    /// Pack from typed bases.
    pub fn from_bases(bases: &[Base]) -> PackedSeq {
        let codes: Vec<u8> = bases.iter().map(|b| b.code()).collect();
        PackedSeq::from_codes(&codes)
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of packed 32-bit words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Raw packed words.
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Bits per packed code (4 for DNA, 8 for protein).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Pad code filling tail slots and out-of-range reads (`N` for DNA,
    /// the ambiguous residue for protein).
    #[inline]
    pub fn pad(&self) -> u8 {
        self.pad
    }

    /// Residue code at position `i`. Panics if out of range.
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        debug_assert!(i < self.len, "base index {i} out of range (len {})", self.len);
        let per = (32 / self.bits) as usize;
        let mask = (1u32 << self.bits).wrapping_sub(1);
        ((self.words[i / per] >> (self.bits * (i % per) as u32)) & mask) as u8
    }

    /// Typed base at position `i`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        Base::from_code(self.code(i))
    }

    /// The packed word containing base `i` — the unit a GPU block load
    /// would fetch. Out-of-range words read as all-pad (all-`N` for DNA:
    /// `0x44444444`).
    #[inline]
    pub fn word_for(&self, i: usize) -> u32 {
        let per = (32 / self.bits) as usize;
        self.words.get(i / per).copied().unwrap_or_else(|| {
            let mut filler = 0u32;
            for k in 0..per {
                filler |= u32::from(self.pad) << (self.bits * k as u32);
            }
            filler
        })
    }

    /// Unpack `B` consecutive base codes starting at `start` into `out`
    /// (one block edge of either geometry), clamping out-of-range positions
    /// to the pad code (`N` for DNA). This mirrors how a GPU thread expands
    /// packed words into registers when entering a block.
    #[inline]
    pub fn unpack_block<const B: usize>(&self, start: usize, out: &mut [u8; B]) {
        for (k, slot) in out.iter_mut().enumerate() {
            let i = start + k;
            *slot = if i < self.len { self.code(i) } else { self.pad };
        }
    }

    /// Every code slot in order, word by word — the sequence, then the pad
    /// codes filling the final word (no per-code index arithmetic).
    pub fn codes(&self) -> impl Iterator<Item = u8> + '_ {
        let mask = (1u32 << self.bits).wrapping_sub(1);
        let shifts = (0..32).step_by(self.bits as usize);
        self.words.iter().flat_map(move |&w| shifts.clone().map(move |s| (w >> s & mask) as u8))
    }

    /// Unpack the whole sequence to base codes.
    pub fn to_codes(&self) -> Vec<u8> {
        (0..self.len).map(|i| self.code(i)).collect()
    }

    /// Render as an ASCII string.
    pub fn to_string_seq(&self) -> String {
        (0..self.len).map(|i| self.base(i).to_char()).collect()
    }

    /// Sub-sequence `[start, start+len)` as a new packed sequence.
    ///
    /// Packing is not bit-aligned across word boundaries, so this re-packs;
    /// it is intended for task extraction, not hot loops.
    pub fn slice(&self, start: usize, len: usize) -> PackedSeq {
        assert!(start + len <= self.len, "slice out of range");
        let codes: Vec<u8> = (start..start + len).map(|i| self.code(i)).collect();
        PackedSeq::from_codes_wide(&codes, self.bits, self.pad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::codes_from_str;

    #[test]
    fn pack_unpack_roundtrip() {
        let codes = codes_from_str("AGATACGATNNCGTACGGTTACA");
        let p = PackedSeq::from_codes(&codes);
        assert_eq!(p.len(), codes.len());
        assert_eq!(p.to_codes(), codes);
    }

    #[test]
    fn word_count_matches() {
        assert_eq!(PackedSeq::from_codes(&[0; 8]).num_words(), 1);
        assert_eq!(PackedSeq::from_codes(&[0; 9]).num_words(), 2);
        assert_eq!(PackedSeq::from_codes(&[]).num_words(), 0);
    }

    #[test]
    fn tail_padding_is_n() {
        let p = PackedSeq::from_codes(&codes_from_str("AGA"));
        let w = p.words()[0];
        for k in 3..8 {
            assert_eq!((w >> (4 * k)) & 0xF, Base::N.code() as u32);
        }
    }

    #[test]
    fn out_of_range_word_is_all_n() {
        let p = PackedSeq::from_codes(&codes_from_str("ACGT"));
        assert_eq!(p.word_for(100), 0x44444444);
    }

    #[test]
    fn unpack_block_clamps() {
        let p = PackedSeq::from_str_seq("ACG");
        let mut out = [0u8; BLOCK];
        p.unpack_block(1, &mut out);
        assert_eq!(out[0], Base::C.code());
        assert_eq!(out[1], Base::G.code());
        for &c in &out[2..] {
            assert_eq!(c, Base::N.code());
        }
        // Wide-geometry unpack spans two packed words and clamps the same.
        let mut wide = [0u8; MAX_BLOCK];
        p.unpack_block(0, &mut wide);
        assert_eq!(&wide[..3], &[Base::A.code(), Base::C.code(), Base::G.code()]);
        for &c in &wide[3..] {
            assert_eq!(c, Base::N.code());
        }
    }

    #[test]
    fn slice_matches_codes() {
        let codes = codes_from_str("AGATACGATACGTACGGTTACA");
        let p = PackedSeq::from_codes(&codes);
        let s = p.slice(5, 9);
        assert_eq!(s.to_codes(), &codes[5..14]);
    }

    #[test]
    fn invalid_codes_clamp() {
        let p = PackedSeq::from_codes(&[9, 200]);
        assert_eq!(p.code(0), Base::N.code());
        assert_eq!(p.code(1), Base::N.code());
    }

    #[test]
    fn empty_sequence() {
        for p in
            [PackedSeq::from_codes(&[]), PackedSeq::from_str_seq(""), PackedSeq::from_bases(&[])]
        {
            assert_eq!(p.len(), 0);
            assert!(p.is_empty());
            assert_eq!(p.num_words(), 0);
            assert!(p.to_codes().is_empty());
            assert_eq!(p.to_string_seq(), "");
            // Whole-word loads past the end still read all-N filler.
            assert_eq!(p.word_for(0), 0x44444444);
            let mut out = [0u8; BLOCK];
            p.unpack_block(0, &mut out);
            assert!(out.iter().all(|&c| c == Base::N.code()));
            assert_eq!(p.slice(0, 0).len(), 0);
        }
    }

    #[test]
    fn ambiguous_bases_roundtrip() {
        // 'N', lowercase and unknown letters all pack as the N code and
        // render back as 'N'.
        let p = PackedSeq::from_str_seq("NnXacgt?RYSW");
        assert_eq!(p.to_string_seq(), "NNNACGTNNNNN");
        assert!(p.to_codes()[..3].iter().all(|&c| c == Base::N.code()));
        // Interior N codes survive a code-level round trip unchanged.
        let codes = [4u8, 0, 4, 1, 4, 2, 4, 3, 4];
        assert_eq!(PackedSeq::from_codes(&codes).to_codes(), codes);
    }

    #[test]
    fn wide_packing_roundtrip_and_pads() {
        use crate::scoring::BLOSUM62;
        // 8-bit protein packing: 4 codes per word, pad = X (20).
        let codes: Vec<u8> = (0..21u8).collect();
        let p = PackedSeq::from_protein_codes(&codes, &BLOSUM62);
        assert_eq!(p.bits(), 8);
        assert_eq!(p.pad(), 20);
        assert_eq!(p.len(), 21);
        assert_eq!(p.num_words(), 6);
        assert_eq!(p.to_codes(), codes);
        // Final word tail slots hold the pad code.
        let w = p.words()[5];
        assert_eq!((w >> 8) & 0xFF, 20);
        assert_eq!((w >> 16) & 0xFF, 20);
        assert_eq!((w >> 24) & 0xFF, 20);
        // Out-of-range word reads as all-pad, and block unpack clamps to pad.
        assert_eq!(p.word_for(100), 0x14141414);
        let mut out = [0u8; BLOCK];
        p.unpack_block(19, &mut out);
        assert_eq!(out[0], 19);
        assert_eq!(out[1], 20);
        assert!(out[2..].iter().all(|&c| c == 20));
        // Out-of-alphabet codes clamp to pad; slices keep the wide layout.
        let clamped = PackedSeq::from_protein_codes(&[255, 30], &BLOSUM62);
        assert_eq!(clamped.to_codes(), vec![20, 20]);
        let s = p.slice(4, 9);
        assert_eq!(s.bits(), 8);
        assert_eq!(s.pad(), 20);
        assert_eq!(s.to_codes(), &codes[4..13]);
        // String packing goes through the matrix alphabet.
        let ps = PackedSeq::from_protein_str("ARNdw?", &BLOSUM62);
        assert_eq!(ps.to_codes(), vec![0, 1, 2, 3, 17, 20]);
    }

    #[test]
    fn non_multiple_of_word_lengths_roundtrip() {
        // Every length around the 8-base word boundary packs losslessly and
        // pads its final word with N.
        for len in 0..=33usize {
            let codes: Vec<u8> = (0..len).map(|i| (i % 5) as u8).collect();
            let p = PackedSeq::from_codes(&codes);
            assert_eq!(p.len(), len);
            assert_eq!(p.num_words(), len.div_ceil(BASES_PER_WORD));
            assert_eq!(p.to_codes(), codes, "len {len}");
            let tail = len % BASES_PER_WORD;
            if tail != 0 {
                let w = p.words()[p.num_words() - 1];
                for k in tail..BASES_PER_WORD {
                    assert_eq!(
                        (w >> (BITS_PER_BASE * k as u32)) & BASE_MASK,
                        Base::N.code() as u32,
                        "len {len}, nibble {k}"
                    );
                }
            }
        }
    }
}
