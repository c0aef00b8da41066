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
//!
//! Text enters through this module only: every character → code decision —
//! [`Base::from_char`], [`SubstMatrix::code_of`], the `codes_from_str`
//! helpers, the string constructors below, the FASTA reader and the serve
//! request path — reads one [`CodeTable`] per alphabet ([`DNA`], or a
//! matrix's [`SubstMatrix::table`]), built at compile time.

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

/// One alphabet's character → code decision: a case-insensitive table over
/// the 128 ASCII bytes, with the packing width and pad code its sequences
/// use. Anything outside the alphabet — and every non-ASCII byte or `char`
/// — decodes to the pad code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeTable {
    codes: [u8; 128],
    bits: u32,
    pad: u8,
}

/// The DNA table: `ACGTN` to codes 0–4 in either case, `U` reads as `T`,
/// everything else is `N`; packed at 4 bits.
pub const DNA: CodeTable = {
    let mut t = CodeTable::from_alphabet("ACGTN", BITS_PER_BASE);
    t.codes[b'U' as usize] = Base::T as u8;
    t.codes[b'u' as usize] = Base::T as u8;
    t
};

impl CodeTable {
    /// The table of an ASCII `alphabet` in code order (its last letter is
    /// the pad code): a byte decodes to the first position of its upper-case
    /// form in `alphabet`, or to the pad code.
    pub const fn from_alphabet(alphabet: &str, bits: u32) -> CodeTable {
        let letters = alphabet.as_bytes();
        assert!(
            !letters.is_empty() && letters.len() <= 1 << bits,
            "the alphabet must be non-empty and fit its width"
        );
        let pad = (letters.len() - 1) as u8;
        let mut codes = [pad; 128];
        let mut b = 0;
        while b < 128 {
            let up = (b as u8).to_ascii_uppercase();
            let mut i = 0;
            while i < letters.len() {
                assert!(letters[i].is_ascii(), "the alphabet must be ASCII");
                if letters[i] == up {
                    codes[b] = i as u8;
                    break;
                }
                i += 1;
            }
            b += 1;
        }
        CodeTable { codes, bits, pad }
    }

    /// Code of one `char`.
    #[inline]
    pub fn code(&self, c: char) -> u8 {
        self.codes.get(c as usize).copied().unwrap_or(self.pad)
    }

    /// Append one code per byte of `bytes` to `out` (a byte ≥ 0x80 decodes to
    /// the pad code; on ASCII input this is one code per `char`).
    #[inline]
    pub fn decode_bytes(&self, bytes: &[u8], out: &mut Vec<u8>) {
        out.extend(
            bytes.iter().map(|&b| self.codes.get(usize::from(b)).copied().unwrap_or(self.pad)),
        );
    }

    /// Append one code per `char` of `s` to `out`.
    pub fn decode(&self, s: &str, out: &mut Vec<u8>) {
        if s.is_ascii() {
            self.decode_bytes(s.as_bytes(), out);
        } else {
            out.extend(s.chars().map(|c| self.code(c)));
        }
    }

    /// The codes of `s`, one per `char`.
    pub fn codes(&self, s: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(s.len());
        self.decode(s, &mut out);
        out
    }

    /// Pack codes at this alphabet's width and pad.
    pub fn pack(&self, codes: &[u8]) -> PackedSeq {
        PackedSeq::from_codes_wide(codes, self.bits, self.pad)
    }

    /// Decode and pack `s`, one code per `char`.
    pub fn pack_str(&self, s: &str) -> PackedSeq {
        self.pack(&self.codes(s))
    }
}

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
        DNA.pack(codes)
    }

    /// Pack a slice of residue codes at an explicit bit width with an
    /// explicit pad code (codes above `pad` are clamped to `pad`; the pad
    /// code itself must fit `bits`). `bits` is 4 or 8.
    pub fn from_codes_wide(codes: &[u8], bits: u32, pad: u8) -> PackedSeq {
        assert!(bits == 4 || bits == 8, "bits must be 4 or 8, got {bits}");
        assert!(u32::from(pad) < 1u32 << bits, "pad code {pad} does not fit {bits} bits");
        let words = if bits == 4 {
            pack_words(codes, pad, nibbles)
        } else {
            pack_words(codes, pad, u32::from_le_bytes)
        };
        PackedSeq { words, len: codes.len(), bits, pad }
    }

    /// Pack protein residue codes for a substitution matrix: 8 bits per
    /// code, padded with the matrix's ambiguous residue (`X`).
    pub fn from_protein_codes(codes: &[u8], matrix: &SubstMatrix) -> PackedSeq {
        matrix.table.pack(codes)
    }

    /// Pack a protein sequence from a string under a substitution matrix's
    /// alphabet (unknown characters become the ambiguous residue).
    pub fn from_protein_str(s: &str, matrix: &SubstMatrix) -> PackedSeq {
        matrix.table.pack_str(s)
    }

    /// Pack from a string (characters outside `ACGTU` become `N`).
    pub fn from_str_seq(s: &str) -> PackedSeq {
        DNA.pack_str(s)
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
    /// (one block edge of any geometry), clamping out-of-range positions
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

/// `codes` at `PER` codes per word, each clamped to `pad` and laid into a
/// word by `word`, the final word's unused slots filled with `pad` so that
/// whole-word block loads read deterministic data. The clamp runs over a
/// pad-initialised 64-code block at a time, so it vectorises and the tail
/// needs no case of its own.
fn pack_words<const PER: usize>(
    codes: &[u8],
    pad: u8,
    word: impl Fn([u8; PER]) -> u32,
) -> Vec<u32> {
    let mut words = Vec::with_capacity(codes.len().div_ceil(PER));
    for block in codes.chunks(64) {
        let mut clamped = [pad; 64];
        for (slot, &c) in clamped.iter_mut().zip(block) {
            *slot = c.min(pad);
        }
        let used = block.len().div_ceil(PER) * PER;
        words.extend(
            clamped[..used].chunks_exact(PER).map(|w| word(w.try_into().expect("PER codes"))),
        );
    }
    words
}

/// Eight 4-bit codes (one per byte) to one word, byte `k` to nibble `k`:
/// three shift-or-mask steps halve the spacing 8 → 4 → 2 → 1 bytes.
fn nibbles(codes: [u8; 8]) -> u32 {
    let v = u64::from_le_bytes(codes);
    let v = (v | v >> 4) & 0x00FF_00FF_00FF_00FF;
    let v = (v | v >> 8) & 0x0000_FFFF_0000_FFFF;
    (v | v >> 16) as u32
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

    /// The per-code packing formula: code `i` at bits `[bits*(i%per), +bits)`
    /// of word `i/per`, clamped to `pad`, the final word's tail padded.
    fn per_code_words(codes: &[u8], bits: u32, pad: u8) -> Vec<u32> {
        let per = (32 / bits) as usize;
        let slots = codes.len().div_ceil(per) * per;
        let mut words = vec![0u32; slots / per];
        for i in 0..slots {
            let c = codes.get(i).map_or(pad, |&c| c.min(pad));
            words[i / per] |= u32::from(c) << (bits * (i % per) as u32);
        }
        words
    }

    #[test]
    fn word_packer_matches_the_per_code_formula() {
        for (bits, pad) in [(4, 4), (4, 15), (8, 20), (8, 255)] {
            for len in 0..=70usize {
                // Over the 256 rotations every position sees every code,
                // above and below the clamp.
                for rot in 0..256usize {
                    let codes: Vec<u8> = (0..len).map(|i| ((i * 97 + rot) % 256) as u8).collect();
                    let p = PackedSeq::from_codes_wide(&codes, bits, pad);
                    assert_eq!(p.words(), per_code_words(&codes, bits, pad), "{bits}/{pad}/{len}");
                    assert_eq!((p.len(), p.bits(), p.pad()), (len, bits, pad));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits must be 4 or 8")]
    fn word_packer_takes_4_or_8_bits() {
        PackedSeq::from_codes_wide(&[0, 1], 2, 1);
    }

    /// The character decoders the tables replaced: a `match` for DNA and a
    /// linear search of the alphabet for a matrix.
    fn dna_by_match(c: char) -> u8 {
        match c.to_ascii_uppercase() {
            'A' => 0,
            'C' => 1,
            'G' => 2,
            'T' | 'U' => 3,
            _ => 4,
        }
    }

    fn blosum62_by_search(c: char) -> u8 {
        use crate::scoring::BLOSUM62;
        let up = c.to_ascii_uppercase();
        BLOSUM62.alphabet.chars().position(|a| a == up).map_or(BLOSUM62.pad_code(), |i| i as u8)
    }

    #[test]
    fn tables_agree_with_the_char_decoders_on_every_ascii_byte() {
        use crate::scoring::BLOSUM62;
        for b in 0u8..128 {
            let c = char::from(b);
            assert_eq!(DNA.code(c), dna_by_match(c), "{b:#x}");
            assert_eq!(Base::from_char(c).code(), dna_by_match(c), "{b:#x}");
            assert_eq!(BLOSUM62.table.code(c), blosum62_by_search(c), "{b:#x}");
            assert_eq!(BLOSUM62.code_of(c), blosum62_by_search(c), "{b:#x}");
            let mut one = Vec::new();
            DNA.decode_bytes(&[b], &mut one);
            BLOSUM62.table.decode_bytes(&[b], &mut one);
            assert_eq!(one, [dna_by_match(c), blosum62_by_search(c)], "{b:#x}");
        }
        for b in 0x80u8..=0xFF {
            let mut one = Vec::new();
            DNA.decode_bytes(&[b], &mut one);
            BLOSUM62.table.decode_bytes(&[b], &mut one);
            assert_eq!(one, [Base::N.code(), BLOSUM62.pad_code()], "{b:#x}");
        }
        assert_eq!((DNA.bits, DNA.pad), (BITS_PER_BASE, Base::N.code()));
        assert_eq!((BLOSUM62.table.bits, BLOSUM62.table.pad), (8, BLOSUM62.pad_code()));
    }

    #[test]
    fn string_packing_matches_a_per_char_decode() {
        use crate::scoring::BLOSUM62;
        // Letters of both alphabets in both cases, whitespace, multi-byte
        // characters (2, 3 and 4 bytes, Unicode whitespace among them), and
        // arbitrary scalar values.
        let pool: Vec<char> =
            "ACGTNUacgtnuXxWwRrBbZz* \t\r\n\u{0B}\u{85}\u{A0}é\u{3000}\u{10FFFF}😀"
                .chars()
                .collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..2000 {
            let len = (next() % 80) as usize;
            let s: String = (0..len)
                .map(|_| match next() % 4 {
                    0 => char::from_u32((next() % 0x11_0000) as u32).unwrap_or('?'),
                    _ => pool[(next() % pool.len() as u64) as usize],
                })
                .collect();
            let dna: Vec<u8> = s.chars().map(dna_by_match).collect();
            assert_eq!(PackedSeq::from_str_seq(&s), PackedSeq::from_codes(&dna), "case {case}");
            let protein: Vec<u8> = s.chars().map(blosum62_by_search).collect();
            assert_eq!(
                PackedSeq::from_protein_str(&s, &BLOSUM62),
                PackedSeq::from_protein_codes(&protein, &BLOSUM62),
                "case {case}"
            );
        }
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
