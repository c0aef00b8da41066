//! DNA alphabet: the five literals `A`, `C`, `G`, `T`, `N` (§2.1).

/// A single DNA base, encoded in the low 3 bits of a byte.
///
/// The numeric codes are stable across the workspace because the 4-bit
/// packed representation ([`crate::pack::PackedSeq`]) stores them directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Base {
    A = 0,
    C = 1,
    G = 2,
    T = 3,
    /// Ambiguous base ("any"); scores specially (see [`crate::Scoring::ambig`]).
    N = 4,
}

impl Base {
    /// All five literals in code order.
    pub const ALL: [Base; 5] = [Base::A, Base::C, Base::G, Base::T, Base::N];

    /// The four unambiguous literals.
    pub const ACGT: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Decode from the numeric code. Codes `>= 4` map to `N`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            3 => Base::T,
            _ => Base::N,
        }
    }

    /// Numeric code (0–4).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parse from a character (case-insensitive, `U` reads as `T`) through
    /// the [`crate::pack::DNA`] table. Unknown characters become `N`,
    /// matching common FASTA-reader behaviour.
    #[inline]
    pub fn from_char(c: char) -> Base {
        Base::from_code(crate::pack::DNA.code(c))
    }

    /// Upper-case ASCII character for this base.
    #[inline]
    pub fn to_char(self) -> char {
        match self {
            Base::A => 'A',
            Base::C => 'C',
            Base::G => 'G',
            Base::T => 'T',
            Base::N => 'N',
        }
    }

    /// Watson–Crick complement; `N` complements to `N`.
    #[inline]
    pub fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::C => Base::G,
            Base::G => Base::C,
            Base::T => Base::A,
            Base::N => Base::N,
        }
    }
}

impl std::fmt::Display for Base {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Convert a string into base codes, one per `char`.
pub fn codes_from_str(s: &str) -> Vec<u8> {
    crate::pack::DNA.codes(s)
}

/// Render base codes as an ASCII string.
pub fn codes_to_string(codes: &[u8]) -> String {
    codes.iter().map(|&c| Base::from_code(c).to_char()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_codes() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
        }
    }

    #[test]
    fn parse_characters() {
        assert_eq!(Base::from_char('a'), Base::A);
        assert_eq!(Base::from_char('g'), Base::G);
        assert_eq!(Base::from_char('u'), Base::T);
        assert_eq!(Base::from_char('x'), Base::N);
        assert_eq!(Base::from_char('n'), Base::N);
    }

    #[test]
    fn complement_is_involution_on_acgt() {
        for b in Base::ACGT {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
        assert_eq!(Base::N.complement(), Base::N);
    }

    #[test]
    fn string_roundtrip() {
        let s = "AGATTACAN";
        assert_eq!(codes_to_string(&codes_from_str(s)), s);
    }

    #[test]
    fn unknown_codes_clamp_to_n() {
        assert_eq!(Base::from_code(7), Base::N);
        assert_eq!(Base::from_code(255), Base::N);
    }
}
