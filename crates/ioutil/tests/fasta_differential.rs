//! Differential property of the byte-level [`FastaReader`]: on any bytes it
//! yields exactly what the `str`-line reader it replaced yields (kept under
//! `reference/`) — the same records, the same error text with the same line
//! number, ending at the same point — under DNA and matrix packing, and
//! however the buffered source splits lines across refills. The packer both
//! readers share is checked against the per-code formula in
//! `agatha_align::pack`'s tests.

mod reference;

use std::io::BufReader;

use agatha_align::BLOSUM62;
use agatha_io::{FastaReader, FastaRecord};
use proptest::prelude::*;

/// What the format and the two decoders give a meaning to: header markers,
/// every line terminator and every ASCII byte `str::trim` removes (`\x0B`
/// and `\x0C` included), Unicode whitespace that only `str::trim` knows
/// (U+0085, U+00A0, U+3000), a valid multi-byte letter, lone continuation
/// and invalid bytes, RNA's `u`, and DNA and BLOSUM62 letters in both cases.
const TOKENS: &[&[u8]] = &[
    b">",
    b">>>",
    b"\n",
    b"\r\n",
    b"\r",
    b" ",
    b"\t",
    b"\x0B",
    b"\x0C",
    b"\xC2\x85",
    b"\xC2\xA0",
    b"\xE3\x80\x80",
    b"\xC3\xA9",
    b"\x80",
    b"\xFF",
    b"\x00",
    b"\x1C",
    b"\x7F",
    b"A",
    b"C",
    b"G",
    b"T",
    b"N",
    b"acgtn",
    b"u",
    b"U",
    b"ARNDCQEGHILKMFPSTWYVX",
    b"wyv",
    b"BJOZ",
    b"*-?",
];

/// One of [`TOKENS`] (`pick` even) or the raw byte.
fn token(pick: u8, raw: u8) -> Vec<u8> {
    if pick.is_multiple_of(2) {
        TOKENS[usize::from(pick / 2) % TOKENS.len()].to_vec()
    } else {
        vec![raw]
    }
}

/// Everything a reader yields.
type Items = Vec<Result<FastaRecord, String>>;

/// Both readers (new, reference), each through a `BufReader` of `capacity`
/// bytes.
fn both(
    bytes: &[u8],
    capacity: usize,
    matrix: Option<&'static agatha_align::SubstMatrix>,
) -> (Items, Items) {
    let label = || "in.fa".to_string();
    let got = FastaReader::with_label(BufReader::with_capacity(capacity, bytes), label())
        .with_matrix(matrix)
        .collect();
    let want =
        reference::FastaReader::with_label(BufReader::with_capacity(capacity, bytes), label())
            .with_matrix(matrix)
            .collect();
    (got, want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn byte_reader_matches_the_str_line_reader(
        picks in collection::vec((0u8..=255, 0u8..=255), 0..96),
        headed in proptest::bool::ANY,
    ) {
        let mut bytes: Vec<u8> = picks.iter().flat_map(|&(pick, raw)| token(pick, raw)).collect();
        if headed {
            // Most random files die on their first line; get these past it.
            bytes.splice(0..0, *b">x\n");
        }
        for matrix in [None, Some(&BLOSUM62)] {
            for capacity in [1, 3, 8192] {
                let (got, want) = both(&bytes, capacity, matrix);
                prop_assert_eq!(got, want);
            }
        }
    }
}

#[test]
fn hand_written_edges_match_the_str_line_reader() {
    // The property is only as good as its inputs: pin one file per edge the
    // tokens aim at, whatever the random cases happen to reach.
    let cases: [&[u8]; 9] = [
        b">a\n\x0BAC GT\x0C\r\n",
        b">a\nAC\xC2\xA0\n\xE3\x80\x80GT\xC2\x85\n",
        b">a\n\xC3\xA9cgu\n",
        b">a\nACGT\n\x80\n>b\nAC\n",
        b">a\nAC\n\xFF",
        b"\n\nAC\n",
        b">>>> x \n>\n>>>\nwyvBJOZ\n",
        b">a\r\nA\rC\r\n",
        b"",
    ];
    for bytes in cases {
        for matrix in [None, Some(&BLOSUM62)] {
            for capacity in [1, 3, 8192] {
                let (got, want) = both(bytes, capacity, matrix);
                assert_eq!(got, want, "{:?}", String::from_utf8_lossy(bytes));
            }
        }
    }
    // The invalid-UTF-8 line keeps the text `read_line` gave it.
    let (got, _) = both(b">a\nAC\n\xFF\n", 8192, None);
    assert_eq!(
        got.last(),
        Some(&Err("in.fa: read error: stream did not contain valid UTF-8".into()))
    );
}
