//! Property test of the streaming FASTA reader: whatever bytes a file holds,
//! [`FastaReader`] iterated to exhaustion returns — records, or records and
//! then one error, never a panic — under DNA and under matrix packing alike,
//! and whatever it accepts as DNA survives [`write_fasta`] → [`read_fasta`]
//! unchanged.

use agatha_align::BLOSUM62;
use agatha_io::{read_fasta, write_fasta, FastaReader, FastaRecord};
use proptest::prelude::*;

/// Three valid inputs, as mutation seeds: plain headers with wrapped
/// sequence lines, the artifact's `>>>` headers, CRLF with blank lines.
const SHAPES: [&str; 3] = [
    ">a\nACGTNACGT\nacg\n>b second word\nTTTT\n>empty\n",
    ">>> 1\nATGCN\n>>> 2\nTCGGA\n",
    ">r1\r\nACGT\r\n\r\nAC\r\n\r\n>r2\r\n\r\nGGCC\r\n",
];

/// Bytes the format gives a meaning to; mutations draw half of theirs here.
const GRAMMAR: &[u8] = b">>\n\r \tACGTNacgtXx*-\x00\x7f\x80\xc3\xa9\xff";

/// One of [`GRAMMAR`] (`pick` even) or the raw byte.
fn byte(pick: u8, raw: u8) -> u8 {
    if pick.is_multiple_of(2) {
        GRAMMAR[usize::from(pick / 2) % GRAMMAR.len()]
    } else {
        raw
    }
}

/// Read `bytes` to exhaustion under both packings (returning at all is the
/// never-panics property), then round-trip what the DNA reader accepted
/// through a file named after `test`.
fn check(test: &str, bytes: &[u8]) -> Result<(), TestCaseError> {
    for matrix in [None, Some(&BLOSUM62)] {
        let items: Vec<_> = FastaReader::new(bytes).with_matrix(matrix).collect();
        let errors = items.iter().filter(|item| item.is_err()).count();
        prop_assert!(errors <= 1, "an error ends the stream");
        prop_assert!(errors == 0 || items.last().is_some_and(Result::is_err));
    }
    let Ok(records) = FastaReader::new(bytes).collect::<Result<Vec<FastaRecord>, _>>() else {
        return Ok(());
    };
    let path = std::env::temp_dir().join(format!("agatha-{test}-{}.fa", std::process::id()));
    let written = write_fasta(&path, &records).and_then(|()| read_fasta(&path));
    let _ = std::fs::remove_file(&path);
    let reread = written.map_err(TestCaseError::fail)?;
    prop_assert_eq!(reread.len(), records.len());
    for (got, want) in reread.iter().zip(&records) {
        prop_assert_eq!(&got.seq, &want.seq);
        // A name that itself begins with `>` reads back through the header
        // markers (`>` + `>>x` is the artifact's `>>>` + `x`): equal up to them.
        let bare = |r: &FastaRecord| r.name.trim_start_matches('>').trim().to_string();
        prop_assert_eq!(bare(got), bare(want));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn fasta_reader_never_panics_on_arbitrary_bytes(
        picks in collection::vec((0u8..=255, 0u8..=255), 0..160),
        headed in proptest::bool::ANY,
    ) {
        let mut bytes: Vec<u8> = picks.iter().map(|&(pick, raw)| byte(pick, raw)).collect();
        if headed {
            // Most random files die on their first line; get these past it.
            bytes.splice(0..0, *b">x\n");
        }
        check("arbitrary", &bytes)?;
    }

    #[test]
    fn fasta_reader_survives_mutated_files(
        shape in 0usize..3,
        edits in collection::vec((0u8..4, 0usize..128, 0u8..=255, 0u8..=255), 1..6),
    ) {
        let mut bytes = SHAPES[shape].as_bytes().to_vec();
        let intact: Result<Vec<_>, _> = FastaReader::new(&bytes[..]).collect();
        prop_assert!(intact.is_ok_and(|records| records.len() >= 2), "a seed shape stopped parsing");
        check("mutated", &bytes)?;
        for (op, at, pick, raw) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = byte(pick, raw),
                1 => bytes.insert(at, byte(pick, raw)),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
            check("mutated", &bytes)?;
        }
    }
}
