//! Property test of the hand-rolled request parser: whatever bytes a
//! connection delivers, [`parse_request`] returns — an error or a request,
//! never a panic — and whatever it accepts as an align request re-serialises
//! through [`align_request_line`] to a line it accepts again, as the same
//! request.

use agatha_serve::protocol::{align_request_line, parse_request, Request};
use proptest::prelude::*;

/// The three valid request shapes, as mutation seeds: an align request with
/// and without a deadline (escapes, a multibyte character and every number
/// form included) and a command.
const SHAPES: [&str; 3] = [
    r#"{"id": 7, "ref": "ACGT\n\"N\\", "query": "ACGAé", "deadline_ms": 5e1}"#,
    r#"{"id":-12,"ref":"ACGTACGTAC","query":"ACGAACGT","deadline_ms":null}"#,
    r#" {"cmd":"ping"} "#,
];

/// Bytes the grammar gives a meaning to; mutations draw half of theirs here.
const GRAMMAR: &[u8] = b"{}\":,\\u/ntr0159-+.eE tfalsnul[]\x00\x1f\x7f\x80\xc3\xa9\xe2\xf0\xff";

/// One of [`GRAMMAR`] (`pick` even) or the raw byte.
fn byte(pick: u8, raw: u8) -> u8 {
    if pick.is_multiple_of(2) {
        GRAMMAR[usize::from(pick / 2) % GRAMMAR.len()]
    } else {
        raw
    }
}

/// What the daemon does with a line's bytes; returning at all is the
/// never-panics property.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(Request::Align(a)) = parse_request(&String::from_utf8_lossy(bytes)) {
        let line = align_request_line(a.id, &a.reference, &a.query, a.deadline_ms);
        prop_assert_eq!(parse_request(&line), Ok(Request::Align(a)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_request_never_panics_on_arbitrary_bytes(
        picks in collection::vec((0u8..=255, 0u8..=255), 0..96),
        braced in proptest::bool::ANY,
    ) {
        let mut bytes: Vec<u8> = picks.iter().map(|&(pick, raw)| byte(pick, raw)).collect();
        if braced {
            // Most random lines die at the first byte; get these past it.
            bytes.insert(0, b'{');
            bytes.push(b'}');
        }
        check(&bytes)?;
    }

    #[test]
    fn parse_request_survives_mutated_requests(
        shape in 0usize..3,
        edits in collection::vec((0u8..4, 0usize..128, 0u8..=255, 0u8..=255), 1..6),
    ) {
        let mut bytes = SHAPES[shape].as_bytes().to_vec();
        check(&bytes)?;
        prop_assert!(parse_request(SHAPES[shape]).is_ok(), "a seed shape stopped parsing");
        for (op, at, pick, raw) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = byte(pick, raw),
                1 => bytes.insert(at, byte(pick, raw)),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
            check(&bytes)?;
        }
    }
}
