//! FASTA parsing and writing.
//!
//! Accepts standard FASTA (`>name`) and the AGAThA artifact's input format
//! (`>>> 1` headers; Appendix A.2.5). Sequence lines may wrap.
//!
//! Parsing is streaming-first: [`FastaReader`] yields one record at a time
//! from any [`BufRead`] without ever holding the whole file, and
//! [`FastaPairs`] zips two readers into alignment [`Task`]s so a pipeline
//! can consume millions of pairs with bounded memory. The eager
//! [`read_fasta`] / [`read_fasta_str`] helpers are thin collectors on top.
//!
//! Lines are read as bytes, decoded and packed in one pass per record:
//! 1.4–1.9 ns per base (550–720 MB/s) on a 2-vCPU AVX-512 host, where
//! `String` lines decoded per `char` took 12.6 (DNA) to 26 ns (BLOSUM62).
//! A stream shorter than one engine chunk parses in full before its first
//! kernel runs, so this rate is on the critical path.
//!
//! An all-ASCII line — every line of a well-formed file — is trimmed of the
//! bytes `str::trim` removes (`\t \n \x0B \x0C \r` and space) and decoded
//! byte by byte through the alphabet's [`CodeTable`] into one reusable
//! per-record code buffer, packed once when the record ends. Only a line
//! holding a byte ≥ 0x80 is validated as UTF-8 (an invalid one ends the
//! stream with the `read error` text `read_line` gave) and then trimmed and
//! decoded per `char`, so the reader accepts, rejects and decodes exactly
//! what a `str`-line reader does (`tests/fasta_differential.rs`).

use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::path::Path;

use agatha_align::pack::{CodeTable, DNA};
use agatha_align::{PackedSeq, ScoreModel, SubstMatrix, Task};

/// One FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header text (without the marker).
    pub name: String,
    /// Packed sequence.
    pub seq: PackedSeq,
}

/// Incremental FASTA parser over any buffered reader. Yields records one at
/// a time; a parse or I/O error ends the stream after being yielded once.
pub struct FastaReader<B: BufRead> {
    src: B,
    /// Error-message prefix (the file path; empty for in-memory input).
    label: String,
    lineno: usize,
    /// Header of the next record, consumed while finishing the previous one.
    pending: Option<String>,
    /// Reusable raw line buffer (terminator included).
    line: Vec<u8>,
    /// Reusable per-record code buffer: cleared and refilled per record so
    /// steady-state streaming reuses one allocation at the high-water
    /// sequence length, and packed once when the record ends.
    codes: Vec<u8>,
    finished: bool,
    /// The alphabet sequences decode through: [`DNA`] (4-bit), or a
    /// substitution matrix's residue table (8-bit).
    table: &'static CodeTable,
}

/// The trimmed part of the line buffer, and whether the whole line is ASCII.
struct Trimmed {
    range: Range<usize>,
    ascii: bool,
}

/// The ASCII bytes `str::trim` removes (Unicode `White_Space`; note `\x0B`,
/// which `u8::is_ascii_whitespace` does not count).
fn is_trim_byte(b: &u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

impl<B: BufRead> FastaReader<B> {
    /// Stream records from `src`.
    pub fn new(src: B) -> FastaReader<B> {
        FastaReader::with_label(src, String::new())
    }

    /// Stream records from `src`, prefixing errors with `label`.
    pub fn with_label(src: B, label: String) -> FastaReader<B> {
        FastaReader {
            src,
            label,
            lineno: 0,
            pending: None,
            line: Vec::new(),
            codes: Vec::new(),
            finished: false,
            table: &DNA,
        }
    }

    /// Pack records under `matrix`'s alphabet (`None` keeps DNA packing).
    /// Scenario-selected score models flow through here so protein input
    /// packs to the residue codes that index the matrix.
    pub fn with_matrix(mut self, matrix: Option<&'static SubstMatrix>) -> FastaReader<B> {
        self.table = matrix.map_or(&DNA, |m| &m.table);
        self
    }

    fn err(&self, msg: String) -> String {
        if self.label.is_empty() {
            msg
        } else {
            format!("{}: {msg}", self.label)
        }
    }

    /// Read the next line into `self.line` and trim it; `Ok(None)` at the end
    /// of input.
    fn read_trimmed_line(&mut self) -> Result<Option<Trimmed>, String> {
        self.line.clear();
        let n = self
            .src
            .read_until(b'\n', &mut self.line)
            .map_err(|e| self.err(format!("read error: {e}")))?;
        if n == 0 {
            return Ok(None);
        }
        self.lineno += 1;
        if self.line.is_ascii() {
            let end =
                self.line.len() - self.line.iter().rev().take_while(|b| is_trim_byte(b)).count();
            let start = self.line[..end].iter().take_while(|b| is_trim_byte(b)).count();
            return Ok(Some(Trimmed { range: start..end, ascii: true }));
        }
        let Ok(text) = std::str::from_utf8(&self.line) else {
            return Err(self.err("read error: stream did not contain valid UTF-8".to_string()));
        };
        let end = text.trim_end().len();
        let start = end - text[..end].trim_start().len();
        Ok(Some(Trimmed { range: start..end, ascii: false }))
    }
}

impl<B: BufRead> Iterator for FastaReader<B> {
    type Item = Result<FastaRecord, String>;

    fn next(&mut self) -> Option<Result<FastaRecord, String>> {
        if self.finished {
            return None;
        }
        let mut name = self.pending.take();
        self.codes.clear();
        loop {
            let Trimmed { range, ascii } = match self.read_trimmed_line() {
                Ok(Some(t)) => t,
                Ok(None) => {
                    self.finished = true;
                    break;
                }
                Err(e) => {
                    self.finished = true;
                    return Some(Err(e));
                }
            };
            let line = &self.line[range];
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix(b">>>").or_else(|| line.strip_prefix(b">")) {
                let rest = std::str::from_utf8(rest).expect("a UTF-8 line minus an ASCII prefix");
                let next_name = rest.trim().to_string();
                if name.is_some() {
                    // Finish the open record; stash the header we just ate.
                    self.pending = Some(next_name);
                    break;
                }
                name = Some(next_name);
            } else if name.is_none() {
                self.finished = true;
                let lineno = self.lineno;
                return Some(Err(
                    self.err(format!("line {lineno}: sequence data before any header"))
                ));
            } else if ascii {
                self.table.decode_bytes(line, &mut self.codes);
            } else {
                let text = std::str::from_utf8(line).expect("a validated line trimmed at chars");
                self.table.decode(text, &mut self.codes);
            }
        }
        name.map(|n| Ok(FastaRecord { name: n, seq: self.table.pack(&self.codes) }))
    }
}

/// Open a FASTA file as a streaming [`FastaReader`].
pub fn open_fasta(path: &Path) -> Result<FastaReader<BufReader<std::fs::File>>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok(FastaReader::with_label(BufReader::new(file), path.display().to_string()))
}

/// Zips a reference and a query record stream into alignment [`Task`]s,
/// with sequential ids. Errors if one stream ends before the other — 'each
/// input file should have an equal number of reference and query strings'
/// (Appendix A.2.5).
pub struct FastaPairs<A: BufRead, B: BufRead> {
    refs: FastaReader<A>,
    queries: FastaReader<B>,
    next_id: u32,
    done: bool,
}

impl<A: BufRead, B: BufRead> FastaPairs<A, B> {
    /// Pair up two record streams.
    pub fn new(refs: FastaReader<A>, queries: FastaReader<B>) -> FastaPairs<A, B> {
        FastaPairs { refs, queries, next_id: 0, done: false }
    }
}

/// Open a reference/query FASTA file pair as a streaming task source
/// (4-bit DNA packing).
#[allow(clippy::type_complexity)]
pub fn open_fasta_pairs(
    refs: &Path,
    queries: &Path,
) -> Result<FastaPairs<BufReader<std::fs::File>, BufReader<std::fs::File>>, String> {
    Ok(FastaPairs::new(open_fasta(refs)?, open_fasta(queries)?))
}

/// Open a reference/query FASTA file pair packed under `model`'s alphabet:
/// DNA packing for the fixed model, the matrix's 8-bit residue codes for a
/// substitution-matrix model.
#[allow(clippy::type_complexity)]
pub fn open_fasta_pairs_model(
    refs: &Path,
    queries: &Path,
    model: &ScoreModel,
) -> Result<FastaPairs<BufReader<std::fs::File>, BufReader<std::fs::File>>, String> {
    let m = model.matrix();
    Ok(FastaPairs::new(open_fasta(refs)?.with_matrix(m), open_fasta(queries)?.with_matrix(m)))
}

impl<A: BufRead, B: BufRead> Iterator for FastaPairs<A, B> {
    type Item = Result<Task, String>;

    fn next(&mut self) -> Option<Result<Task, String>> {
        if self.done {
            return None;
        }
        let item = match (self.refs.next(), self.queries.next()) {
            (None, None) => None,
            (Some(Ok(r)), Some(Ok(q))) => {
                let id = self.next_id;
                self.next_id += 1;
                let task = Task { id, reference: r.seq, query: q.seq };
                // Task admission: engines store cell coordinates as i32, so
                // over-wide inputs must error here instead of silently
                // truncating deep inside a kernel. Name the record from the
                // stream whose sequence is actually over-wide.
                if let Err(e) = task.admit() {
                    self.done = true;
                    let name =
                        if task.ref_len() > agatha_align::MAX_SEQ_LEN { &r.name } else { &q.name };
                    return Some(Err(format!("record {} ('{name}'): {e}", id + 1)));
                }
                return Some(Ok(task));
            }
            (Some(Err(e)), _) | (_, Some(Err(e))) => Some(Err(e)),
            // Exactly one stream ended; name the short one.
            (Some(_), None) => Some(Err(uneven_pair_error(
                "query",
                &self.queries.label,
                "reference",
                self.next_id,
            ))),
            (None, Some(_)) => {
                Some(Err(uneven_pair_error("reference", &self.refs.label, "query", self.next_id)))
            }
        };
        self.done = true;
        item
    }
}

fn uneven_pair_error(short_side: &str, short_label: &str, long_side: &str, records: u32) -> String {
    let short =
        if short_label.is_empty() { short_side.to_string() } else { short_label.to_string() };
    format!(
        "reference and query files must pair up: the {short_side} input ({short}) ended after \
         {records} records while the {long_side} input has more; 'each input file should have \
         an equal number of reference and query strings'"
    )
}

/// Parse FASTA from a string.
pub fn read_fasta_str(content: &str) -> Result<Vec<FastaRecord>, String> {
    FastaReader::new(content.as_bytes()).collect()
}

/// Read FASTA from a file, materialising every record.
pub fn read_fasta(path: &Path) -> Result<Vec<FastaRecord>, String> {
    open_fasta(path)?.collect()
}

/// Write records as standard FASTA (60-column wrapping).
pub fn write_fasta(path: &Path, records: &[FastaRecord]) -> Result<(), String> {
    let mut f =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    for r in records {
        writeln!(f, ">{}", r.name).map_err(|e| e.to_string())?;
        let s = r.seq.to_string_seq();
        for chunk in s.as_bytes().chunks(60) {
            f.write_all(chunk).map_err(|e| e.to_string())?;
            f.write_all(b"\n").map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    #[test]
    fn standard_fasta() {
        let recs = read_fasta_str(">a\nACGT\nACGT\n>b\nTTTT\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "a");
        assert_eq!(recs[0].seq.to_string_seq(), "ACGTACGT");
        assert_eq!(recs[1].seq.len(), 4);
    }

    #[test]
    fn artifact_format() {
        // The format from Appendix A.2.5.
        let recs = read_fasta_str(">>> 1\nATGCN\n>>> 2\nTCGGA\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "1");
        assert_eq!(recs[0].seq.to_string_seq(), "ATGCN");
    }

    #[test]
    fn rejects_headerless_data() {
        assert!(read_fasta_str("ACGT\n").is_err());
    }

    #[test]
    fn empty_input_ok() {
        assert!(read_fasta_str("").unwrap().is_empty());
    }

    #[test]
    fn roundtrip_via_file() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("t.fasta");
        let recs = vec![
            FastaRecord { name: "r1".into(), seq: PackedSeq::from_str_seq(&"ACGT".repeat(40)) },
            FastaRecord { name: "r2".into(), seq: PackedSeq::from_str_seq("NNNACGT") },
        ];
        write_fasta(&path, &recs).unwrap();
        let back = read_fasta(&path).unwrap();
        assert_eq!(back, recs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtrip_wrapping_and_edge_records() {
        // Records exercising the writer's 60-column wrapping (155 bases →
        // three lines), an empty sequence, a single base, and interior Ns.
        let dir = scratch_dir("edge");
        let path = dir.join("edge.fasta");
        let long: String = (0..155).map(|i| ['A', 'C', 'G', 'T', 'N'][i % 5]).collect::<String>();
        let recs = vec![
            FastaRecord { name: "wrapped read".into(), seq: PackedSeq::from_str_seq(&long) },
            FastaRecord { name: "empty".into(), seq: PackedSeq::from_str_seq("") },
            FastaRecord { name: "single".into(), seq: PackedSeq::from_str_seq("G") },
            FastaRecord { name: "n-run".into(), seq: PackedSeq::from_str_seq("ACNNNNNNGT") },
        ];
        write_fasta(&path, &recs).unwrap();
        let back = read_fasta(&path).unwrap();
        assert_eq!(back, recs);
        // The writer must actually have wrapped the long record.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().all(|l| l.len() <= 60));
        assert_eq!(text.lines().filter(|l| !l.starts_with('>')).count(), 3 + 1 + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crlf_and_blank_lines_tolerated() {
        let recs = read_fasta_str(">a\r\nAC\r\n\r\nGT\r\n\n>b\r\nTT\r\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq.to_string_seq(), "ACGT");
        assert_eq!(recs[1].seq.to_string_seq(), "TT");
    }

    #[test]
    fn streaming_reader_matches_eager_parse() {
        let content = ">a\r\nAC\r\n\r\nGT\r\n\n>>> 2\nTTTT\nAAAA\n>c\n";
        let eager = read_fasta_str(content).unwrap();
        let streamed: Vec<FastaRecord> =
            FastaReader::new(content.as_bytes()).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, eager);
        assert_eq!(streamed.len(), 3);
        assert_eq!(streamed[1].name, "2");
        assert_eq!(streamed[2].seq.len(), 0, "trailing header yields an empty record");
    }

    #[test]
    fn streaming_reader_reports_headerless_data_once() {
        let mut r = FastaReader::new("ACGT\n>a\nAC\n".as_bytes());
        let err = r.next().unwrap().unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(r.next().is_none(), "stream must end after a parse error");
    }

    #[test]
    fn pair_reader_builds_tasks_with_sequential_ids() {
        let refs = FastaReader::new(">1\nACGT\n>2\nTTTT\n".as_bytes());
        let queries = FastaReader::new(">1\nACGA\n>2\nTTTA\n".as_bytes());
        let tasks: Vec<_> = FastaPairs::new(refs, queries).map(|t| t.unwrap()).collect();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].id, 0);
        assert_eq!(tasks[1].id, 1);
        assert_eq!(tasks[1].reference.to_string_seq(), "TTTT");
        assert_eq!(tasks[1].query.to_string_seq(), "TTTA");
    }

    #[test]
    fn pair_reader_rejects_uneven_streams() {
        let refs = FastaReader::new(">1\nACGT\n>2\nTTTT\n".as_bytes());
        let queries = FastaReader::new(">1\nACGA\n".as_bytes());
        let mut pairs = FastaPairs::new(refs, queries);
        assert!(pairs.next().unwrap().is_ok());
        let err = pairs.next().unwrap().unwrap_err();
        assert!(err.contains("equal number"), "{err}");
        assert!(err.contains("query input"), "must name the short side: {err}");
        assert!(pairs.next().is_none());

        // The opposite direction names the reference side.
        let refs = FastaReader::new(">1\nACGT\n".as_bytes());
        let queries = FastaReader::new(">1\nACGA\n>2\nTTTA\n".as_bytes());
        let mut pairs = FastaPairs::new(refs, queries);
        assert!(pairs.next().unwrap().is_ok());
        let err = pairs.next().unwrap().unwrap_err();
        assert!(err.contains("reference input"), "{err}");
    }

    #[test]
    fn matrix_reader_packs_protein_codes() {
        use agatha_align::BLOSUM62;
        let recs: Vec<FastaRecord> = FastaReader::new(">p\nARNd\nw?\n".as_bytes())
            .with_matrix(Some(&BLOSUM62))
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(recs.len(), 1);
        let seq = &recs[0].seq;
        assert_eq!(seq.bits(), 8, "matrix alphabets pack at 8 bits");
        assert_eq!(seq.len(), 6);
        // Case-insensitive residue codes; unknown letters become the pad
        // residue (X).
        let codes: Vec<u8> = (0..seq.len()).map(|i| seq.code(i)).collect();
        assert_eq!(codes, [0, 1, 2, 3, 17, BLOSUM62.pad_code()]);

        // The pair reader under a matrix model packs both sides alike.
        let refs = FastaReader::new(">1\nWWWW\n".as_bytes()).with_matrix(Some(&BLOSUM62));
        let queries = FastaReader::new(">1\nWWWW\n".as_bytes()).with_matrix(Some(&BLOSUM62));
        let tasks: Vec<Task> = FastaPairs::new(refs, queries).map(|t| t.unwrap()).collect();
        assert_eq!(tasks[0].reference.bits(), 8);
        assert_eq!(tasks[0].query.code(0), 17);
    }

    #[test]
    fn string_roundtrip_preserves_ambiguity() {
        // Unknown letters normalise to N on parse; a second round trip is
        // then exact.
        let first = read_fasta_str(">r\nACGTRYKMacgt\n").unwrap();
        assert_eq!(first[0].seq.to_string_seq(), "ACGTNNNNACGT");
        let dir = scratch_dir("ambig");
        let path = dir.join("ambig.fasta");
        write_fasta(&path, &first).unwrap();
        assert_eq!(read_fasta(&path).unwrap(), first);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
