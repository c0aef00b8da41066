//! The `str`-line FASTA reader the byte-level [`agatha_io::FastaReader`]
//! replaced, kept verbatim as the differential test's reference: lines read
//! with `read_line` into a `String` (UTF-8 validation), `str::trim`med,
//! appended to a `String` accumulator and decoded per `char`. Its two
//! decoders are the ones `Base::from_char` and `SubstMatrix::code_of` had
//! before the ASCII tables: a `match` and a linear alphabet search.

use std::io::BufRead;

use agatha_align::{Base, PackedSeq, SubstMatrix};
use agatha_io::FastaRecord;

/// `Base::from_char` as a `match`.
fn base_from_char(c: char) -> Base {
    match c.to_ascii_uppercase() {
        'A' => Base::A,
        'C' => Base::C,
        'G' => Base::G,
        'T' | 'U' => Base::T,
        _ => Base::N,
    }
}

/// `SubstMatrix::code_of` as a linear search of the alphabet.
fn code_of(m: &SubstMatrix, c: char) -> u8 {
    let up = c.to_ascii_uppercase();
    m.alphabet.chars().position(|a| a == up).map_or(m.pad_code(), |i| i as u8)
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
    line: String,
    /// Reusable sequence accumulator: cleared and refilled per record so
    /// steady-state streaming reuses one allocation at the high-water
    /// sequence length instead of growing a fresh `String` every record.
    seq: String,
    finished: bool,
    /// Pack sequences under this substitution matrix's alphabet (8-bit
    /// residue codes) instead of the default 4-bit DNA packing.
    matrix: Option<&'static SubstMatrix>,
}

impl<B: BufRead> FastaReader<B> {
    /// Stream records from `src`, prefixing errors with `label`.
    pub fn with_label(src: B, label: String) -> FastaReader<B> {
        FastaReader {
            src,
            label,
            lineno: 0,
            pending: None,
            line: String::new(),
            seq: String::new(),
            finished: false,
            matrix: None,
        }
    }

    /// Pack records under `matrix`'s alphabet (`None` keeps DNA packing).
    /// Scenario-selected score models flow through here so protein input
    /// packs to the residue codes that index the matrix.
    pub fn with_matrix(mut self, matrix: Option<&'static SubstMatrix>) -> FastaReader<B> {
        self.matrix = matrix;
        self
    }

    fn pack(&self, seq: &str) -> PackedSeq {
        match self.matrix {
            None => PackedSeq::from_codes(
                &seq.chars().map(|c| base_from_char(c).code()).collect::<Vec<_>>(),
            ),
            Some(m) => PackedSeq::from_protein_codes(
                &seq.chars().map(|c| code_of(m, c)).collect::<Vec<_>>(),
                m,
            ),
        }
    }

    fn err(&self, msg: String) -> String {
        if self.label.is_empty() {
            msg
        } else {
            format!("{}: {msg}", self.label)
        }
    }

    fn read_trimmed_line(&mut self) -> Result<Option<&str>, String> {
        self.line.clear();
        let n =
            self.src.read_line(&mut self.line).map_err(|e| self.err(format!("read error: {e}")))?;
        if n == 0 {
            return Ok(None);
        }
        self.lineno += 1;
        Ok(Some(self.line.trim()))
    }
}

impl<B: BufRead> Iterator for FastaReader<B> {
    type Item = Result<FastaRecord, String>;

    fn next(&mut self) -> Option<Result<FastaRecord, String>> {
        if self.finished {
            return None;
        }
        let mut name = self.pending.take();
        // Take the accumulator so sequence lines can append while
        // `read_trimmed_line` borrows `self`; restored before returning.
        let mut seq = std::mem::take(&mut self.seq);
        seq.clear();
        loop {
            let line = match self.read_trimmed_line() {
                Ok(Some(l)) => l,
                Ok(None) => {
                    self.finished = true;
                    break;
                }
                Err(e) => {
                    self.finished = true;
                    return Some(Err(e));
                }
            };
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix(">>>").or_else(|| line.strip_prefix('>')) {
                let next_name = rest.trim().to_string();
                if name.is_some() {
                    // Finish the open record; stash the header we just ate.
                    self.pending = Some(next_name);
                    break;
                }
                name = Some(next_name);
            } else {
                if name.is_none() {
                    self.finished = true;
                    let lineno = self.lineno;
                    return Some(Err(
                        self.err(format!("line {lineno}: sequence data before any header"))
                    ));
                }
                seq.push_str(line);
            }
        }
        let record = name.map(|n| Ok(FastaRecord { name: n, seq: self.pack(&seq) }));
        self.seq = seq;
        record
    }
}
