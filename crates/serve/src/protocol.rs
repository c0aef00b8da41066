//! The `agatha serve` wire protocol: newline-delimited JSON over a local
//! socket, one request object per line, one response object per line.
//!
//! Dependency-free by design — both the parser (a minimal flat-object JSON
//! reader) and the writers live here so the daemon, the bundled client and
//! the tests all speak exactly the same dialect.
//!
//! Requests:
//!
//! ```text
//! {"id": 7, "ref": "ACGT", "query": "ACGA", "deadline_ms": 50}
//! {"cmd": "ping"} | {"cmd": "stats"} | {"cmd": "shutdown"}
//! ```
//!
//! Responses (`status` is the discriminator):
//!
//! * `ok` — scored; carries `score`, `queue_us`, `service_us`, `total_us`.
//! * `dropped` — the deadline passed before kernel dispatch (`queue_us`).
//! * `rejected` — admission queue full; `code` 503, sent immediately.
//! * `error` — malformed request; carries `reason`.

use std::collections::HashMap;

/// A JSON scalar. The protocol only uses flat objects of scalars.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Null,
}

impl JsonValue {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }
}

/// Parse one flat JSON object (`{"key": scalar, ...}`). Nested containers
/// are rejected — the protocol never produces them.
pub fn parse_flat_object(line: &str) -> Result<HashMap<String, JsonValue>, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = HashMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
        return p.finish(out);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let val = p.value()?;
        out.insert(key, val);
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => return p.finish(out),
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn finish(
        &mut self,
        out: HashMap<String, JsonValue>,
    ) -> Result<HashMap<String, JsonValue>, String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes after object at offset {}", self.pos));
        }
        Ok(out)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.next() {
            Some(got) if got == b => Ok(()),
            got => Err(format!("expected '{}', got {got:?}", b as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // The run up to the next quote, backslash or control byte goes in
            // as one validated slice: none of them can sit inside a multibyte
            // UTF-8 sequence, so a run boundary never splits a character.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| matches!(b, b'"' | b'\\' | 0..0x20));
            let run = &rest[..run.unwrap_or(rest.len())];
            s.push_str(
                std::str::from_utf8(run).map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
            );
            self.pos += run.len();
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.next() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or("bad hex in \\u escape")?;
                        }
                        s.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(_) => return Err("raw control byte in string".to_string()),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'{' | b'[') => Err("nested containers are not part of the protocol".to_string()),
            Some(_) => self.number(),
            None => Err("missing value".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal (expected {word})"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if text.is_empty() {
            return Err("empty number".to_string());
        }
        if let Ok(i) = text.parse::<i64>() {
            return Ok(JsonValue::Int(i));
        }
        text.parse::<f64>().map(JsonValue::Float).map_err(|_| format!("bad number '{text}'"))
    }
}

/// One alignment request.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: i64,
    pub reference: String,
    pub query: String,
    /// Per-request deadline override in milliseconds from admission;
    /// absent = the server's `--deadline-ms` default.
    pub deadline_ms: Option<u64>,
}

/// A parsed client line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Align(AlignRequest),
    Ping,
    Stats,
    Shutdown,
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let obj = parse_flat_object(line)?;
    if let Some(cmd) = obj.get("cmd").and_then(JsonValue::as_str) {
        return match cmd {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd '{other}'")),
        };
    }
    let id = obj.get("id").and_then(JsonValue::as_int).ok_or("missing integer 'id'")?;
    let reference =
        obj.get("ref").and_then(JsonValue::as_str).ok_or("missing string 'ref'")?.to_string();
    let query =
        obj.get("query").and_then(JsonValue::as_str).ok_or("missing string 'query'")?.to_string();
    let deadline_ms = match obj.get("deadline_ms") {
        None | Some(JsonValue::Null) => None,
        Some(v) => {
            let ms = v.as_int().filter(|&ms| ms > 0).ok_or(
                "'deadline_ms' must be a positive integer (omit the field for no deadline)",
            )?;
            Some(ms as u64)
        }
    };
    Ok(Request::Align(AlignRequest { id, reference, query, deadline_ms }))
}

/// Escape a string for embedding in a JSON document.
pub fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Render the align request line a client sends.
pub fn align_request_line(
    id: i64,
    reference: &str,
    query: &str,
    deadline_ms: Option<u64>,
) -> String {
    let deadline = match deadline_ms {
        Some(ms) => format!(",\"deadline_ms\":{ms}"),
        None => String::new(),
    };
    format!(
        "{{\"id\":{id},\"ref\":\"{}\",\"query\":\"{}\"{deadline}}}",
        escape_json(reference),
        escape_json(query)
    )
}

/// `ok` response: scored, with the request's latency split.
pub fn ok_response(id: i64, score: i32, queue_us: u64, service_us: u64, total_us: u64) -> String {
    format!(
        "{{\"id\":{id},\"status\":\"ok\",\"score\":{score},\"queue_us\":{queue_us},\
         \"service_us\":{service_us},\"total_us\":{total_us}}}"
    )
}

/// `dropped` response: the deadline passed before kernel dispatch.
pub fn dropped_response(id: i64, queue_us: u64) -> String {
    format!(
        "{{\"id\":{id},\"status\":\"dropped\",\"reason\":\"deadline\",\"queue_us\":{queue_us}}}"
    )
}

/// `rejected` response: admission queue full (HTTP-style 503), sent
/// immediately at admission time without waiting for any batch.
pub fn rejected_response(id: i64) -> String {
    format!("{{\"id\":{id},\"status\":\"rejected\",\"code\":503,\"reason\":\"queue full\"}}")
}

/// `error` response for malformed requests.
pub fn error_response(id: Option<i64>, reason: &str) -> String {
    match id {
        Some(id) => {
            format!("{{\"id\":{id},\"status\":\"error\",\"reason\":\"{}\"}}", escape_json(reason))
        }
        None => format!("{{\"status\":\"error\",\"reason\":\"{}\"}}", escape_json(reason)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_align_request() {
        let r = parse_request(r#"{"id": 3, "ref": "ACGT", "query": "ACGA", "deadline_ms": 25}"#)
            .unwrap();
        assert_eq!(
            r,
            Request::Align(AlignRequest {
                id: 3,
                reference: "ACGT".to_string(),
                query: "ACGA".to_string(),
                deadline_ms: Some(25),
            })
        );
    }

    #[test]
    fn parses_commands() {
        assert_eq!(parse_request(r#"{"cmd": "ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"cmd": "stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"cmd": "shutdown"}"#).unwrap(), Request::Shutdown);
        assert!(parse_request(r#"{"cmd": "reboot"}"#).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"id": 1}"#).is_err(), "missing sequences");
        assert!(parse_request(r#"{"id": "x", "ref": "A", "query": "A"}"#).is_err());
        assert!(
            parse_request(r#"{"id": 1, "ref": "A", "query": "A", "deadline_ms": 0}"#).is_err(),
            "deadline_ms 0 is a usage error, not 'no deadline'"
        );
        assert!(parse_request(r#"{"id": 1, "ref": ["A"], "query": "A"}"#).is_err(), "nested");
        assert!(parse_request(r#"{"id": 1} trailing"#).is_err());
    }

    #[test]
    fn request_line_roundtrip() {
        let line = align_request_line(9, "AC\"GT", "AC\\GA", Some(7));
        match parse_request(&line).unwrap() {
            Request::Align(a) => {
                assert_eq!(a.id, 9);
                assert_eq!(a.reference, "AC\"GT");
                assert_eq!(a.query, "AC\\GA");
                assert_eq!(a.deadline_ms, Some(7));
            }
            other => panic!("expected align, got {other:?}"),
        }
    }

    #[test]
    fn responses_parse_back() {
        let obj = parse_flat_object(&ok_response(4, -12, 10, 20, 30)).unwrap();
        assert_eq!(obj["status"], JsonValue::Str("ok".to_string()));
        assert_eq!(obj["score"], JsonValue::Int(-12));
        assert_eq!(obj["total_us"], JsonValue::Int(30));
        let obj = parse_flat_object(&rejected_response(5)).unwrap();
        assert_eq!(obj["code"], JsonValue::Int(503));
        let obj = parse_flat_object(&dropped_response(6, 99)).unwrap();
        assert_eq!(obj["reason"], JsonValue::Str("deadline".to_string()));
        let obj = parse_flat_object(&error_response(None, "bad \"x\"")).unwrap();
        assert_eq!(obj["reason"], JsonValue::Str("bad \"x\"".to_string()));
    }

    #[test]
    fn strings_split_at_escapes_keep_every_character() {
        // Multibyte characters (2, 3 and 4 bytes) right before and after
        // escapes, at either end of a string, and between adjacent escapes:
        // each run between escapes is copied whole.
        let cases = [
            (r#""""#, ""),
            (r#""é""#, "é"),
            (r#""\"é""#, "\"é"),
            (r#""é\"""#, "é\""),
            (r#""€\\𝄞\n""#, "€\\𝄞\n"),
            (r#""\u00e9€\u20ac""#, "é€€"),
            (r#""a\t\r\/ü𝄞b""#, "a\t\r/ü𝄞b"),
            (r#""ACGT\"ACGT€""#, "ACGT\"ACGT€"),
        ];
        for (text, want) in cases {
            let obj = parse_flat_object(&format!(r#"{{"k": {text}, "é\"": 1}}"#)).unwrap();
            assert_eq!(obj["k"], JsonValue::Str(want.to_string()), "{text}");
            assert_eq!(obj["é\""], JsonValue::Int(1), "{text}");
        }
        for bad in [r#"{"k": "é"#, r#"{"k": "é\"#, "{\"k\": \"é\u{1}\"}", r#"{"k": "\x"}"#] {
            assert!(parse_flat_object(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unicode_and_floats() {
        let obj = parse_flat_object(r#"{"a": "café", "b": 1.5, "c": null, "d": true}"#).unwrap();
        assert_eq!(obj["a"], JsonValue::Str("café".to_string()));
        assert_eq!(obj["b"], JsonValue::Float(1.5));
        assert_eq!(obj["c"], JsonValue::Null);
        assert_eq!(obj["d"], JsonValue::Bool(true));
    }
}
