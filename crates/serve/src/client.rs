//! A small blocking NDJSON client for the serve protocol — what the
//! integration tests drive the daemon with, and a reference implementation
//! of the wire format for external callers.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{align_request_line, parse_flat_object, JsonValue};

/// A response line, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed request id (absent on parse-error responses).
    pub id: Option<i64>,
    pub status: Status,
    pub score: Option<i32>,
    pub queue_us: Option<u64>,
    pub service_us: Option<u64>,
    pub total_us: Option<u64>,
    /// `reason` text for dropped/rejected/error responses.
    pub reason: Option<String>,
    /// Raw line, for stats documents and debugging.
    pub raw: String,
}

/// Terminal status of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    Ok,
    Dropped,
    Rejected,
    Error,
    /// Non-request replies (`ping`, `stats`, `shutting-down`).
    Info,
}

/// Decode one response line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let obj = parse_flat_object(line)?;
    let status = match obj.get("status").and_then(JsonValue::as_str) {
        Some("ok") => Status::Ok,
        Some("dropped") => Status::Dropped,
        Some("rejected") => Status::Rejected,
        Some("error") => Status::Error,
        Some(_) => Status::Info,
        // A stats document has no status field; treat as info.
        None => Status::Info,
    };
    let get_u64 = |k: &str| obj.get(k).and_then(JsonValue::as_int).map(|v| v.max(0) as u64);
    Ok(Response {
        id: obj.get("id").and_then(JsonValue::as_int),
        status,
        score: obj.get("score").and_then(JsonValue::as_int).map(|s| s as i32),
        queue_us: get_u64("queue_us"),
        service_us: get_u64("service_us"),
        total_us: get_u64("total_us"),
        reason: obj.get("reason").and_then(JsonValue::as_str).map(str::to_string),
        raw: line.to_string(),
    })
}

/// Blocking connection to a running daemon. Supports both call/response
/// ([`ServeClient::align`]) and pipelined use ([`ServeClient::send_align`]
/// + [`ServeClient::recv`]).
pub struct ServeClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<ServeClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(ServeClient { writer: stream, reader })
    }

    /// Send one raw protocol line.
    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        self.writer.write_all(&bytes).map_err(|e| format!("send: {e}"))
    }

    /// Read the next raw response line.
    pub fn recv_line(&mut self) -> Result<String, String> {
        let mut line = Vec::new();
        let n = self.reader.read_until(b'\n', &mut line).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        let line = String::from_utf8(line)
            .map_err(|_| "recv: stream did not contain valid UTF-8".to_string())?;
        Ok(line.trim_end().to_string())
    }

    /// Read the next response line, decoded.
    pub fn recv(&mut self) -> Result<Response, String> {
        parse_response(&self.recv_line()?)
    }

    /// Fire an align request without waiting (pipelined).
    pub fn send_align(
        &mut self,
        id: i64,
        reference: &str,
        query: &str,
        deadline_ms: Option<u64>,
    ) -> Result<(), String> {
        self.send_line(&align_request_line(id, reference, query, deadline_ms))
    }

    /// Align one pair and wait for its response.
    pub fn align(
        &mut self,
        id: i64,
        reference: &str,
        query: &str,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.send_align(id, reference, query, deadline_ms)?;
        self.recv()
    }

    /// `{"cmd":"ping"}` round trip.
    pub fn ping(&mut self) -> Result<Response, String> {
        self.send_line("{\"cmd\":\"ping\"}")?;
        self.recv()
    }

    /// Fetch the server's stats JSON document. Returned raw: the stats
    /// dump nests histogram objects, which the flat request/response
    /// parser deliberately does not model.
    pub fn stats(&mut self) -> Result<String, String> {
        self.send_line("{\"cmd\":\"stats\"}")?;
        self.recv_line()
    }

    /// Ask the server to shut down (it acknowledges, then drains).
    pub fn shutdown_server(&mut self) -> Result<Response, String> {
        self.send_line("{\"cmd\":\"shutdown\"}")?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{dropped_response, ok_response, rejected_response};

    #[test]
    fn decodes_each_status() {
        let r = parse_response(&ok_response(1, 42, 10, 20, 30)).unwrap();
        assert_eq!(r.status, Status::Ok);
        assert_eq!(r.score, Some(42));
        assert_eq!(r.total_us, Some(30));
        let r = parse_response(&dropped_response(2, 99)).unwrap();
        assert_eq!(r.status, Status::Dropped);
        assert_eq!(r.queue_us, Some(99));
        let r = parse_response(&rejected_response(3)).unwrap();
        assert_eq!(r.status, Status::Rejected);
        assert_eq!(r.id, Some(3));
    }
}
