//! Minimal HTTP/1.1 framing over `std::net`.
//!
//! Just enough protocol for a local JSON service, hand-rolled in the same
//! no-dependency spirit as the JSON codec in `autorfm-telemetry`: one
//! request per connection (`Connection: close`), `Content-Length` body
//! framing, no chunked encoding, no keep-alive. Both the server side
//! ([`read_request`] / [`respond_json`]) and the client side ([`request`])
//! live here so the daemon, the CLI client, and the tests speak through one
//! implementation.

use autorfm::telemetry::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on a whole request (head + body). Cells are small; anything
/// bigger than this is a mistake or abuse.
const MAX_REQUEST_BYTES: u64 = 8 * 1024 * 1024;

/// How long a client waits on one request/response round trip. Generous:
/// status polls return instantly, but a `wait` poll may land behind a slow
/// debug-build batch.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// A parsed incoming request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// Request target path, e.g. `/campaigns/0123abcd…/manifest`.
    pub path: String,
    /// Raw request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The request body parsed as JSON; `Null` for an empty body.
    ///
    /// # Errors
    ///
    /// Returns the parse error text for a malformed body.
    pub fn json(&self) -> Result<Json, String> {
        if self.body.is_empty() {
            return Ok(Json::Null);
        }
        let text = std::str::from_utf8(&self.body).map_err(|e| e.to_string())?;
        Json::parse(text).map_err(|e| e.to_string())
    }
}

fn bad_input(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Reads and parses one HTTP request from `stream` (a `&mut TcpStream` in
/// the server; any byte source in tests).
///
/// # Errors
///
/// Returns an [`std::io::ErrorKind::InvalidData`] error for malformed or
/// oversized requests, or the underlying I/O error.
pub fn read_request(stream: impl Read) -> std::io::Result<Request> {
    let mut reader = BufReader::new(stream.take(MAX_REQUEST_BYTES));
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad_input("empty request line"))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| bad_input("request line has no path"))?
        .to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad_input("bad Content-Length"))?;
            }
        }
    }
    if content_length as u64 > MAX_REQUEST_BYTES {
        return Err(bad_input(format!(
            "body of {content_length} bytes exceeds limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Writes a JSON response with status `status`/`reason` and closes framing
/// (`Connection: close`; the caller drops the stream afterwards).
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &Json,
) -> std::io::Result<()> {
    let text = body.to_pretty() + "\n";
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        text.len()
    )?;
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

/// Shorthand for a `{"error": msg}` response.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    msg: &str,
) -> std::io::Result<()> {
    respond_json(
        stream,
        status,
        reason,
        &Json::obj(vec![("error", Json::Str(msg.to_string()))]),
    )
}

/// One client round trip: connects to `addr`, sends `method path` with an
/// optional JSON `body`, and returns `(status, parsed body)`. An empty or
/// non-JSON response body comes back as [`Json::Null`].
///
/// # Errors
///
/// Returns connection/transport errors, or [`std::io::ErrorKind::InvalidData`]
/// for an unparsable status line.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> std::io::Result<(u16, Json)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let payload = body.map(Json::to_compact).unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    )?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_input(format!("bad HTTP response from {addr}")))?;
    let body = match text.split_once("\r\n\r\n") {
        Some((_, rest)) => Json::parse(rest).unwrap_or(Json::Null),
        None => Json::Null,
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_parses_method_path_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(
                s,
                "POST /campaigns HTTP/1.1\r\nHost: x\r\ncontent-length: 7\r\n\r\n{{\"a\":1}}"
            )
            .unwrap();
            s.flush().unwrap();
            // Keep the connection open until the server has read everything.
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.json().unwrap().get("a").and_then(Json::as_u64), Some(1));
        drop(conn);
        client.join().unwrap();
    }

    #[test]
    fn round_trip_through_client_helper() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_request(&mut conn).unwrap();
            assert_eq!(req.method, "GET");
            assert_eq!(req.path, "/health");
            respond_json(
                &mut conn,
                200,
                "OK",
                &Json::obj(vec![("ok", Json::Bool(true))]),
            )
            .unwrap();
        });
        let (status, body) = request(&addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
        server.join().unwrap();
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"\r\n\r\n").unwrap();
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let (mut conn, _) = listener.accept().unwrap();
        assert!(read_request(&mut conn).is_err());
        drop(conn);
        client.join().unwrap();
    }
}
