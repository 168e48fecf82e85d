//! Minimal HTTP/1.1 over `std::net::TcpStream`, hardened for hostile peers.
//!
//! Scope: exactly what the daemon needs — parse requests (method, path,
//! `Content-Length` body) and write responses, with HTTP/1.1 keep-alive: the
//! reader keeps any bytes that arrive past a request's body for the next
//! request (so pipelined requests work) and reports whether the peer allows
//! the connection to be reused. HTTP/1.1 allows it unless the request sends
//! `Connection: close`; HTTP/1.0 only with `Connection: keep-alive`. Whether
//! the daemon then *does* reuse it is the server's call ([`crate::server`]).
//! No chunked bodies, no extensions. What it *does* do carefully is fail:
//!
//! * every read runs against an **absolute deadline** — the socket read
//!   timeout is re-armed with the remaining budget before each `read`, so a
//!   slowloris peer trickling one byte per second cannot hold a worker past
//!   the deadline;
//! * header and body sizes are capped (`431` / `413`) before any allocation
//!   proportional to peer input;
//! * a `POST` without `Content-Length` is `411`, `Transfer-Encoding` is
//!   rejected (`400`) rather than misparsed;
//! * every malformed byte is a typed [`HttpError`] mapped to a structured
//!   JSON error response — never a panic, never a hung connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Per-connection read limits and deadline.
#[derive(Debug, Clone, Copy)]
pub struct ReadLimits {
    /// Cap on the request line + headers, bytes.
    pub max_header_bytes: usize,
    /// Cap on the declared (and actual) body, bytes.
    pub max_body_bytes: usize,
    /// Absolute point by which the whole request must have arrived.
    pub deadline: Instant,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercase as sent).
    pub method: String,
    /// The request target, query string stripped.
    pub path: String,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Each variant maps to one status code —
/// the daemon turns these into structured JSON errors.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing (`400`).
    Bad(&'static str),
    /// The peer ran out of deadline mid-request (`408`).
    Timeout,
    /// The peer closed before a full request arrived (no response possible).
    Disconnected,
    /// Request line + headers exceeded the cap (`431`).
    HeadersTooLarge,
    /// Declared body exceeds the cap (`413`).
    BodyTooLarge,
    /// `POST` without a `Content-Length` (`411`).
    LengthRequired,
    /// Socket error other than timeout/EOF.
    Io(std::io::Error),
}

impl HttpError {
    /// The status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Bad(_) => 400,
            HttpError::Timeout => 408,
            HttpError::Disconnected | HttpError::Io(_) => 400,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::LengthRequired => 411,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::Bad(what) => format!("malformed request: {what}"),
            HttpError::Timeout => "request not received within the read deadline".into(),
            HttpError::Disconnected => "connection closed mid-request".into(),
            HttpError::HeadersTooLarge => "request headers exceed the size limit".into(),
            HttpError::BodyTooLarge => "request body exceeds the size limit".into(),
            HttpError::LengthRequired => "POST requires a Content-Length header".into(),
            HttpError::Io(e) => format!("socket error: {e}"),
        }
    }
}

/// Re-arms the socket's read timeout with the time left until `deadline`.
/// An already-expired deadline is [`HttpError::Timeout`] immediately.
fn arm_read_timeout(stream: &TcpStream, deadline: Instant) -> Result<(), HttpError> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or(HttpError::Timeout)?;
    stream
        .set_read_timeout(Some(remaining))
        .map_err(HttpError::Io)
}

fn read_some(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<usize, HttpError> {
    arm_read_timeout(stream, deadline)?;
    loop {
        match stream.read(buf) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(HttpError::Timeout)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                // Retries re-arm so a signal storm can't extend the deadline.
                arm_read_timeout(stream, deadline)?;
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Size of one socket read.
const CHUNK: usize = 1024;

/// Appends one read's worth of bytes to `pending`, against `deadline`.
pub(crate) fn read_more(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    deadline: Instant,
) -> Result<(), HttpError> {
    let mut chunk = [0u8; CHUNK];
    let n = read_some(stream, &mut chunk, deadline)?;
    pending.extend_from_slice(&chunk[..n]);
    Ok(())
}

/// Reads and parses one request under `limits`. `pending` holds the bytes
/// already read off this connection and not yet parsed; on success it keeps
/// whatever arrived past this request's body — the start of the next,
/// pipelined request. The flag beside the request is `true` when the peer
/// allows the connection to be reused.
pub fn read_request(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    limits: &ReadLimits,
) -> Result<(Request, bool), HttpError> {
    // Accumulate until the blank line ending the headers, bounded.
    let header_end = loop {
        if let Some(at) = find_header_end(pending) {
            break at;
        }
        if pending.len() > limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        read_more(stream, pending, limits.deadline)?;
    };
    if header_end > limits.max_header_bytes {
        return Err(HttpError::HeadersTooLarge);
    }

    let head = std::str::from_utf8(&pending[..header_end])
        .map_err(|_| HttpError::Bad("headers are not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or(HttpError::Bad("request line has no method"))?
        .to_string();
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or(HttpError::Bad("request line has no absolute path"))?;
    let http11 = match parts.next() {
        Some("HTTP/1.1") => true,
        Some("HTTP/1.0") => false,
        _ => return Err(HttpError::Bad("expected HTTP/1.0 or HTTP/1.1")),
    };
    if parts.next().is_some() {
        return Err(HttpError::Bad("request line has trailing fields"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    let (mut close, mut keep_alive) = (false, false);
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Bad("header line has no colon"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| HttpError::Bad("unparseable Content-Length"))?;
                if content_length.is_some_and(|prev| prev != n) {
                    return Err(HttpError::Bad("conflicting Content-Length headers"));
                }
                content_length = Some(n);
            }
            "connection" => {
                for token in value.split(',').map(str::trim) {
                    close |= token.eq_ignore_ascii_case("close");
                    keep_alive |= token.eq_ignore_ascii_case("keep-alive");
                }
            }
            "transfer-encoding" => {
                // No chunked support: refusing is safer than misframing.
                return Err(HttpError::Bad("Transfer-Encoding is not supported"));
            }
            "expect" => {
                // No 100-continue dance; peers that wait for it time out.
                return Err(HttpError::Bad("Expect is not supported"));
            }
            _ => {}
        }
    }

    let body_len = match (method.as_str(), content_length) {
        ("POST" | "PUT" | "PATCH", None) => return Err(HttpError::LengthRequired),
        (_, None) => 0,
        (_, Some(n)) => n,
    };
    if body_len > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }

    // Bytes past the body stay in `pending` for the next request; the body
    // itself is read to its exact length, never past it.
    pending.drain(..header_end + 4);
    let buffered = body_len.min(pending.len());
    let mut body: Vec<u8> = pending.drain(..buffered).collect();
    let mut chunk = [0u8; CHUNK];
    while body.len() < body_len {
        let want = (body_len - body.len()).min(CHUNK);
        let n = read_some(stream, &mut chunk[..want], limits.deadline)?;
        body.extend_from_slice(&chunk[..n]);
    }
    let reusable = !close && (http11 || keep_alive);
    Ok((Request { method, path, body }, reusable))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response: status, JSON body, optional `Retry-After` advice.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body (sent compact, with `Content-Type: application/json`).
    pub body: Json,
    /// Seconds of `Retry-After` to advertise (the overload-shed contract).
    pub retry_after: Option<u32>,
}

impl Response {
    /// A `200 OK` with the given body.
    pub fn ok(body: Json) -> Response {
        Response {
            status: 200,
            body,
            retry_after: None,
        }
    }

    /// An error response with the daemon's uniform error shape:
    /// `{"error": <kind>, "detail": <detail>}`.
    pub fn error(status: u16, kind: &str, detail: impl Into<String>) -> Response {
        Response {
            status,
            body: Json::Obj(vec![
                ("error".into(), Json::str(kind)),
                ("detail".into(), Json::Str(detail.into())),
            ]),
            retry_after: None,
        }
    }

    /// Attaches `Retry-After: secs`.
    pub fn with_retry_after(mut self, secs: u32) -> Response {
        self.retry_after = Some(secs);
        self
    }

    /// Serializes status line + headers + compact body, announcing
    /// `Connection: close`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(false)
    }

    /// Serializes the response, announcing `Connection: keep-alive` when
    /// `keep_alive` is set and `Connection: close` otherwise.
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let body = self.body.to_compact();
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        if let Some(secs) = self.retry_after {
            out.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        out.push_str("\r\n");
        out.push_str(&body);
        out.into_bytes()
    }

    /// Writes the response ([`Self::encode`] with `keep_alive`), bounded by
    /// a write timeout; errors are returned (the caller drops the connection,
    /// nothing else to do).
    pub fn write(
        &self,
        stream: &mut TcpStream,
        write_timeout: Duration,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        stream.set_write_timeout(Some(write_timeout))?;
        stream.write_all(&self.encode(keep_alive))?;
        stream.flush()
    }
}

/// Reason phrases for the status codes the daemon uses.
fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn limits() -> ReadLimits {
        ReadLimits {
            max_header_bytes: 4096,
            max_body_bytes: 1 << 16,
            deadline: Instant::now() + Duration::from_secs(2),
        }
    }

    /// Writes `wire` into a loopback socket and parses it from the other end.
    fn parse(wire: &[u8]) -> Result<Request, HttpError> {
        parse_with(wire, limits()).map(|(req, _)| req)
    }

    /// Parses `wire` and returns the reuse flag.
    fn reusable(wire: &[u8]) -> bool {
        parse_with(wire, limits()).unwrap().1
    }

    fn parse_with(wire: &[u8], limits: ReadLimits) -> Result<(Request, bool), HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(wire).unwrap();
        client.flush().unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(&mut server_side, &mut Vec::new(), &limits)
    }

    #[test]
    fn parses_a_get() {
        let req = parse(b"GET /healthz?probe=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /classify HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/classify");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn post_without_length_is_411() {
        let err = parse(b"POST /classify HTTP/1.1\r\nHost: x\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::LengthRequired));
        assert_eq!(err.status(), 411);
    }

    #[test]
    fn oversized_declared_body_is_413_without_reading_it() {
        let mut l = limits();
        l.max_body_bytes = 8;
        let err = parse_with(
            b"POST /classify HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n",
            l,
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge));
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_headers_are_431() {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        wire.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "y".repeat(8192)).as_bytes());
        let err = parse(&wire).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge));
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for wire in [
            b"FLY ME /to HTTP/1.1 moon\r\n\r\n".as_slice(),
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / SMTP/1.1\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"\r\n\r\n",
            b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: two\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab",
        ] {
            let err = parse(wire).unwrap_err();
            assert!(
                matches!(err, HttpError::Bad(_)),
                "{:?} -> {err:?}",
                String::from_utf8_lossy(wire)
            );
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn stalled_peer_times_out_against_the_absolute_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        // Send half a request and stall.
        client.write_all(b"GET /hea").unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let tight = ReadLimits {
            deadline: Instant::now() + Duration::from_millis(120),
            ..limits()
        };
        let start = Instant::now();
        let err = read_request(&mut server_side, &mut Vec::new(), &tight).unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err:?}");
        assert_eq!(err.status(), 408);
        // The deadline is absolute: we returned promptly, not after some
        // multiple of a per-read timeout.
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn disconnect_mid_request_is_clean() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
        drop(client);
        let (mut server_side, _) = listener.accept().unwrap();
        let err = read_request(&mut server_side, &mut Vec::new(), &limits()).unwrap_err();
        assert!(matches!(err, HttpError::Disconnected), "{err:?}");
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .write_all(
                b"POST /classify HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}\
                  GET /stats HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let mut pending = Vec::new();
        let (first, reuse) = read_request(&mut server_side, &mut pending, &limits()).unwrap();
        assert_eq!(
            (first.method.as_str(), first.path.as_str()),
            ("POST", "/classify")
        );
        assert_eq!(first.body, b"{\"a\":1}");
        assert!(reuse);
        // The second request was read with the first and waits in `pending`.
        assert!(pending.starts_with(b"GET /stats"));
        let (second, _) = read_request(&mut server_side, &mut pending, &limits()).unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/stats")
        );
        assert!(second.body.is_empty());
        assert!(pending.is_empty());
    }

    #[test]
    fn reuse_follows_the_version_and_connection_header() {
        assert!(reusable(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(reusable(
            b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
        ));
        assert!(!reusable(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!reusable(
            b"GET / HTTP/1.1\r\nconnection: Upgrade, CLOSE\r\n\r\n"
        ));
        assert!(!reusable(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(reusable(
            b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        ));
    }

    #[test]
    fn response_wire_format() {
        let bytes = Response::ok(Json::Obj(vec![("ok".into(), Json::Bool(true))])).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let shed = Response::error(503, "overloaded", "queue full")
            .with_retry_after(1)
            .to_bytes();
        let text = String::from_utf8(shed).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("\"error\":\"overloaded\""));
    }

    #[test]
    fn keep_alive_wire_format_differs_only_in_the_connection_header() {
        let r = Response::ok(Json::Obj(vec![("ok".into(), Json::Bool(true))]));
        let kept = String::from_utf8(r.encode(true)).unwrap();
        assert!(kept.contains("Connection: keep-alive\r\n"));
        assert_eq!(
            kept.replace("Connection: keep-alive", "Connection: close")
                .into_bytes(),
            r.to_bytes()
        );
    }
}
