//! A minimal blocking HTTP/1.1 client for the daemon's wire format, JSON
//! bodies only; not a general client. Two modes:
//!
//! * [`get`] / [`post`] / [`request`] send one request per connection with
//!   `Connection: close` and read the response to EOF — the close semantics
//!   the integration tests' fault cases rely on;
//! * [`Connection`] keeps one socket across requests and frames each response
//!   by its `Content-Length`, so a load generator measures the daemon rather
//!   than TCP handshakes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::{self, Json};

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` seconds, when the server sent the header.
    pub retry_after: Option<u32>,
    /// The parsed JSON body.
    pub body: Json,
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<ClientResponse> {
    request(addr, "GET", path, None, timeout)
}

/// `POST path` with a JSON body.
pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &Json,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request(addr, "POST", path, Some(body), timeout)
}

/// Sends one request and reads the response to EOF.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Json>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    conn.write_all(&encode_request(method, path, body, false))?;

    let mut raw = Vec::new();
    match conn.read_to_end(&mut raw) {
        Ok(_) => {}
        // A peer that sheds load may reset the connection right after its
        // response (unread request bytes turn the close into an RST). If a
        // parseable response made it into our buffer first, honor it.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset && !raw.is_empty() => {
            if let Ok(resp) = parse_response(&raw) {
                return Ok(resp);
            }
            return Err(e);
        }
        Err(e) => return Err(e),
    }
    parse_response(&raw)
}

/// Largest response head a [`Connection`] accepts.
const MAX_HEAD: usize = 16 * 1024;
/// Largest response body a [`Connection`] allocates for.
const MAX_BODY: usize = 64 << 20;

/// A kept-alive connection to one daemon: requests reuse a single socket and
/// each response is framed by its `Content-Length`. After a response with
/// `Connection: close`, or an I/O error, the next request opens a new socket;
/// a reused socket that the daemon had already closed is retried once on a
/// fresh one (nothing was read back, so the request was never answered).
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    opened: u64,
}

impl Connection {
    /// A connection to `addr`; the socket opens on the first request. Every
    /// connect, read and write is bounded by `timeout`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Connection {
            addr,
            timeout,
            stream: None,
            buf: Vec::new(),
            opened: 0,
        }
    }

    /// TCP connections opened so far.
    pub fn connections_opened(&self) -> u64 {
        self.opened
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &Json) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// Sends one request on the kept-alive socket and reads its response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> std::io::Result<ClientResponse> {
        let wire = encode_request(method, path, body, true);
        let reused = self.stream.is_some();
        match self.exchange(&wire) {
            Err(e) if reused && is_stale(&e) => self.exchange(&wire),
            other => other,
        }
    }

    /// One request/response on the current socket (opened first if needed);
    /// drops the socket on an error or a `Connection: close` response.
    fn exchange(&mut self, wire: &[u8]) -> std::io::Result<ClientResponse> {
        let result = self.exchange_on_socket(wire);
        if !matches!(result, Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(response, _)| response)
    }

    /// Writes `wire` and reads one response; the flag is "keep the socket".
    fn exchange_on_socket(&mut self, wire: &[u8]) -> std::io::Result<(ClientResponse, bool)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.opened += 1;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("opened above");
        stream.write_all(wire)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let length: usize = header(head, "content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| invalid("response without Content-Length"))?;
        if length > MAX_BODY {
            return Err(invalid("response body too large"));
        }
        let keep = !header(head, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if self.buf.len() > head_end + length {
            return Err(invalid("response longer than its Content-Length"));
        }
        let have = self.buf.len();
        self.buf.resize(head_end + length, 0);
        stream.read_exact(&mut self.buf[have..])?;
        Ok((parse_response(&self.buf)?, keep))
    }
}

/// The request bytes: `Connection: close` unless `keep_alive`, and a JSON
/// body with its `Content-Length` when one is given.
fn encode_request(method: &str, path: &str, body: Option<&Json>, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut wire =
        format!("{method} {path} HTTP/1.1\r\nHost: rtlcl\r\nConnection: {connection}\r\n");
    let payload = body.map(|b| b.to_compact()).unwrap_or_default();
    if body.is_some() {
        wire.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            payload.len()
        ));
    }
    wire.push_str("\r\n");
    wire.push_str(&payload);
    wire.into_bytes()
}

/// Errors that mean a kept-alive socket was already closed by the daemon.
fn is_stale(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe
    )
}

/// The trimmed value of the first header called `name` (case-insensitive)
/// in a response head.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let text = std::str::from_utf8(raw).map_err(|_| invalid("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("response has no header terminator"))?;
    let status_line = head
        .split("\r\n")
        .next()
        .ok_or_else(|| invalid("empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("unparseable status line"))?;
    let retry_after = header(head, "retry-after").and_then(|v| v.parse().ok());
    let body = json::parse(body).map_err(|e| invalid(&format!("response body: {e}")))?;
    Ok(ClientResponse {
        status,
        retry_after,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_shed_response() {
        let wire = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 21\r\nRetry-After: 1\r\n\r\n{\"error\":\"overloaded\"}";
        // Content-Length is wrong on purpose (21 vs 22): the client reads to
        // EOF and ignores it, like the daemon's close-delimited responses allow.
        let r = parse_response(wire).unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.retry_after, Some(1));
        assert_eq!(
            r.body.get("error").and_then(Json::as_str),
            Some("overloaded")
        );
    }

    #[test]
    fn connection_reuses_its_socket_and_reconnects_after_close() {
        use std::net::TcpListener;
        // A scripted peer: per accepted socket, how to answer each request.
        // "keep" answers with keep-alive, "close" announces the close, and
        // "drop" answers keep-alive but then closes silently (the client
        // finds out on its next request and retries on a fresh socket).
        let scripts: [&[&str]; 3] = [&["keep", "keep", "close"], &["drop"], &["keep"]];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            for script in scripts {
                let (mut socket, _) = listener.accept().unwrap();
                let mut pending = Vec::new();
                for (i, &mode) in script.iter().enumerate() {
                    while !pending.windows(4).any(|w| w == b"\r\n\r\n") {
                        let mut chunk = [0u8; 1024];
                        let n = socket.read(&mut chunk).unwrap();
                        pending.extend_from_slice(&chunk[..n]);
                    }
                    let end = pending.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
                    pending.drain(..end);
                    let connection = if mode == "close" {
                        "close"
                    } else {
                        "keep-alive"
                    };
                    let body = format!("{{\"n\":{i}}}");
                    let response = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
                        body.len()
                    );
                    socket.write_all(response.as_bytes()).unwrap();
                }
            }
        });
        let mut conn = Connection::new(addr, Duration::from_secs(10));
        let mut seen = Vec::new();
        for _ in 0..5 {
            let r = conn.request("GET", "/healthz", None).unwrap();
            assert_eq!(r.status, 200);
            seen.push(r.body.get("n").and_then(Json::as_u64).unwrap());
        }
        peer.join().unwrap();
        assert_eq!(seen, [0, 1, 2, 0, 0]);
        assert_eq!(conn.connections_opened(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 ok\r\n\r\n{}").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\nnot json").is_err());
    }
}
