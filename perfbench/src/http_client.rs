//! A small HTTP/1.1 client for the serve workload.
//!
//! It frames each response by `Content-Length` (never by EOF) and keeps the
//! connection for the next request unless the response says
//! `Connection: close`, so a daemon that starts honouring keep-alive shows up
//! as fewer [`KeepAliveClient::connections_opened`] without any change here.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response head accepted.
const MAX_HEAD: usize = 16 * 1024;

/// One parsed response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Body bytes (exactly `Content-Length`).
    pub body: Vec<u8>,
}

/// A client bound to one server address, holding at most one connection.
pub struct KeepAliveClient {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    connections_opened: u64,
}

impl KeepAliveClient {
    /// A client for `addr`; every read and write is bounded by `timeout`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        KeepAliveClient {
            addr,
            timeout,
            conn: None,
            buf: Vec::with_capacity(4096),
            connections_opened: 0,
        }
    }

    /// TCP connections opened so far.
    pub fn connections_opened(&self) -> u64 {
        self.connections_opened
    }

    /// Sends `POST path` with a JSON body and reads the response. A reused
    /// connection that the server already closed is retried once on a fresh
    /// one (the request cannot have been processed: nothing was read back).
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        let reused = self.conn.is_some();
        match self.exchange(request.as_bytes()) {
            Err(e) if reused && is_stale(&e) => {
                self.conn = None;
                self.exchange(request.as_bytes())
            }
            other => other,
        }
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<HttpResponse> {
        if self.conn.is_none() {
            let conn = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            conn.set_nodelay(true)?;
            conn.set_read_timeout(Some(self.timeout))?;
            conn.set_write_timeout(Some(self.timeout))?;
            self.connections_opened += 1;
            self.conn = Some(conn);
        }
        let result = self.exchange_on_open(request);
        match &result {
            Ok((_, true)) | Err(_) => self.conn = None,
            Ok((_, false)) => {}
        }
        result.map(|(response, _)| response)
    }

    /// Writes the request and reads one response; the flag is "close now".
    fn exchange_on_open(&mut self, request: &[u8]) -> std::io::Result<(HttpResponse, bool)> {
        let conn = self.conn.as_mut().expect("connection opened above");
        conn.write_all(request)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = find_head_end(&self.buf) {
                break i;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            let mut chunk = [0u8; 4096];
            let n = conn.read(&mut chunk)?;
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
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| invalid("response without Content-Length"))?;
        let mut body = self.buf[head_end + 4..].to_vec();
        if body.len() > length {
            return Err(invalid("response longer than its Content-Length"));
        }
        let have = body.len();
        body.resize(length, 0);
        conn.read_exact(&mut body[have..])?;
        Ok((HttpResponse { status, body }, close))
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn invalid(what: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// Errors that mean a kept-alive connection was closed by the server.
fn is_stale(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe
    )
}
