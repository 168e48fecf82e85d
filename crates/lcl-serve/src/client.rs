//! A minimal blocking HTTP/1.1 client for the daemon's wire format: one
//! request per connection, `Connection: close`, JSON bodies. Used by the
//! integration tests and the load-generator bench; not a general client.

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
    let payload = body.map(|b| b.to_compact()).unwrap_or_default();
    let mut wire = format!("{method} {path} HTTP/1.1\r\nHost: rtlcl\r\nConnection: close\r\n");
    if body.is_some() {
        wire.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            payload.len()
        ));
    }
    wire.push_str("\r\n");
    wire.push_str(&payload);
    conn.write_all(wire.as_bytes())?;

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

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let text = std::str::from_utf8(raw).map_err(|_| invalid("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("response has no header terminator"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| invalid("empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("unparseable status line"))?;
    let mut retry_after = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
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
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 ok\r\n\r\n{}").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\nnot json").is_err());
    }
}
