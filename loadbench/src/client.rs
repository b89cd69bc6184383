//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, `Content-Length` framing only (all `maprat serve` sends).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a request may take before it counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// The `X-MapRat-Cache` header, when present.
    pub cache: Option<String>,
    pub body: Vec<u8>,
}

/// A persistent connection that reconnects after any error.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends one request and reads its reply. `tag` goes out as the
    /// `X-Bench-Request` header, which the traced server keys spans on.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
        tag: u64,
    ) -> Result<Reply, String> {
        let result = self.try_send(method, target, body, tag);
        if result.is_err() {
            // Never reuse a connection in an unknown framing state.
            self.stream = None;
        }
        result
    }

    fn try_send(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
        tag: u64,
    ) -> Result<Reply, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, TIMEOUT)
                .map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nX-Bench-Request: {tag}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut out = head.into_bytes();
        out.extend_from_slice(body.as_bytes());
        reader
            .get_mut()
            .write_all(&out)
            .map_err(|e| format!("write: {e}"))?;
        read_reply(reader)
    }
}

/// Reads one `Content-Length`-framed response.
pub fn read_reply(reader: &mut impl BufRead) -> Result<Reply, String> {
    let mut line = String::new();
    if reader
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?
        == 0
    {
        return Err("connection closed".into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let (mut length, mut cache) = (None, None);
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            return Err("connection closed in headers".into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-maprat-cache") {
                cache = Some(value.to_string());
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let mut body = vec![0; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(Reply {
        status,
        cache,
        body,
    })
}

/// Percent-encodes a query-string value.
pub fn encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_framed_replies_back_to_back() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-MapRat-Cache: miss\r\n\r\nhiHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        let mut reader = &wire[..];
        let a = read_reply(&mut reader).unwrap();
        assert_eq!(
            (a.status, a.cache.as_deref(), &a.body[..]),
            (200, Some("miss"), &b"hi"[..])
        );
        let b = read_reply(&mut reader).unwrap();
        assert_eq!((b.status, b.cache, b.body.len()), (404, None, 0));
        assert!(read_reply(&mut reader).is_err());
    }

    #[test]
    fn encodes_titles() {
        assert_eq!(
            encode("The Lord: Rings & Co"),
            "The%20Lord%3A%20Rings%20%26%20Co"
        );
    }
}
