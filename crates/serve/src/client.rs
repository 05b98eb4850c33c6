//! A minimal std-only HTTP/1.1 client — enough to drive the replay
//! harness and the test suite against real sockets without external
//! tooling.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One received response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value (empty if absent).
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `ETag` header value (empty if absent).
    pub etag: String,
    /// Whether the server announced it will keep the connection open.
    pub keep_alive: bool,
}

impl HttpResponse {
    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn invalid(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Read one response off `stream` (head, then exactly `Content-Length`
/// body bytes).
///
/// # Errors
/// I/O failures and malformed response heads.
fn read_response(stream: &mut TcpStream) -> std::io::Result<HttpResponse> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed before response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut content_type = String::new();
    let mut content_length = 0usize;
    let mut keep_alive = true;
    let mut etag = String::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-type" => content_type = value.to_string(),
            "content-length" => {
                content_length = value.parse().map_err(|_| invalid("bad content-length"))?;
            }
            "etag" => etag = value.to_string(),
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(HttpResponse {
        status,
        content_type,
        body,
        etag,
        keep_alive,
    })
}

/// One-shot request on a fresh connection.
///
/// # Errors
/// Connect/read/write failures and malformed responses.
pub fn fetch(addr: SocketAddr, method: &str, target: &str) -> std::io::Result<HttpResponse> {
    fetch_with(addr, method, target, None)
}

/// One-shot request with an optional `If-None-Match` validator.
///
/// # Errors
/// Connect/read/write failures and malformed responses.
pub fn fetch_with(
    addr: SocketAddr,
    method: &str,
    target: &str,
    if_none_match: Option<&str>,
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let request = match if_none_match {
        Some(inm) => format!(
            "{method} {target} HTTP/1.1\r\nIf-None-Match: {inm}\r\nConnection: close\r\n\r\n"
        ),
        None => format!("{method} {target} HTTP/1.1\r\nConnection: close\r\n\r\n"),
    };
    stream.write_all(request.as_bytes())?;
    read_response(&mut stream)
}

/// A keep-alive connection that transparently reconnects when the server
/// closes it (e.g. at the per-connection request cap).
pub struct Connection {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Connection {
    /// A lazily-connected client for `addr`.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Connection { addr, stream: None }
    }

    fn stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            s.set_nodelay(true)?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Issue one GET over the kept-alive connection.
    ///
    /// # Errors
    /// Connect/read/write failures and malformed responses.
    pub fn get(&mut self, target: &str) -> std::io::Result<HttpResponse> {
        self.get_with(target, None)
    }

    /// Issue one GET with an optional `If-None-Match` validator.
    ///
    /// # Errors
    /// Connect/read/write failures and malformed responses.
    pub fn get_with(
        &mut self,
        target: &str,
        if_none_match: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        let request = match if_none_match {
            Some(inm) => format!("GET {target} HTTP/1.1\r\nIf-None-Match: {inm}\r\n\r\n"),
            None => format!("GET {target} HTTP/1.1\r\n\r\n"),
        };
        // One transparent retry: the server may have closed the cached
        // connection (request cap) between our requests.
        for attempt in 0..2 {
            let stream = self.stream()?;
            let outcome = stream
                .write_all(request.as_bytes())
                .and_then(|()| read_response(stream));
            match outcome {
                Ok(resp) => {
                    if !resp.keep_alive {
                        self.stream = None;
                    }
                    return Ok(resp);
                }
                Err(e) if attempt == 0 => {
                    let _ = e;
                    self.stream = None;
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the second attempt")
    }
}
