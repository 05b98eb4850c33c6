//! An incremental HTTP/1.1 request parser and response writer, std-only.
//!
//! The parser is a pure function over a byte prefix: `parse_request`
//! inspects whatever bytes have arrived so far and returns either a
//! complete request (plus how many bytes it consumed — the pipelining
//! contract), a "keep reading" verdict, or an [`HttpError`] naming the
//! exact taxonomy variant. Purity over prefixes is what makes torn reads
//! trivially correct: a socket may deliver the head one byte at a time
//! and the caller just re-parses the growing buffer. It also makes the
//! parser directly property-testable — every split point of a valid
//! request must parse `Partial` before the head terminator and
//! `Complete` with identical fields after it.
//!
//! ## Error taxonomy
//!
//! Every malformed input maps to exactly one [`HttpError`] variant and
//! one status code; nothing panics on arbitrary bytes (the adversarial
//! tests feed seeded garbage to prove it):
//!
//! | variant              | status | trigger                                    |
//! |----------------------|--------|--------------------------------------------|
//! | `BadRequestLine`     | 400    | malformed method/target/version syntax     |
//! | `BadHeader`          | 400    | header line without `: ` or bad name chars |
//! | `MethodUnsupported`  | 405    | well-formed token other than GET/HEAD/POST |
//! | `VersionUnsupported` | 505    | well-formed `HTTP/x.y` other than 1.0/1.1  |
//! | `HeadTooLarge`       | 431    | head > [`MAX_HEAD_BYTES`] or > [`MAX_HEADERS`] lines |
//! | `BodyUnsupported`    | 413    | nonzero `Content-Length` / any `Transfer-Encoding` |

use std::io::Write;
use webstruct_util::obs::escape_json;

/// Hard ceiling on the request head (request line + headers + CRLFCRLF).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard ceiling on the number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Hard ceiling on the method token length (longest real method is 7).
pub const MAX_METHOD_LEN: usize = 16;

/// The request-parse error taxonomy. Each variant carries its HTTP
/// status and a stable machine-readable slug used in error bodies and
/// asserted exactly by the adversarial tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// The request line is not `METHOD SP target SP HTTP/x.y`.
    BadRequestLine,
    /// A header line is not `name: value` with a valid token name.
    BadHeader,
    /// A syntactically valid method we do not serve.
    MethodUnsupported,
    /// A syntactically valid HTTP version other than 1.0/1.1.
    VersionUnsupported,
    /// The head exceeded [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`].
    HeadTooLarge,
    /// The request announced a body; every resource here is read-only.
    BodyUnsupported,
}

impl HttpError {
    /// The status code this error maps to.
    #[must_use]
    pub fn status(self) -> u16 {
        match self {
            HttpError::BadRequestLine | HttpError::BadHeader => 400,
            HttpError::MethodUnsupported => 405,
            HttpError::VersionUnsupported => 505,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyUnsupported => 413,
        }
    }

    /// Stable slug used in JSON error bodies.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            HttpError::BadRequestLine => "bad_request_line",
            HttpError::BadHeader => "bad_header",
            HttpError::MethodUnsupported => "method_unsupported",
            HttpError::VersionUnsupported => "version_unsupported",
            HttpError::HeadTooLarge => "head_too_large",
            HttpError::BodyUnsupported => "body_unsupported",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status(), self.slug())
    }
}

/// The methods the serving layer answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read a resource.
    Get,
    /// Like GET, but the response carries headers only.
    Head,
    /// Mutating control endpoints (`/shutdown`).
    Post,
}

impl Method {
    /// The wire token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
        }
    }
}

/// One parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Query parameters in request order (`k=v` pairs; bare keys get
    /// empty values).
    pub query: Vec<(String, String)>,
    /// The `If-None-Match` header value, verbatim, if the client sent
    /// one (conditional-GET revalidation against the epoch ETag).
    pub if_none_match: Option<String>,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Whether the connection should stay open after the response
    /// (version default adjusted by any `Connection` header).
    pub keep_alive: bool,
}

impl Request {
    /// First value of a query parameter, if present.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Materialise an owned request from a borrowed head — the slow
    /// path's single allocation point.
    #[must_use]
    pub fn from_head(head: &RequestHead<'_>) -> Self {
        Request {
            method: head.method,
            path: head.path.to_string(),
            query: parse_query(head.query_raw),
            if_none_match: head.if_none_match.map(str::to_string),
            http11: head.http11,
            keep_alive: head.keep_alive,
        }
    }
}

/// A parsed request head borrowing straight from the connection buffer —
/// the zero-allocation view the cached fast path routes on. The owned
/// [`Request`] is derived from this via [`Request::from_head`] only when
/// a request actually needs the full router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead<'a> {
    /// The method.
    pub method: Method,
    /// Path component of the target, without the query string.
    pub path: &'a str,
    /// The raw query string after `?` (empty if none) — parsed into
    /// pairs only on the slow path.
    pub query_raw: &'a str,
    /// The `If-None-Match` header value, verbatim, if present.
    pub if_none_match: Option<&'a str>,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// Outcome of parsing the bytes received so far, returned by
/// [`parse_head`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadParse<'a> {
    /// A full head was parsed; `usize` is the bytes consumed (the next
    /// pipelined request, if any, starts there).
    Complete(RequestHead<'a>, usize),
    /// No head terminator yet — read more bytes and re-parse.
    Partial,
    /// The prefix is already irrecoverably malformed.
    Error(HttpError),
}

/// RFC 7230 token characters, the legal alphabet for header names.
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Case-insensitive substring search over ASCII bytes (the `Connection`
/// header tokens), allocation-free.
fn contains_ignore_case(haystack: &[u8], needle: &[u8]) -> bool {
    haystack
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle))
}

/// Parse the request head at the front of `buf` without allocating: every
/// field of the returned [`RequestHead`] borrows from `buf`. A cache hit
/// is served without ever building an owned [`Request`]; the router's
/// slow path derives one with [`Request::from_head`].
///
/// Pure over prefixes: for a fixed well-formed request, every proper
/// prefix of its head parses `Partial` and every extension past the head
/// parses `Complete` with identical fields and the same consumed count.
#[must_use]
pub fn parse_head(buf: &[u8]) -> HeadParse<'_> {
    // Locate the head terminator within the size budget first, so an
    // attacker streaming an unbounded head is cut off at the limit no
    // matter how the bytes are framed.
    let search_limit = buf.len().min(MAX_HEAD_BYTES + 4);
    let head_end = find_crlfcrlf(&buf[..search_limit]);
    let Some(head_end) = head_end else {
        if buf.len() > MAX_HEAD_BYTES {
            return HeadParse::Error(HttpError::HeadTooLarge);
        }
        return HeadParse::Partial;
    };
    if head_end > MAX_HEAD_BYTES {
        return HeadParse::Error(HttpError::HeadTooLarge);
    }
    let head = &buf[..head_end];
    let consumed = head_end + 4;

    let mut lines = head.split(|&b| b == b'\n').map(|l| {
        // Lines are CRLF-delimited; `split('\n')` leaves the CR.
        l.strip_suffix(b"\r").unwrap_or(l)
    });
    let request_line = lines.next().unwrap_or(b"");

    // Request line: METHOD SP target SP HTTP/x.y — single spaces, no
    // leading whitespace, exactly three fields.
    let mut fields = request_line.split(|&b| b == b' ');
    let (Some(method_b), Some(target_b), Some(version_b), None) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return HeadParse::Error(HttpError::BadRequestLine);
    };
    if method_b.is_empty()
        || method_b.len() > MAX_METHOD_LEN
        || !method_b.iter().all(|&b| b.is_ascii_uppercase())
    {
        return HeadParse::Error(HttpError::BadRequestLine);
    }
    let method = match method_b {
        b"GET" => Some(Method::Get),
        b"HEAD" => Some(Method::Head),
        b"POST" => Some(Method::Post),
        _ => None,
    };
    if target_b.is_empty() || target_b[0] != b'/' || !target_b.is_ascii() {
        return HeadParse::Error(HttpError::BadRequestLine);
    }
    let http11 = match version_b {
        b"HTTP/1.1" => true,
        b"HTTP/1.0" => false,
        v if v.len() == 8 && v.starts_with(b"HTTP/") => {
            return HeadParse::Error(HttpError::VersionUnsupported)
        }
        _ => return HeadParse::Error(HttpError::BadRequestLine),
    };
    // Method dispatch happens after version syntax, so "FROB / HTTP/1.1"
    // reports the method problem, not a phantom syntax error.
    let Some(method) = method else {
        return HeadParse::Error(HttpError::MethodUnsupported);
    };

    // Headers. The last `Connection` header wins (matching the previous
    // owned parser, which overwrote on repeats); values are inspected
    // in place, case-insensitively, so nothing is copied.
    let mut n_headers = 0usize;
    let mut connection: Option<&[u8]> = None;
    let mut if_none_match: Option<&[u8]> = None;
    let mut content_length = 0u64;
    let mut has_transfer_encoding = false;
    for line in lines {
        if line.is_empty() {
            // Head split produced a trailing empty slice only if the head
            // ended with a bare CRLF pair, which find_crlfcrlf excludes.
            return HeadParse::Error(HttpError::BadHeader);
        }
        n_headers += 1;
        if n_headers > MAX_HEADERS {
            return HeadParse::Error(HttpError::HeadTooLarge);
        }
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            return HeadParse::Error(HttpError::BadHeader);
        };
        let name = &line[..colon];
        if name.is_empty() || !name.iter().all(|&b| is_token_byte(b)) {
            return HeadParse::Error(HttpError::BadHeader);
        }
        let value = trim_ascii(&line[colon + 1..]);
        if !value.is_ascii() {
            return HeadParse::Error(HttpError::BadHeader);
        }
        if name.eq_ignore_ascii_case(b"connection") {
            connection = Some(value);
        } else if name.eq_ignore_ascii_case(b"content-length") {
            let Ok(n) = std::str::from_utf8(value)
                .ok()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or(())
            else {
                return HeadParse::Error(HttpError::BadHeader);
            };
            content_length = n;
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            has_transfer_encoding = true;
        } else if name.eq_ignore_ascii_case(b"if-none-match") {
            if_none_match = Some(value);
        }
    }
    if content_length > 0 || has_transfer_encoding {
        return HeadParse::Error(HttpError::BodyUnsupported);
    }

    let keep_alive = match connection {
        Some(c) if contains_ignore_case(c, b"close") => false,
        Some(c) if contains_ignore_case(c, b"keep-alive") => true,
        _ => http11,
    };

    // Target and header values were ASCII-checked above, so the UTF-8
    // views are infallible.
    let target = std::str::from_utf8(target_b).expect("target is ASCII");
    let (path, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    HeadParse::Complete(
        RequestHead {
            method,
            path,
            query_raw,
            if_none_match: if_none_match
                .map(|v| std::str::from_utf8(v).expect("header value is ASCII")),
            http11,
            keep_alive,
        },
        consumed,
    )
}

fn find_crlfcrlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn trim_ascii(mut b: &[u8]) -> &[u8] {
    while let [b' ' | b'\t', rest @ ..] = b {
        b = rest;
    }
    while let [rest @ .., b' ' | b'\t'] = b {
        b = rest;
    }
    b
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// A routed response: status, content type, body. The server writes it
/// behind [`write_response_head`]'s fixed, deterministic header set (no
/// `Date`, no `Server` nonce), so a byte digest of the wire form is
/// comparable across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a JSON body.
    #[must_use]
    pub fn ok_json(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// 200 with a CSV body (figure `.dat` exports).
    #[must_use]
    pub fn ok_csv(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/csv",
            body: body.into_bytes(),
        }
    }

    /// A taxonomy error response: `{"error": <slug>, "detail": ...}`.
    #[must_use]
    pub fn error(status: u16, slug: &str, detail: &str) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: format!(
                "{{\"error\": \"{}\", \"detail\": \"{}\"}}\n",
                escape_json(slug),
                escape_json(detail)
            )
            .into_bytes(),
        }
    }

    /// The response for a request-parse failure.
    #[must_use]
    pub fn from_http_error(e: HttpError) -> Self {
        Response::error(e.status(), e.slug(), "request rejected by the parser")
    }
}

/// Append a deterministic response head to `out`: status line,
/// `Content-Type`, `Content-Length`, optional `ETag`, `Connection`,
/// blank line. `write!` into a `Vec<u8>` formats integers in place, so a
/// head whose buffer already has capacity costs zero heap allocations —
/// the property the cached fast path is built on.
pub fn write_response_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body_len: usize,
    etag: Option<&str>,
    keep_alive: bool,
) {
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        reason_phrase(status),
        content_type,
        body_len,
    );
    if let Some(tag) = etag {
        let _ = write!(out, "ETag: {tag}\r\n");
    }
    let _ = write!(
        out,
        "Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" },
    );
}

/// Whether an `If-None-Match` header matches `etag`. Accepts a
/// comma-separated list and the `*` wildcard; anything else (including
/// malformed or unquoted tags) simply fails to match — a conditional
/// request with a garbage validator degrades to an unconditional GET.
#[must_use]
pub fn if_none_match_matches(header: &str, etag: &str) -> bool {
    header
        .split(',')
        .map(str::trim)
        .any(|tag| tag == "*" || tag == etag)
}

/// The standard reason phrase for the statuses this server emits.
#[must_use]
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::rng::{Seed, Xoshiro256};

    fn complete(buf: &[u8]) -> (Request, usize) {
        match parse_head(buf) {
            HeadParse::Complete(head, n) => (Request::from_head(&head), n),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    fn error(buf: &[u8]) -> HttpError {
        match parse_head(buf) {
            HeadParse::Error(e) => e,
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_plain_get() {
        let raw: &[u8] = b"GET /entity/7?channel=search HTTP/1.1\r\nHost: x\r\n\r\n";
        let (r, n) = complete(raw);
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/entity/7");
        assert_eq!(r.query_param("channel"), Some("search"));
        assert!(r.http11);
        assert!(r.keep_alive);
        assert_eq!(n, raw.len());
    }

    #[test]
    fn http10_defaults_to_close_and_connection_header_overrides() {
        let (r, _) = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive);
        let (r, _) = complete(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r.keep_alive);
        let (r, _) = complete(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!r.keep_alive);
    }

    #[test]
    fn torn_reads_at_every_byte_boundary() {
        // The incremental contract, exhaustively: every proper prefix of
        // the head is Partial, every completion point parses identically.
        let raw: &[u8] = b"GET /coverage.csv?k=3 HTTP/1.1\r\nHost: a.example\r\nAccept: text/csv\r\n\r\nGET";
        let (full, consumed) = complete(raw);
        for cut in 0..consumed {
            assert_eq!(
                parse_head(&raw[..cut]),
                HeadParse::Partial,
                "prefix of {cut} bytes should be Partial"
            );
        }
        for cut in consumed..=raw.len() {
            let (r, n) = complete(&raw[..cut]);
            assert_eq!(r, full, "request changed at cut {cut}");
            assert_eq!(n, consumed, "consumed changed at cut {cut}");
        }
    }

    #[test]
    fn pipelined_requests_consume_exactly_one_head() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (r1, n1) = complete(raw);
        assert_eq!(r1.path, "/a");
        let (r2, n2) = complete(&raw[n1..]);
        assert_eq!(r2.path, "/b");
        assert_eq!(n1 + n2, raw.len());
    }

    #[test]
    fn taxonomy_is_exact() {
        assert_eq!(error(b"GET/ HTTP/1.1\r\n\r\n"), HttpError::BadRequestLine);
        assert_eq!(error(b"get / HTTP/1.1\r\n\r\n"), HttpError::BadRequestLine);
        assert_eq!(error(b"GET  / HTTP/1.1\r\n\r\n"), HttpError::BadRequestLine);
        assert_eq!(error(b"GET x HTTP/1.1\r\n\r\n"), HttpError::BadRequestLine);
        assert_eq!(error(b"GET / HTTP/1.1 extra\r\n\r\n"), HttpError::BadRequestLine);
        assert_eq!(error(b"GET / POTATO/9\r\n\r\n"), HttpError::BadRequestLine);
        assert_eq!(error(b"DELETE / HTTP/1.1\r\n\r\n"), HttpError::MethodUnsupported);
        assert_eq!(error(b"BREW / HTTP/1.1\r\n\r\n"), HttpError::MethodUnsupported);
        assert_eq!(error(b"GET / HTTP/2.0\r\n\r\n"), HttpError::VersionUnsupported);
        assert_eq!(error(b"GET / HTTP/0.9\r\n\r\n"), HttpError::VersionUnsupported);
        assert_eq!(error(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"), HttpError::BadHeader);
        assert_eq!(error(b"GET / HTTP/1.1\r\n: empty\r\n\r\n"), HttpError::BadHeader);
        assert_eq!(
            error(b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n"),
            HttpError::BadHeader
        );
        assert_eq!(
            error(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n"),
            HttpError::BodyUnsupported
        );
        assert_eq!(
            error(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            HttpError::BodyUnsupported
        );
    }

    #[test]
    fn version_problem_outranks_method_problem() {
        // Both wrong: the version error wins (we could not serve any
        // method at that version).
        assert_eq!(error(b"BREW / HTTP/3.0\r\n\r\n"), HttpError::VersionUnsupported);
    }

    #[test]
    fn oversized_heads_are_cut_off() {
        // A huge single header with no terminator: rejected as soon as
        // the prefix passes the budget, even though more bytes may come.
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(raw.len() + MAX_HEAD_BYTES, b'a');
        assert_eq!(error(&raw), HttpError::HeadTooLarge);
        // Too many small headers, properly terminated.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            raw.extend(format!("X-H{i}: v\r\n").into_bytes());
        }
        raw.extend(b"\r\n");
        assert_eq!(error(&raw), HttpError::HeadTooLarge);
    }

    #[test]
    fn zero_content_length_is_fine() {
        let (r, _) = complete(b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(r.method, Method::Post);
    }

    #[test]
    fn seeded_garbage_never_panics() {
        // Adversarial fuzz, seeded-loop style: random bytes, random
        // mutations of a valid request, random truncations. The parser
        // must always return one of the three verdicts — no panics, no
        // hangs. 2000 iterations keeps this test under a second.
        let valid = b"GET /entity/3?x=1 HTTP/1.1\r\nHost: h\r\nAccept: */*\r\n\r\n";
        let mut rng = Xoshiro256::from_seed(Seed::DEFAULT.derive("http-fuzz"));
        for _ in 0..2000 {
            let mut buf: Vec<u8> = match rng.u64_below(3) {
                0 => (0..rng.u64_below(200)).map(|_| rng.next_u64() as u8).collect(),
                1 => valid[..rng.usize_below(valid.len() + 1)].to_vec(),
                _ => valid.to_vec(),
            };
            // Flip up to 4 bytes.
            for _ in 0..rng.u64_below(5) {
                if !buf.is_empty() {
                    let i = rng.usize_below(buf.len());
                    buf[i] = rng.next_u64() as u8;
                }
            }
            let _ = parse_head(&buf); // must not panic
        }
    }

    #[test]
    fn seeded_valid_requests_roundtrip_under_torn_reads() {
        // Generate structurally valid requests with random paths/headers
        // and check the torn-read invariant on each.
        let mut rng = Xoshiro256::from_seed(Seed::DEFAULT.derive("http-torn"));
        for _ in 0..200 {
            let path_len = 1 + rng.usize_below(30);
            let path: String = (0..path_len)
                .map(|_| (b'a' + (rng.u64_below(26) as u8)) as char)
                .collect();
            let n_headers = rng.usize_below(5);
            let mut raw = format!("GET /{path} HTTP/1.1\r\n");
            for h in 0..n_headers {
                raw.push_str(&format!("X-H{h}: value{h}\r\n"));
            }
            raw.push_str("\r\n");
            let raw = raw.as_bytes();
            let (full, consumed) = complete(raw);
            assert_eq!(consumed, raw.len());
            assert_eq!(full.path, format!("/{path}"));
            // Torn reads at a random sample of boundaries.
            for _ in 0..8 {
                let cut = rng.usize_below(consumed);
                assert_eq!(parse_head(&raw[..cut]), HeadParse::Partial);
            }
        }
    }

    #[test]
    fn if_none_match_header_is_captured_verbatim() {
        let (r, _) = complete(
            b"GET /coverage HTTP/1.1\r\nIf-None-Match: \"3-abc123\"\r\n\r\n",
        );
        assert_eq!(r.if_none_match.as_deref(), Some("\"3-abc123\""));
        let (r, _) = complete(b"GET /coverage HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.if_none_match, None);
        // Header name matching is case-insensitive; value kept verbatim.
        let (r, _) = complete(b"GET / HTTP/1.1\r\nif-none-match: W/\"weak\"\r\n\r\n");
        assert_eq!(r.if_none_match.as_deref(), Some("W/\"weak\""));
    }

    #[test]
    fn head_and_owned_parsers_agree() {
        let raw: &[u8] =
            b"GET /entity/9?channel=browse HTTP/1.1\r\nIf-None-Match: \"1-ff\"\r\nConnection: close\r\n\r\n";
        let HeadParse::Complete(head, n) = parse_head(raw) else {
            panic!("head parse failed");
        };
        assert_eq!(n, raw.len());
        assert_eq!(head.path, "/entity/9");
        assert_eq!(head.query_raw, "channel=browse");
        assert!(!head.keep_alive);
        // The owned request carries every field of the head it came from.
        let owned = Request::from_head(&head);
        assert_eq!(owned.method, head.method);
        assert_eq!(owned.path, head.path);
        assert_eq!(owned.query_param("channel"), Some("browse"));
        assert_eq!(owned.if_none_match.as_deref(), head.if_none_match);
        assert_eq!((owned.http11, owned.keep_alive), (head.http11, head.keep_alive));
    }

    #[test]
    fn if_none_match_list_and_wildcard_semantics() {
        assert!(if_none_match_matches("\"1-ab\"", "\"1-ab\""));
        assert!(if_none_match_matches("\"0-x\", \"1-ab\"", "\"1-ab\""));
        assert!(if_none_match_matches("*", "\"1-ab\""));
        assert!(!if_none_match_matches("\"1-ab", "\"1-ab\"")); // malformed → miss
        assert!(!if_none_match_matches("1-ab", "\"1-ab\"")); // unquoted → miss
        assert!(!if_none_match_matches("\"2-cd\"", "\"1-ab\""));
    }

    /// The wire head as text.
    fn head(status: u16, etag: Option<&str>, keep_alive: bool) -> String {
        let mut out = Vec::new();
        write_response_head(&mut out, status, "application/json", 0, etag, keep_alive);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn response_wire_form_is_deterministic() {
        let tag = Some("\"2-0123456789abcdef\"");
        let wire = head(200, tag, true);
        assert_eq!(wire, head(200, tag, true));
        assert!(!wire.contains("Date:"), "{wire}");
        // The header order is fixed: the tag comes after Content-Length.
        assert_eq!(
            wire,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 0\r\nETag: \"2-0123456789abcdef\"\r\n\
             Connection: keep-alive\r\n\r\n"
        );
        let closing = head(404, None, false);
        assert!(!closing.contains("ETag:"), "{closing}");
        assert!(closing.ends_with("Connection: close\r\n\r\n"), "{closing}");
    }

    #[test]
    fn not_modified_wire_form() {
        let wire = head(304, Some("\"2-0123456789abcdef\""), true);
        assert!(wire.starts_with("HTTP/1.1 304 Not Modified\r\n"), "{wire}");
        assert!(wire.contains("Content-Length: 0\r\n"));
        assert!(wire.contains("ETag: \"2-0123456789abcdef\"\r\n"));
        assert!(wire.ends_with("\r\n\r\n"), "304 must carry no body");
    }

    #[test]
    fn response_head_appends_to_the_buffer() {
        let mut buf = b"PREFIX".to_vec();
        write_response_head(&mut buf, 200, "text/csv", 8, None, false);
        assert_eq!(&buf[..6], b"PREFIX");
        assert_eq!(
            &buf[6..],
            b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: 8\r\n\
              Connection: close\r\n\r\n"
        );
    }

    #[test]
    fn error_bodies_carry_the_slug() {
        for e in [
            HttpError::BadRequestLine,
            HttpError::BadHeader,
            HttpError::MethodUnsupported,
            HttpError::VersionUnsupported,
            HttpError::HeadTooLarge,
            HttpError::BodyUnsupported,
        ] {
            let resp = Response::from_http_error(e);
            assert_eq!(resp.status, e.status());
            let body = String::from_utf8(resp.body).unwrap();
            assert!(body.contains(e.slug()), "{body} missing {}", e.slug());
        }
    }
}
