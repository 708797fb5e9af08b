//! A minimal, defensive HTTP/1.1 codec for the `adsafe serve` daemon.
//!
//! Std-only, like the rest of the workspace: the daemon cannot pull in
//! hyper, so this module implements exactly the slice of RFC 9112 the
//! assessment endpoints need — request-line, header fields (including
//! deprecated `obs-fold` continuations, which some load-balancer health
//! probes still emit), `Content-Length` and `chunked` bodies — and
//! rejects everything outside its limits instead of buffering it:
//! oversized headers or bodies are `413`, malformed syntax is `400`,
//! and no input sequence may panic the parser (property-tested in
//! `tests/serve_integration.rs`).
//!
//! Responses always carry `Content-Length`, and an explicit
//! `Connection` header states the connection's fate: the daemon speaks
//! HTTP/1.1 keep-alive (requests pipeline across one connection, each
//! framed by `Content-Length`), and [`write_response_conn`] lets the
//! server close deliberately — after an error, at the per-connection
//! request cap, or when a client asked for `Connection: close`. The
//! keep-alive *decision* ([`Request::wants_keep_alive`]) follows RFC
//! 9112: 1.1 connections persist unless the client opts out, 1.0
//! connections close unless the client opts in.

use std::io::{BufRead, Write};

/// The protocol version a request arrived under; decides the
/// keep-alive default (persistent for 1.1, close for 1.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`.
    Http10,
    /// `HTTP/1.1`.
    Http11,
}

/// Hard cap on the request line plus all header bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body, however it is framed.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request. Header names are lower-cased at parse time;
/// `obs-fold` continuation lines are joined with a single space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Request target, verbatim (`/assess`, `/metrics?x=1`, …).
    pub path: String,
    /// Protocol version (drives the keep-alive default).
    pub version: Version,
    /// `(lower-cased name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Decoded body (chunked bodies arrive de-chunked).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the (lower-cased) header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client expects this connection to persist after the
    /// response (RFC 9112 §9.3): HTTP/1.1 defaults to keep-alive unless
    /// a `Connection` header lists `close`; HTTP/1.0 defaults to close
    /// unless one lists `keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let connection = self.header("connection").unwrap_or("");
        let lists = |token: &str| {
            connection
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case(token))
        };
        match self.version {
            Version::Http11 => !lists("close"),
            Version::Http10 => lists("keep-alive"),
        }
    }
}

/// Why a request could not be parsed; maps onto a status code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Syntactically invalid request → `400`.
    BadRequest(String),
    /// Head or body over the hard caps → `413`.
    TooLarge(String),
}

impl ParseError {
    /// The HTTP status this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequest(_) => 400,
            ParseError::TooLarge(_) => 413,
        }
    }

    /// Human-readable detail for the response body.
    pub fn detail(&self) -> &str {
        match self {
            ParseError::BadRequest(d) | ParseError::TooLarge(d) => d,
        }
    }
}

/// Why reading a request off a connection failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a request line.
    Closed,
    /// The socket failed mid-read.
    Io(std::io::Error),
    /// The bytes did not form an acceptable request.
    Parse(ParseError),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one line, tolerating bare-`LF` line endings, enforcing `cap`
/// on the line length. Returns the line without its terminator.
fn read_line(r: &mut impl BufRead, cap: usize, budget: &mut usize) -> Result<String, ReadError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(ReadError::Closed);
                }
                return Err(ReadError::Parse(ParseError::BadRequest(
                    "connection closed mid-line".into(),
                )));
            }
            Ok(_) => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
        *budget = budget.saturating_sub(1);
        if *budget == 0 {
            return Err(ReadError::Parse(ParseError::TooLarge(
                "request head exceeds limit".into(),
            )));
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| {
                ReadError::Parse(ParseError::BadRequest("non-UTF-8 in request head".into()))
            });
        }
        if line.len() >= cap {
            return Err(ReadError::Parse(ParseError::TooLarge(
                "line exceeds limit".into(),
            )));
        }
        line.push(byte[0]);
    }
}

/// Reads and parses one request from `r`. `Err(Parse(_))` means the
/// caller should answer with the error's status and close; `Closed`
/// means the peer went away cleanly before talking.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let request_line = read_line(r, MAX_HEAD_BYTES, &mut head_budget)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(ReadError::Parse(ParseError::BadRequest(format!(
                "malformed request line `{request_line}`"
            ))))
        }
    };
    let version = match version {
        "HTTP/1.1" => Version::Http11,
        "HTTP/1.0" => Version::Http10,
        other => {
            return Err(ReadError::Parse(ParseError::BadRequest(format!(
                "unsupported protocol `{other}`"
            ))))
        }
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(r, MAX_HEAD_BYTES, &mut head_budget)?;
        if line.is_empty() {
            break;
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            // obs-fold: continuation of the previous field value.
            match headers.last_mut() {
                Some((_, v)) => {
                    v.push(' ');
                    v.push_str(line.trim());
                }
                None => {
                    return Err(ReadError::Parse(ParseError::BadRequest(
                        "header continuation before any header".into(),
                    )))
                }
            }
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Parse(ParseError::BadRequest(format!(
                "malformed header `{line}`"
            ))));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ReadError::Parse(ParseError::BadRequest(format!(
                "malformed header name `{name}`"
            ))));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let body = read_body(r, &headers)?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        version,
        headers,
        body,
    })
}

fn read_body(r: &mut impl BufRead, headers: &[(String, String)]) -> Result<Vec<u8>, ReadError> {
    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let chunked = find("transfer-encoding").is_some_and(|v| {
        v.to_ascii_lowercase()
            .split(',')
            .any(|t| t.trim() == "chunked")
    });
    if chunked {
        // Transfer-Encoding wins over Content-Length (RFC 9112 §6.3).
        return read_chunked_body(r);
    }
    match find("content-length") {
        None => Ok(Vec::new()),
        Some(v) => {
            let n: usize = v.trim().parse().map_err(|_| {
                ReadError::Parse(ParseError::BadRequest(format!("bad Content-Length `{v}`")))
            })?;
            if n > MAX_BODY_BYTES {
                return Err(ReadError::Parse(ParseError::TooLarge(format!(
                    "body of {n} bytes exceeds limit of {MAX_BODY_BYTES}"
                ))));
            }
            let mut body = vec![0u8; n];
            r.read_exact(&mut body).map_err(|_| {
                ReadError::Parse(ParseError::BadRequest(
                    "body shorter than Content-Length".into(),
                ))
            })?;
            Ok(body)
        }
    }
}

fn read_chunked_body(r: &mut impl BufRead) -> Result<Vec<u8>, ReadError> {
    let mut body = Vec::new();
    loop {
        let mut line_budget = 256;
        let size_line = read_line(r, 256, &mut line_budget)?;
        // Chunk extensions (`;name=value`) are tolerated and ignored.
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16).map_err(|_| {
            ReadError::Parse(ParseError::BadRequest(format!(
                "bad chunk size `{size_line}`"
            )))
        })?;
        if size == 0 {
            // Trailer section: discard fields until the blank line.
            loop {
                let mut trailer_budget = MAX_HEAD_BYTES;
                if read_line(r, MAX_HEAD_BYTES, &mut trailer_budget)?.is_empty() {
                    return Ok(body);
                }
            }
        }
        if body.len() + size > MAX_BODY_BYTES {
            return Err(ReadError::Parse(ParseError::TooLarge(format!(
                "chunked body exceeds limit of {MAX_BODY_BYTES}"
            ))));
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..]).map_err(|_| {
            ReadError::Parse(ParseError::BadRequest("chunk shorter than its size".into()))
        })?;
        let mut crlf_budget = 8;
        let sep = read_line(r, 8, &mut crlf_budget)?;
        if !sep.is_empty() {
            return Err(ReadError::Parse(ParseError::BadRequest(
                "missing CRLF after chunk data".into(),
            )));
        }
    }
}

/// An outgoing response (and, for the test client, a parsed incoming
/// one — the daemon and its tests share one codec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers; `Content-Length` and `Connection` are implied.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a text body and `text/plain` content type.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// A response with a JSON body.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header, builder-style.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First value of the (case-insensitively matched) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy — response bodies are our own text).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialises `resp` onto `w` with `Content-Length` and
/// `Connection: close` added — the one-shot form for paths that always
/// end the connection (parse failures, shutdown notices).
pub fn write_response(w: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    write_response_conn(w, resp, false)
}

/// Serialises `resp` onto `w` with `Content-Length` added and the
/// `Connection` header reflecting `keep_alive` — the server's actual
/// persistence decision (client preference ∧ request cap ∧ no fatal
/// error), not just the client's request.
pub fn write_response_conn(
    w: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n", resp.body.len()));
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    w.write_all(head.as_bytes())?;
    w.write_all(&resp.body)?;
    w.flush()
}

/// Encodes a request for the wire — the daemon's tests and bench are
/// its own HTTP clients.
pub fn encode_request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    for (name, value) in headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if !body.is_empty() || method == "POST" {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Parses a response off `r` (client side of the shared codec).
pub fn read_response(r: &mut impl BufRead) -> Result<Response, ReadError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let status_line = read_line(r, MAX_HEAD_BYTES, &mut head_budget)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            ReadError::Parse(ParseError::BadRequest(format!(
                "malformed status line `{status_line}`"
            )))
        })?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, MAX_HEAD_BYTES, &mut head_budget)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_a_simple_post() {
        let req =
            parse(b"POST /assess HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/assess");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn folds_obs_fold_continuations() {
        let req = parse(b"GET /metrics HTTP/1.1\r\nX-Long: first\r\n  second\r\n\tthird\r\n\r\n")
            .unwrap();
        assert_eq!(req.header("x-long"), Some("first second third"));
    }

    #[test]
    fn decodes_chunked_bodies_with_extensions_and_trailers() {
        let req = parse(
            b"POST /assess HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\nX-Trailer: v\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"Wikipedia");
    }

    #[test]
    fn rejects_oversized_declared_bodies() {
        let head = format!(
            "POST /assess HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse(head.as_bytes()) {
            Err(ReadError::Parse(e)) => assert_eq!(e.status(), 413),
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x HTTP/9.9\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b" /x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            match parse(raw) {
                Err(ReadError::Parse(e)) => assert_eq!(e.status(), 400, "{raw:?}"),
                other => panic!("expected 400 for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn clean_close_before_any_bytes_is_not_an_error_status() {
        assert!(matches!(parse(b""), Err(ReadError::Closed)));
    }

    #[test]
    fn response_round_trips_through_the_client_parser() {
        let resp = Response::text(200, "hello").with_header("X-Adsafe-Exit-Code", "0");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let parsed = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.header("x-adsafe-exit-code"), Some("0"));
        assert_eq!(parsed.body_text(), "hello");
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_overrides() {
        let cases: &[(&[u8], bool)] = &[
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (
                b"GET / HTTP/1.1\r\nConnection: keep-alive, Upgrade\r\n\r\n",
                true,
            ),
            (b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", true),
        ];
        for (raw, expect) in cases {
            let req = parse(raw).unwrap();
            assert_eq!(
                req.wants_keep_alive(),
                *expect,
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn write_response_conn_states_the_connection_fate() {
        let resp = Response::text(200, "ok");
        let mut keep = Vec::new();
        write_response_conn(&mut keep, &resp, true).unwrap();
        let keep = String::from_utf8(keep).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        let mut close = Vec::new();
        write_response_conn(&mut close, &resp, false).unwrap();
        assert!(String::from_utf8(close)
            .unwrap()
            .contains("Connection: close\r\n"));
    }

    #[test]
    fn pipelined_requests_parse_back_to_back_from_one_reader() {
        let wire = b"POST /assess HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                     GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(&wire[..]);
        let first = read_request(&mut r).unwrap();
        assert_eq!(first.body, b"hi");
        assert!(first.wants_keep_alive());
        let second = read_request(&mut r).unwrap();
        assert_eq!(second.path, "/metrics");
        assert!(!second.wants_keep_alive());
        assert!(matches!(read_request(&mut r), Err(ReadError::Closed)));
    }

    #[test]
    fn encode_request_round_trips() {
        let wire = encode_request("POST", "/assess", &[("X-K", "v")], b"{\"dir\":\".\"}");
        let req = parse(&wire).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/assess");
        assert_eq!(req.header("x-k"), Some("v"));
        assert_eq!(req.body, b"{\"dir\":\".\"}");
    }
}
