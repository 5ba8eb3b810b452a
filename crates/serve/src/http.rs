//! Minimal HTTP/1.1 framing over stdlib TCP.
//!
//! The daemon speaks just enough HTTP for its JSON API, now with
//! persistent connections: requests are parsed head-first
//! ([`read_head`]) so the connection loop can route before the body
//! arrives, bodies are either `Content-Length` or
//! `Transfer-Encoding: chunked` ([`read_body`] buffers, the serve
//! layer streams via [`ChunkedReader`]), and hard caps on head and
//! body size mean a hostile peer cannot make the server buffer
//! unbounded input. Parsing failures are typed [`HttpError`]s
//! carrying the status code to answer with — a malformed request is
//! an expected input, never a panic.
//!
//! The module also ships the persistent blocking loopback [`Client`],
//! which reuses one socket across many requests and can pipeline; the
//! one-shot `Connection: close` helper is [`crate::client::request`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ppdt_error::PpdtError;

/// Hard cap on the request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default cap on a request body, bytes (overridable per server via
/// `ServerConfig::max_body_bytes`).
pub const DEFAULT_MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Cap on one chunk-size line of a chunked body (hex digits plus
/// extensions the daemon ignores).
const MAX_CHUNK_LINE: usize = 1024;

/// A parsed request: method, path (query string stripped), and the
/// raw body bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Absolute path with any `?query` suffix removed.
    pub path: String,
    /// Raw body (`Content-Length` bytes, or the de-chunked payload).
    pub body: Vec<u8>,
}

/// The parsed request line + headers of one request, before any body
/// byte is consumed.
///
/// Splitting the head from the body lets the connection loop route
/// (and reject) early, and lets `/v1/encode`–`/v1/classify` consume a
/// chunked body incrementally instead of buffering it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestHead {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Absolute path with any `?query` suffix removed.
    pub path: String,
    /// `Content-Length`, when the request carries one.
    pub content_length: Option<usize>,
    /// The body uses `Transfer-Encoding: chunked`.
    pub chunked: bool,
    /// The peer asked for the connection to close after this exchange
    /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
    /// The peer sent `Expect: 100-continue` and is waiting for an
    /// interim go-ahead before transmitting the body.
    pub expect_continue: bool,
}

impl RequestHead {
    /// Whether any body bytes follow this head on the wire.
    pub fn has_body(&self) -> bool {
        self.chunked || self.content_length.unwrap_or(0) > 0
    }
}

/// A transport-level failure answered with a plain HTTP status.
///
/// `code` is a stable snake_case token mirrored into the JSON error
/// body; `detail` carries a typed [`PpdtError`] when the failure came
/// from the domain layer rather than the wire.
#[derive(Clone, Debug)]
pub struct HttpError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable error token (`unknown_key`, ...).
    pub code: &'static str,
    /// Human-readable one-liner.
    pub message: String,
    /// The underlying typed error, when one exists.
    pub detail: Option<PpdtError>,
}

impl HttpError {
    /// A 400 with a stable code and message.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        HttpError { status: 400, code, message: message.into(), detail: None }
    }

    /// 404 for an unknown route or key id.
    pub fn not_found(code: &'static str, message: impl Into<String>) -> Self {
        HttpError { status: 404, code, message: message.into(), detail: None }
    }

    /// 405 for a known path with the wrong method.
    pub fn method_not_allowed(path: &str) -> Self {
        HttpError {
            status: 405,
            code: "method_not_allowed",
            message: format!("method not allowed on {path}"),
            detail: None,
        }
    }

    /// 503 with `Retry-After` semantics (overload / shutdown).
    pub fn overloaded(message: impl Into<String>) -> Self {
        HttpError { status: 503, code: "overloaded", message: message.into(), detail: None }
    }

    /// 429 with `Retry-After` semantics: a per-tenant quota (keys or
    /// in-flight requests) is exhausted. Distinct from 503, which
    /// means the *daemon* is saturated — a 429 singles out one tenant
    /// while the rest of the fleet is served normally.
    pub fn too_many_requests(message: impl Into<String>) -> Self {
        HttpError { status: 429, code: "quota_exceeded", message: message.into(), detail: None }
    }

    /// 413 for a body (declared or streamed) over the configured cap.
    pub fn payload_too_large(message: impl Into<String>) -> Self {
        HttpError { status: 413, code: "payload_too_large", message: message.into(), detail: None }
    }

    /// 408: the peer did not deliver the request within the parse
    /// deadline (`what` names the part that was late).
    pub(crate) fn request_timeout(what: &str) -> Self {
        HttpError {
            status: 408,
            code: "request_timeout",
            message: format!("{what}: connection too slow delivering the request"),
            detail: None,
        }
    }

    /// 431 for a request head over [`MAX_HEAD_BYTES`].
    pub(crate) fn head_too_large() -> Self {
        HttpError {
            status: 431,
            code: "head_too_large",
            message: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            detail: None,
        }
    }
}

impl HttpError {
    /// Renders the structured JSON error body:
    /// `{"error": {"status", "code", "message", "detail"?}}` where
    /// `detail` is the serialized [`PpdtError`] when one exists.
    pub fn to_response(&self) -> Response {
        use serde::{Serialize as _, Value};
        let mut fields = vec![
            ("status".to_string(), Value::UInt(u64::from(self.status))),
            ("code".to_string(), Value::Str(self.code.to_string())),
            ("message".to_string(), Value::Str(self.message.clone())),
        ];
        if let Some(e) = &self.detail {
            fields.push(("detail".to_string(), e.to_value()));
        }
        let envelope = Value::Object(vec![("error".to_string(), Value::Object(fields))]);
        let body = serde_json::to_string(&envelope)
            .unwrap_or_else(|_| format!("{{\"error\":{{\"status\":{}}}}}", self.status));
        let retry_after = if self.status == 503 || self.status == 429 { Some(1) } else { None };
        Response { status: self.status, body, retry_after }
    }
}

impl From<PpdtError> for HttpError {
    /// Maps a domain error onto the workspace category→status table
    /// ([`ppdt_error::ErrorCategory::http_status`]).
    fn from(e: PpdtError) -> Self {
        let cat = e.category();
        HttpError {
            status: cat.http_status(),
            code: cat.name(),
            message: e.to_string(),
            detail: Some(e),
        }
    }
}

/// Bounds the *total* time spent reading one request body off a
/// blocking socket: every read gets `deadline - now` as its timeout,
/// and a read at or past the deadline fails with `TimedOut`. A
/// per-read timeout alone lets a slow-loris peer reset the clock with
/// one byte per interval; this deadline cannot be reset by the peer.
#[derive(Debug)]
pub struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> DeadlineStream<'a> {
    /// Bounds all reads on `stream` by `deadline`.
    pub fn new(stream: &'a TcpStream, deadline: Instant) -> Self {
        DeadlineStream { stream, deadline }
    }
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request parse deadline exceeded",
            ));
        }
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

/// Maps a failed request read to its status: a timed-out read is the
/// peer being too slow (`408`), anything else is a truncated request
/// (`400`).
fn read_failed(code: &'static str, what: &str, e: &std::io::Error) -> HttpError {
    if matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock) {
        HttpError::request_timeout(what)
    } else {
        HttpError::bad_request(code, format!("{what}: {e}"))
    }
}

/// Reads one request head (request line + headers) from `reader`.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly
/// before sending any byte — the normal end of a keep-alive
/// conversation, not an error. EOF *inside* a head is a `400`.
pub fn read_head<R: BufRead>(reader: &mut R) -> Result<Option<RequestHead>, HttpError> {
    let mut head = String::new();
    let mut line = String::new();
    // Request line + headers, terminated by an empty line.
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| read_failed("truncated_head", "head read failed", &e))?;
        if n == 0 {
            if head.is_empty() {
                return Ok(None); // clean close between requests
            }
            return Err(HttpError::bad_request(
                "truncated_head",
                "connection closed before the header terminator",
            ));
        }
        head.push_str(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::head_too_large());
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
    }

    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => {
            return Err(HttpError::bad_request(
                "malformed_request_line",
                format!("cannot parse request line {request_line:?}"),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad_request(
            "unsupported_version",
            format!("unsupported protocol version {version:?}"),
        ));
    }
    // HTTP/1.0 defaults to close, 1.1 to keep-alive.
    let mut close = version == "HTTP/1.0";

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut expect_continue = false;
    for h in lines {
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(HttpError::bad_request(
                "malformed_header",
                format!("header line without a colon: {h:?}"),
            ));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().map_err(|_| {
                HttpError::bad_request(
                    "bad_content_length",
                    format!("Content-Length is not a non-negative integer: {value:?}"),
                )
            })?);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            if !value.eq_ignore_ascii_case("chunked") {
                return Err(HttpError::bad_request(
                    "unsupported_transfer_encoding",
                    format!("only `chunked` transfer encoding is supported, got {value:?}"),
                ));
            }
            chunked = true;
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        }
    }
    if chunked && content_length.is_some() {
        return Err(HttpError::bad_request(
            "ambiguous_body_length",
            "a request cannot send both Content-Length and Transfer-Encoding: chunked",
        ));
    }

    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(Some(RequestHead {
        method: method.to_ascii_uppercase(),
        path,
        content_length,
        chunked,
        close,
        expect_continue,
    }))
}

/// Reads (and fully buffers) the body described by `head`, enforcing
/// `max_body` on `Content-Length` and on the de-chunked total alike.
pub fn read_body<R: BufRead>(
    reader: &mut R,
    head: &RequestHead,
    max_body: usize,
) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    read_body_into(reader, head, max_body, &mut body)?;
    Ok(body)
}

/// [`read_body`] into a caller-owned buffer: `body` is cleared but its
/// capacity is retained, so a buffer recycled across the keep-alive
/// requests of one connection reads every body after the first without
/// reallocating (once it has grown to the connection's working size).
pub fn read_body_into<R: BufRead>(
    reader: &mut R,
    head: &RequestHead,
    max_body: usize,
    body: &mut Vec<u8>,
) -> Result<(), HttpError> {
    body.clear();
    if head.chunked {
        return read_chunked_into(reader, max_body, body);
    }
    let content_length = head.content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::payload_too_large(format!(
            "Content-Length {content_length} exceeds the {max_body}-byte cap"
        )));
    }
    body.resize(content_length, 0);
    reader.read_exact(body).map_err(|e| {
        read_failed(
            "truncated_body",
            &format!("body shorter than Content-Length {content_length}"),
            &e,
        )
    })?;
    Ok(())
}

/// Reads (and fully buffers) a chunked body into `body`, enforcing
/// `max_body` on the de-chunked total.
pub(crate) fn read_chunked_into<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    body: &mut Vec<u8>,
) -> Result<(), HttpError> {
    body.clear();
    let mut chunks = ChunkedReader::new(reader);
    // `max_body + 1` so an over-cap body is detected, not silently
    // truncated.
    let mut bounded = (&mut chunks).take(max_body as u64 + 1);
    bounded.read_to_end(body).map_err(|e| chunk_read_failed("chunked body read failed", &e))?;
    if body.len() > max_body {
        return Err(HttpError::payload_too_large(format!(
            "chunked body exceeds the {max_body}-byte cap"
        )));
    }
    Ok(())
}

/// Maps a failed chunked-body read to its status: timeouts are `408`,
/// bad framing (reported by [`ChunkedReader`] as `InvalidData`) and
/// truncation are `400`.
pub(crate) fn chunk_read_failed(what: &str, e: &std::io::Error) -> HttpError {
    if matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock) {
        HttpError::request_timeout(what)
    } else if e.kind() == std::io::ErrorKind::InvalidData {
        HttpError::bad_request("bad_chunk", format!("{what}: {e}"))
    } else {
        HttpError::bad_request("truncated_body", format!("{what}: {e}"))
    }
}

/// Reads one request from `reader`, enforcing the head cap and
/// `max_body` on the body (`Content-Length` or chunked).
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, HttpError> {
    let head = read_head(reader)?.ok_or_else(|| {
        HttpError::bad_request("truncated_head", "connection closed before the request line")
    })?;
    let body = read_body(reader, &head, max_body)?;
    Ok(Request { method: head.method, path: head.path, body })
}

/// Incremental decoder for a `Transfer-Encoding: chunked` body.
///
/// Implements [`Read`] over the *payload* bytes, consuming the chunk
/// framing (size lines, CRLF separators, trailers) from the inner
/// reader as it goes. Framing
/// violations surface as `InvalidData` I/O errors, which the serve
/// layer maps to `400 bad_chunk`; the wrapped stream's deadline keeps
/// a stalled peer bounded. [`ChunkedReader::chunks_read`] reports how
/// many data chunks were consumed (the `streamed_chunks` metric).
pub struct ChunkedReader<'a, R: BufRead> {
    inner: &'a mut R,
    /// Payload bytes left in the current chunk.
    remaining: usize,
    /// A chunk's trailing CRLF still has to be consumed.
    needs_crlf: bool,
    /// The terminating `0` chunk (and trailers) have been consumed.
    done: bool,
    chunks: u64,
    total: u64,
}

impl<'a, R: BufRead> ChunkedReader<'a, R> {
    /// Starts decoding a chunked body off `inner`.
    pub fn new(inner: &'a mut R) -> Self {
        ChunkedReader { inner, remaining: 0, needs_crlf: false, done: false, chunks: 0, total: 0 }
    }

    /// Data chunks decoded so far (excludes the terminating `0`).
    pub fn chunks_read(&self) -> u64 {
        self.chunks
    }

    /// Payload bytes decoded so far.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    fn bad(msg: String) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
    }

    /// Reads one CRLF-terminated framing line, capped.
    fn read_frame_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        loop {
            let mut byte = [0u8; 1];
            self.inner.read_exact(&mut byte)?;
            if byte[0] == b'\n' {
                break;
            }
            line.push(byte[0] as char);
            if line.len() > MAX_CHUNK_LINE {
                return Err(Self::bad(format!(
                    "chunk framing line exceeds {MAX_CHUNK_LINE} bytes"
                )));
            }
        }
        if line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Advances to the next chunk; sets `done` on the `0` terminator.
    fn next_chunk(&mut self) -> std::io::Result<()> {
        if self.needs_crlf {
            let sep = self.read_frame_line()?;
            if !sep.is_empty() {
                return Err(Self::bad(format!("expected CRLF after chunk data, got {sep:?}")));
            }
            self.needs_crlf = false;
        }
        let line = self.read_frame_line()?;
        let size_token = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_token, 16)
            .map_err(|_| Self::bad(format!("chunk size is not hex: {size_token:?}")))?;
        if size == 0 {
            // Trailers (ignored), terminated by an empty line.
            loop {
                if self.read_frame_line()?.is_empty() {
                    break;
                }
            }
            self.done = true;
        } else {
            self.remaining = size;
            self.needs_crlf = true;
            self.chunks += 1;
        }
        Ok(())
    }
}

impl<R: BufRead> Read for ChunkedReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.remaining == 0 {
            if self.done {
                return Ok(0);
            }
            self.next_chunk()?;
            if self.done {
                return Ok(0);
            }
        }
        let want = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..want])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed inside a chunk",
            ));
        }
        self.remaining -= n;
        self.total += n as u64;
        Ok(n)
    }
}

/// Writes one data chunk of a chunked body (no-op for empty `data`,
/// which would otherwise terminate the stream early).
pub fn write_chunk<W: Write>(w: &mut W, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")
}

/// Terminates a chunked body (`0` chunk, no trailers) and flushes.
pub fn finish_chunked<W: Write>(w: &mut W) -> std::io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// A response ready to be written to the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// UTF-8 body (the API is JSON throughout).
    pub body: String,
    /// Seconds for a `Retry-After` header (503 and 429 answers).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A 200 with a JSON body.
    pub fn ok(body: String) -> Self {
        Response { status: 200, body, retry_after: None }
    }

    /// An arbitrary-status JSON response.
    pub fn with_status(status: u16, body: String) -> Self {
        Response { status, body, retry_after: None }
    }
}

/// Reason phrases for the statuses this API emits.
fn reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        424 => "Failed Dependency",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Serializes `resp` for a persistent connection, head and body in
/// one buffer (one write, one segment): the `connection` header
/// advertises `close` or `keep-alive` per `close`, and the caller
/// decides whether to shut the socket down.
pub(crate) fn response_bytes(resp: &Response, close: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("retry-after: {secs}\r\n"));
    }
    head.push_str("\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(resp.body.as_bytes());
    wire
}

/// Writes the head of a streamed (chunked) response; the body follows
/// via [`write_chunk`]/[`finish_chunked`].
pub fn write_stream_head<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    close: bool,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        if close { "close" } else { "keep-alive" },
    )
}

/// A persistent (keep-alive) loopback HTTP client.
///
/// Holds one TCP connection open across many requests, supports
/// pipelining (send several requests, then read the answers in
/// order), and parses both `Content-Length` and chunked response
/// bodies. This is the client half of the daemon's event-driven
/// connection loop; the benches use it to measure the reuse win.
///
/// ```no_run
/// # fn main() -> Result<(), ppdt_error::PpdtError> {
/// let addr: std::net::SocketAddr = "127.0.0.1:7070".parse().unwrap();
/// let mut client = ppdt_serve::http::Client::connect(addr)?;
/// let (status, body) = client.request("GET", "/healthz", "")?;
/// assert_eq!(status, 200);
/// // Same socket, next request — no new TCP handshake.
/// let (status, _) = client.request("GET", "/v1/version", "")?;
/// assert_eq!(status, 200);
/// # let _ = body; Ok(())
/// # }
/// ```
pub struct Client {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    server_closed: bool,
}

impl Client {
    /// Connects and prepares a persistent connection (30 s socket
    /// timeouts, `TCP_NODELAY` so pipelined requests are not Nagle-
    /// delayed).
    pub fn connect(addr: SocketAddr) -> Result<Client, PpdtError> {
        let err = |what: &str, e: &dyn std::fmt::Display| PpdtError::Io {
            path: Some(format!("http://{addr}")),
            detail: format!("{what}: {e}"),
        };
        let writer = TcpStream::connect(addr).map_err(|e| err("connect", &e))?;
        writer.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| err("timeout", &e))?;
        writer.set_write_timeout(Some(Duration::from_secs(30))).map_err(|e| err("timeout", &e))?;
        let _ = writer.set_nodelay(true);
        let read_half = writer.try_clone().map_err(|e| err("clone", &e))?;
        Ok(Client { addr, writer, reader: BufReader::new(read_half), server_closed: false })
    }

    /// Whether the last response carried `Connection: close` — the
    /// server will not answer further requests on this socket (the
    /// daemon sends it every [`crate::ServerConfig::keep_alive_requests`]
    /// exchanges as connection hygiene). A caller reusing the client
    /// should reconnect instead of writing into a closing socket and
    /// misreading the resulting reset as a transport fault.
    pub fn server_closed(&self) -> bool {
        self.server_closed
    }

    fn err(&self, what: &str, e: &dyn std::fmt::Display) -> PpdtError {
        PpdtError::Io {
            path: Some(format!("http://{}", self.addr)),
            detail: format!("{what}: {e}"),
        }
    }

    /// Sends one request without waiting for the answer (pipelining);
    /// pair with [`Client::read_response`] in send order.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(), PpdtError> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        self.writer.write_all(head.as_bytes()).map_err(|e| self.err("write", &e))?;
        self.writer.write_all(body.as_bytes()).map_err(|e| self.err("write", &e))?;
        self.writer.flush().map_err(|e| self.err("flush", &e))
    }

    /// Starts a chunked-body request: the head goes out with
    /// `Transfer-Encoding: chunked`; stream the body with
    /// [`Client::send_chunk`] and [`Client::finish_chunks`].
    pub fn send_chunked_head(&mut self, method: &str, path: &str) -> Result<(), PpdtError> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ntransfer-encoding: chunked\r\n\r\n",
            self.addr
        );
        self.writer.write_all(head.as_bytes()).map_err(|e| self.err("write", &e))
    }

    /// Sends one body chunk of an in-progress chunked request.
    pub fn send_chunk(&mut self, data: &[u8]) -> Result<(), PpdtError> {
        write_chunk(&mut self.writer, data).map_err(|e| self.err("write chunk", &e))
    }

    /// Terminates the chunked body; the response can now be read.
    pub fn finish_chunks(&mut self) -> Result<(), PpdtError> {
        finish_chunked(&mut self.writer).map_err(|e| self.err("finish chunks", &e))
    }

    /// Reads one response off the connection, buffering the body
    /// (`Content-Length` or chunked alike).
    pub fn read_response(&mut self) -> Result<(u16, String), PpdtError> {
        let mut body = Vec::new();
        let status = self.read_response_into(|data| body.extend_from_slice(data))?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }

    /// Reads one response, handing body bytes to `sink` as they
    /// arrive (so a streamed response never has to fit in memory).
    /// Returns the status code.
    pub fn read_response_into(&mut self, mut sink: impl FnMut(&[u8])) -> Result<u16, PpdtError> {
        let addr = self.addr;
        let err = |what: &str, e: &dyn std::fmt::Display| PpdtError::Io {
            path: Some(format!("http://{addr}")),
            detail: format!("{what}: {e}"),
        };
        // Status line + headers.
        let mut status: Option<u16> = None;
        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        let mut close = false;
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).map_err(|e| err("read head", &e))?;
            if n == 0 {
                return Err(err("read head", &"connection closed before a response"));
            }
            let trimmed = line.trim_end();
            if status.is_none() {
                let code = trimmed
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("parse", &format!("bad status line {trimmed:?}")))?;
                // Skip interim 1xx responses (100 Continue).
                if code < 200 {
                    line.clear();
                    self.reader.read_line(&mut line).map_err(|e| err("read head", &e))?;
                    continue;
                }
                status = Some(code);
                continue;
            }
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let name = name.trim();
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length =
                        Some(value.parse().map_err(|e| err("parse content-length", &e))?);
                } else if name.eq_ignore_ascii_case("transfer-encoding")
                    && value.eq_ignore_ascii_case("chunked")
                {
                    chunked = true;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let status = status.ok_or_else(|| err("parse", &"no status line"))?;
        self.server_closed = close;
        let mut buf = [0u8; 16 * 1024];
        if chunked {
            let mut chunks = ChunkedReader::new(&mut self.reader);
            loop {
                let n = chunks.read(&mut buf).map_err(|e| err("read chunked body", &e))?;
                if n == 0 {
                    break;
                }
                sink(&buf[..n]);
            }
        } else {
            let mut left = content_length.unwrap_or(0);
            while left > 0 {
                let want = left.min(buf.len());
                let n = self.reader.read(&mut buf[..want]).map_err(|e| err("read body", &e))?;
                if n == 0 {
                    return Err(err("read body", &"connection closed inside the body"));
                }
                sink(&buf[..n]);
                left -= n;
            }
        }
        Ok(status)
    }

    /// One request/response exchange on the persistent connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), PpdtError> {
        self.send(method, path, body)?;
        self.read_response()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn read_body_into_reuses_capacity_across_requests() {
        // Two keep-alive bodies through one buffer: after the first
        // request grows the buffer, the second (same size or smaller)
        // must not reallocate — Content-Length and chunked alike.
        let head_cl = |n: usize| RequestHead {
            method: "POST".into(),
            path: "/".into(),
            content_length: Some(n),
            chunked: false,
            close: false,
            expect_continue: false,
        };
        let mut body = Vec::new();
        let mut reader = BufReader::new(&[0x41u8; 512][..]);
        read_body_into(&mut reader, &head_cl(512), 1 << 20, &mut body).unwrap();
        assert_eq!(body.len(), 512);
        let (ptr, cap) = (body.as_ptr(), body.capacity());

        let mut reader = BufReader::new(&[0x42u8; 300][..]);
        read_body_into(&mut reader, &head_cl(300), 1 << 20, &mut body).unwrap();
        assert_eq!(body, vec![0x42u8; 300]);
        assert_eq!((body.as_ptr(), body.capacity()), (ptr, cap), "no realloc on reuse");

        let chunked = b"5\r\nhello\r\n0\r\n\r\n";
        let head_chunked = RequestHead { content_length: None, chunked: true, ..head_cl(0) };
        let mut reader = BufReader::new(&chunked[..]);
        read_body_into(&mut reader, &head_chunked, 1 << 20, &mut body).unwrap();
        assert_eq!(body, b"hello");
        assert_eq!((body.as_ptr(), body.capacity()), (ptr, cap), "no realloc on chunked reuse");
    }

    #[test]
    fn client_surfaces_connection_close_from_the_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            for response in [
                "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok",
                "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
            ] {
                let mut seen = Vec::new();
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = conn.read(&mut buf).unwrap();
                    seen.extend_from_slice(&buf[..n]);
                }
                conn.write_all(response.as_bytes()).unwrap();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        assert!(!client.server_closed(), "fresh connection: nothing announced yet");
        client.request("GET", "/a", "").unwrap();
        assert!(!client.server_closed(), "plain keep-alive response must not flag close");
        client.request("GET", "/b", "").unwrap();
        assert!(client.server_closed(), "Connection: close response must be surfaced");
        server.join().unwrap();
    }

    fn roundtrip(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            // Keep the socket open until the server is done parsing.
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let out = read_request(&mut reader, max_body);
        // Close the server side first or the client's `read_to_end`
        // never sees EOF and the join deadlocks.
        drop(reader);
        client.join().unwrap();
        out
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(b"POST /v1/encode HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello", 1024)
            .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/encode");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn strips_query_and_uppercases_method() {
        let req = roundtrip(b"get /healthz?verbose=1 HTTP/1.1\r\n\r\n", 1024).expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn truncated_body_is_a_400() {
        let err = roundtrip(b"POST /x HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort", 1024)
            .expect_err("must fail");
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "truncated_body");
    }

    #[test]
    fn oversized_content_length_is_a_413() {
        let err = roundtrip(b"POST /x HTTP/1.1\r\ncontent-length: 99999\r\n\r\n", 1024)
            .expect_err("must fail");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn garbage_request_line_is_a_400() {
        let err = roundtrip(b"NOT-HTTP\r\n\r\n", 1024).expect_err("must fail");
        assert_eq!(err.status, 400);
        let err = roundtrip(b"GET / SPDY/9\r\n\r\n", 1024).expect_err("must fail");
        assert_eq!(err.status, 400);
    }

    #[test]
    fn bad_content_length_is_rejected() {
        let err = roundtrip(b"POST /x HTTP/1.1\r\ncontent-length: -4\r\n\r\n", 1024)
            .expect_err("must fail");
        assert_eq!(err.status, 400);
        // Both body framings at once is ambiguous.
        let err = roundtrip(
            b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ntransfer-encoding: chunked\r\n\r\nabcd",
            1024,
        )
        .expect_err("must fail");
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "ambiguous_body_length");
    }

    #[test]
    fn chunked_bodies_are_decoded() {
        let req = roundtrip(
            b"POST /v1/encode HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
            1024,
        )
        .expect("parses");
        assert_eq!(req.body, b"hello world");
        // Malformed framing is a typed 400, not a hang or panic.
        let err = roundtrip(
            b"POST /v1/encode HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nZZ\r\nhello\r\n",
            1024,
        )
        .expect_err("must fail");
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "bad_chunk");
        // The de-chunked total is capped like Content-Length.
        let err = roundtrip(
            b"POST /v1/encode HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n10\r\naaaaaaaaaaaaaaaa\r\n0\r\n\r\n",
            8,
        )
        .expect_err("must fail");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn head_parses_connection_and_expect() {
        let raw = b"POST /v1/encode HTTP/1.1\r\nconnection: close\r\nexpect: 100-continue\r\ncontent-length: 0\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let head = read_head(&mut reader).expect("parses").expect("present");
        assert!(head.close);
        assert!(head.expect_continue);
        assert_eq!(head.content_length, Some(0));
        assert!(!head.has_body());

        // HTTP/1.1 defaults to keep-alive, 1.0 to close.
        let mut reader = BufReader::new(&b"GET / HTTP/1.1\r\n\r\n"[..]);
        assert!(!read_head(&mut reader).unwrap().unwrap().close);
        let mut reader = BufReader::new(&b"GET / HTTP/1.0\r\n\r\n"[..]);
        assert!(read_head(&mut reader).unwrap().unwrap().close);

        // Clean EOF between requests is None, not an error.
        let mut reader = BufReader::new(&b""[..]);
        assert!(read_head(&mut reader).unwrap().is_none());
    }

    #[test]
    fn chunk_writer_and_reader_roundtrip() {
        let mut wire = Vec::new();
        write_chunk(&mut wire, b"hello ").unwrap();
        write_chunk(&mut wire, b"").unwrap(); // skipped, not a terminator
        write_chunk(&mut wire, b"world").unwrap();
        finish_chunked(&mut wire).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        let mut chunks = ChunkedReader::new(&mut reader);
        let mut out = Vec::new();
        chunks.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"hello world");
        assert_eq!(chunks.chunks_read(), 2);
        assert_eq!(chunks.total_bytes(), 11);
    }

    #[test]
    fn error_bodies_are_structured_json() {
        let resp = HttpError::from(PpdtError::key_corrupt("bit rot")).to_response();
        assert_eq!(resp.status, 409);
        let v: serde::Value = serde_json::from_str(&resp.body).expect("valid JSON");
        let err = v.get("error").expect("error envelope");
        assert_eq!(err.get("status").and_then(|s| s.as_f64()), Some(409.0));
        assert_eq!(err.get("code").and_then(|s| s.as_str()), Some("corrupt_key"));
        assert!(err.get("detail").is_some(), "typed detail is serialized");
        // Overload and quota answers advertise Retry-After.
        let resp = HttpError::overloaded("queue full").to_response();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(1));
        let resp = HttpError::too_many_requests("tenant over quota").to_response();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after, Some(1));
    }

    #[test]
    fn ppdt_errors_map_through_the_category_table() {
        let e = PpdtError::DataCorrupt { row: Some(3), column: None, detail: "ragged".into() };
        let h = HttpError::from(e);
        assert_eq!(h.status, 422);
        assert_eq!(h.code, "corrupt_data");
        assert!(h.detail.is_some());
        assert_eq!(HttpError::from(PpdtError::key_corrupt("x")).status, 409);
        assert_eq!(HttpError::from(PpdtError::internal("x")).status, 500);
    }
}
