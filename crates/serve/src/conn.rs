//! One accepted connection and the bytes buffered on it.
//!
//! A [`Conn`] belongs to the readiness loop between requests and to
//! exactly one worker while a request of it is being handled, so
//! answers leave in request order by construction. The loop reads
//! with the socket nonblocking, only after readiness, and frames
//! complete requests out of the connection's inbox ([`Conn::frame`]):
//! a `Content-Length` request reaches a worker whole, so no worker
//! ever waits on a peer's bytes for one. A chunked body is the one
//! exception: the worker reads it itself ([`Conn::read_through`]),
//! blocking under a deadline.
//!
//! The connection decides how the loop treats it ([`Conn::ready`],
//! [`Conn::needs_poll`], [`Conn::due`]):
//!
//! * The loop reads a connection only while its inbox holds no whole
//!   request, so a client pipelining faster than it is answered is
//!   held back by TCP flow control instead of growing the inbox: it
//!   stays within one request plus one read.
//! * A `Content-Length` body longer than one read is read only once
//!   the loop admits it to its buffer budget ([`Conn::admit`]); until
//!   then TCP flow control holds the sender back, so the bodies the
//!   loop holds stay within that budget however many clients send
//!   large bodies slowly.
//! * A connection refused while its body is still arriving closes
//!   lingeringly ([`Conn::linger`]): the loop reads and discards what
//!   the peer still sends, so a client still uploading reads the
//!   answer instead of a reset.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use crate::http::{
    read_head, response_bytes, DeadlineStream, HttpError, RequestHead, Response, MAX_HEAD_BYTES,
};
use crate::server::ServerConfig;

/// The most the loop reads from one socket per readiness.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Socket write timeout: how long a worker waits on a peer that
/// stopped reading its answer.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Hard ceiling on one connection's total lifetime, busy or not.
pub(crate) const CONN_LIFETIME: Duration = Duration::from_secs(300);

/// Buffers that grew beyond this are dropped once empty instead of
/// kept, so one oversized request cannot pin memory for a
/// connection's whole lifetime.
const MAX_RETAINED_BYTES: usize = 4 << 20;

/// The interim answer to `Expect: 100-continue`.
const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// The buffer the worker reads a chunked body through: the bytes the
/// loop already buffered, then the socket under a deadline.
pub(crate) type BodyReader<'a> = BufReader<std::io::Chain<&'a [u8], DeadlineStream<'a>>>;

/// What the bytes buffered on a connection amount to.
pub(crate) enum Frame {
    /// Not a whole request yet: wait for more bytes.
    Partial,
    /// The peer closed cleanly between requests, or cannot be written
    /// to: drop the connection without an answer.
    Closed,
    /// One request: its head, its body when framed by
    /// `Content-Length` (a chunked body stays on the wire for a worker
    /// to read), and whether its bytes had arrived before the previous
    /// request on the connection was answered.
    Request { head: RequestHead, body: Vec<u8>, pipelined: bool },
    /// The bytes cannot be a valid request: answer and close.
    Bad(HttpError),
}

/// One accepted connection: its socket, the bytes read but not yet
/// consumed, and the bookkeeping the keep-alive policy needs.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes read and not yet framed (the next request, or its start).
    inbox: Vec<u8>,
    /// The parsed head of the request being received, and its length
    /// in `inbox`.
    head: Option<(RequestHead, usize)>,
    /// The body buffer, recycled across the keep-alive requests of
    /// this connection.
    body: Vec<u8>,
    /// Accept time, for the connection-lifetime ceiling.
    created: Instant,
    /// When the connection last went idle: its last answer was
    /// written, a worker handed it back, or it was accepted.
    idle_since: Instant,
    /// Parse deadline of the request in `inbox`, or the end of a
    /// lingering close; armed by the loop.
    deadline: Option<Instant>,
    /// Requests framed so far.
    requests: u64,
    /// `inbox` may hold a whole request: frame it before polling.
    backlog: bool,
    /// The peer has closed its write side.
    eof: bool,
    /// The next request's bytes were already buffered when the last
    /// one was framed.
    prefetched: bool,
    /// The socket is in blocking mode (a worker is reading a chunked
    /// body, or wrote more than the socket buffer took at once).
    blocking: bool,
    /// The body being received holds its share of the loop's buffer
    /// budget and may be read.
    admitted: bool,
    /// Closing after a refusal: the bytes the loop may still discard.
    linger: Option<usize>,
}

impl Conn {
    /// Readies an accepted socket for the loop: nonblocking for the
    /// loop's reads and writes, `TCP_NODELAY` (an answer is one small
    /// write; Nagle plus delayed ACK would hold it), and a write
    /// timeout for a worker writing to a reader that stalls.
    pub fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let now = Instant::now();
        Ok(Conn {
            stream,
            inbox: Vec::new(),
            head: None,
            body: Vec::new(),
            created: now,
            idle_since: now,
            deadline: None,
            requests: 0,
            backlog: false,
            eof: false,
            prefetched: false,
            blocking: false,
            admitted: false,
            linger: None,
        })
    }

    /// The underlying socket (for readiness polling).
    pub fn socket(&self) -> &TcpStream {
        &self.stream
    }

    /// Requests framed so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Whether bytes of a request are buffered.
    pub fn mid_request(&self) -> bool {
        !self.inbox.is_empty()
    }

    /// Whether the loop can act on the connection without polling it:
    /// a whole request may be buffered, or the peer has closed.
    pub fn ready(&self) -> bool {
        self.backlog || self.eof
    }

    /// Whether the loop polls the socket: the connection is not
    /// [`Conn::ready`], and no body of it waits for the buffer budget.
    pub fn needs_poll(&self) -> bool {
        !self.ready() && (self.admitted || self.claim() == 0)
    }

    /// The connection is back in the loop from a worker, between
    /// requests: the idle clock restarts, and a request the worker
    /// left buffered is framed before the socket is polled.
    pub fn handed_back(&mut self) {
        self.backlog = self.mid_request();
        self.idle_since = Instant::now();
    }

    /// The declared length of a `Content-Length` body still arriving,
    /// when it is longer than one read: the share of the loop's buffer
    /// budget the connection needs before the loop reads on.
    fn claim(&self) -> usize {
        let len = self.head.as_ref().and_then(|(head, _)| head.content_length);
        len.filter(|&len| len > READ_CHUNK).unwrap_or(0)
    }

    /// The share of the loop's buffer budget the connection holds.
    pub fn held(&self) -> usize {
        if self.admitted {
            self.claim()
        } else {
            0
        }
    }

    /// Admits a body waiting for the buffer budget if it fits in
    /// `room`. Returns the bytes it takes from the budget.
    pub fn admit(&mut self, room: usize) -> usize {
        let claim = self.claim();
        if self.admitted || claim == 0 || claim > room {
            return 0;
        }
        self.admitted = true;
        claim
    }

    /// When the loop must next act on the connection unprompted: the
    /// parse deadline of a request being received (armed at its first
    /// byte) or the end of a lingering close; otherwise the end of the
    /// idle timeout or of the connection's lifetime, whichever is
    /// first.
    pub fn due(&mut self, now: Instant, cfg: &ServerConfig) -> Instant {
        if self.mid_request() || self.linger.is_some() {
            *self.deadline.get_or_insert(now + cfg.parse_deadline)
        } else {
            (self.idle_since + cfg.idle_timeout).min(self.created + CONN_LIFETIME)
        }
    }

    /// Whether the keep-alive policy closes the connection after the
    /// request just framed: it has served its quota of requests, or
    /// outlived its lifetime.
    pub fn spent(&self, cfg: &ServerConfig) -> bool {
        self.requests >= cfg.keep_alive_requests || self.created.elapsed() >= CONN_LIFETIME
    }

    /// Reads what the socket has ready into the inbox (one read, up to
    /// `scratch.len()` bytes), without waiting. Returns `false` when
    /// the connection is broken.
    pub fn fill(&mut self, scratch: &mut [u8]) -> bool {
        match (&self.stream).read(scratch) {
            Ok(0) => self.eof = true,
            Ok(n) => self.inbox.extend_from_slice(&scratch[..n]),
            Err(e) if would_block(&e) => {}
            Err(_) => return false,
        }
        true
    }

    /// Frames the next request out of the inbox. A `Content-Length`
    /// request is framed only once its whole body is buffered; a
    /// chunked one as soon as its head is. `Expect: 100-continue` is
    /// answered when the head is first parsed.
    pub fn frame(&mut self, max_body: usize) -> Frame {
        self.backlog = false;
        if self.head.is_none() {
            let Some(end) = head_end(&self.inbox) else {
                return if self.inbox.len() > MAX_HEAD_BYTES {
                    Frame::Bad(HttpError::head_too_large())
                } else if !self.eof {
                    Frame::Partial
                } else if self.inbox.is_empty() {
                    Frame::Closed
                } else {
                    Frame::Bad(HttpError::bad_request(
                        "truncated_head",
                        "connection closed before the header terminator",
                    ))
                };
            };
            let head = match read_head(&mut &self.inbox[..end]) {
                Ok(Some(head)) => head,
                Ok(None) => return Frame::Closed,
                Err(e) => return Frame::Bad(e),
            };
            let len = head.content_length.unwrap_or(0);
            if !head.chunked && len > max_body {
                return Frame::Bad(HttpError::payload_too_large(format!(
                    "Content-Length {len} exceeds the {max_body}-byte cap"
                )));
            }
            if head.expect_continue && head.has_body() && self.write_all(CONTINUE, false).is_err() {
                return Frame::Closed;
            }
            self.head = Some((head, end));
        }
        let Some((head, end)) = self.head.take() else { return Frame::Partial };
        let len = if head.chunked { 0 } else { head.content_length.unwrap_or(0) };
        if self.inbox.len() < end + len {
            self.head = Some((head, end));
            return if self.eof {
                Frame::Bad(HttpError::bad_request(
                    "truncated_body",
                    format!("body shorter than Content-Length {len}: connection closed"),
                ))
            } else {
                Frame::Partial
            };
        }
        let mut body = Vec::new();
        if len > 0 {
            body = std::mem::take(&mut self.body);
            if body.capacity() > 0 {
                ppdt_obs::add(ppdt_obs::Counter::PoolReuseHits, 1);
            }
            body.extend_from_slice(&self.inbox[end..end + len]);
        }
        let pipelined = self.prefetched;
        self.inbox.drain(..end + len);
        self.prefetched = !self.inbox.is_empty();
        self.backlog = self.prefetched;
        self.admitted = false;
        self.deadline = None;
        self.requests += 1;
        if self.inbox.is_empty() && self.inbox.capacity() > MAX_RETAINED_BYTES {
            self.inbox = Vec::new();
        }
        Frame::Request { head, body, pipelined }
    }

    /// Takes a request body back for the connection's next request.
    pub fn recycle(&mut self, mut body: Vec<u8>) {
        if body.capacity() <= MAX_RETAINED_BYTES {
            body.clear();
            self.body = body;
        }
    }

    /// Writes one answer whole. A worker (`may_block`) waits for a
    /// slow reader under the socket's write timeout; the loop must
    /// not wait on a peer, so there an answer the socket cannot take
    /// at once fails and the caller drops the connection.
    pub fn send(&mut self, resp: &Response, close: bool, may_block: bool) -> std::io::Result<()> {
        self.write_all(&response_bytes(resp, close), may_block)?;
        self.idle_since = Instant::now();
        Ok(())
    }

    fn write_all(&mut self, mut bytes: &[u8], may_block: bool) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match (&self.stream).write(bytes) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Nonblocking and full: a worker switches to blocking
                // writes. A blocking write that would still block has
                // hit the socket's write timeout, and fails.
                Err(e) if may_block && !self.blocking && e.kind() == ErrorKind::WouldBlock => {
                    self.block()?
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Puts the socket in blocking mode for a worker.
    fn block(&mut self) -> std::io::Result<()> {
        if !self.blocking {
            self.stream.set_nonblocking(false)?;
            self.blocking = true;
        }
        Ok(())
    }

    /// Puts the socket back in nonblocking mode for the loop.
    pub fn unblock(&mut self) -> std::io::Result<()> {
        if self.blocking {
            self.stream.set_nonblocking(true)?;
            self.blocking = false;
        }
        Ok(())
    }

    /// Lets a worker read the rest of a request (a chunked body)
    /// through `read`, blocking under `deadline`: first the bytes the
    /// loop already buffered, then the socket. `read` also gets the
    /// socket to answer on. Bytes read past the body stay in the inbox
    /// for the next request.
    pub fn read_through<T>(
        &mut self,
        deadline: Instant,
        read: impl FnOnce(&mut BodyReader<'_>, &TcpStream) -> T,
    ) -> std::io::Result<T> {
        self.block()?;
        let mut reader = BufReader::new(
            self.inbox.as_slice().chain(DeadlineStream::new(&self.stream, deadline)),
        );
        let out = read(&mut reader, &self.stream);
        // What the reader holds came off the chain before the part of
        // the inbox it has not reached yet.
        let mut rest = reader.buffer().to_vec();
        rest.extend_from_slice(reader.get_ref().get_ref().0);
        drop(reader);
        self.inbox = rest;
        self.prefetched = false;
        Ok(out)
    }

    /// Starts a lingering close, after an answer that refused a
    /// request whose body is still arriving: the write side shuts, so
    /// the client sees the answer end, and the loop then reads and
    /// discards up to `max` more bytes ([`Conn::discard`]) until the
    /// peer closes or the parse deadline passes. Closing on unread
    /// bytes instead would reset the connection, and a client still
    /// writing its body would fail before it read the answer. Returns
    /// `false` when the socket is already gone.
    pub fn linger(&mut self, max: usize) -> bool {
        self.inbox = Vec::new();
        self.head = None;
        self.admitted = false;
        self.deadline = None;
        self.linger = Some(max);
        self.stream.shutdown(Shutdown::Write).is_ok()
    }

    /// Whether the connection is in a lingering close.
    pub fn lingering(&self) -> bool {
        self.linger.is_some()
    }

    /// Reads and discards what the peer of a lingering close still
    /// sends (one read, without waiting). Returns `false` once the
    /// peer has closed or sent more than the linger allows: drop the
    /// connection.
    pub fn discard(&mut self, scratch: &mut [u8]) -> bool {
        let Some(left) = &mut self.linger else { return false };
        match (&self.stream).read(scratch) {
            Ok(n) if n > 0 && n <= *left => {
                *left -= n;
                true
            }
            Err(e) => would_block(&e),
            _ => false,
        }
    }
}

/// Whether a socket call failed only because it would have waited.
pub(crate) fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

/// The length of the request head at the front of `buf` (through its
/// empty line), or `None` while it is incomplete. Lines end at `\n`,
/// as [`read_head`] reads them.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut start = 0;
    for (i, &b) in buf.iter().enumerate() {
        if b == b'\n' {
            if matches!(&buf[start..i], b"" | b"\r") {
                return Some(i + 1);
            }
            start = i + 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, Conn::new(server).unwrap())
    }

    /// Feeds `bytes` into the connection's inbox as if the loop had
    /// read them.
    fn feed(conn: &mut Conn, bytes: &[u8]) {
        conn.inbox.extend_from_slice(bytes);
    }

    #[test]
    fn frames_whole_requests_only_and_keeps_pipelined_bytes() {
        let (_client, mut conn) = pair();
        feed(&mut conn, b"POST /v1/encode HTTP/1.1\r\ncontent-length: 5\r\n\r\nhel");
        assert!(matches!(conn.frame(1024), Frame::Partial), "body incomplete");
        feed(&mut conn, b"loGET /healthz HTTP/1.1\r\n\r\n");
        match conn.frame(1024) {
            Frame::Request { head, body, pipelined } => {
                assert_eq!(head.path, "/v1/encode");
                assert_eq!(body, b"hello");
                assert!(!pipelined, "first request on the connection");
            }
            _ => panic!("a whole request is framed"),
        }
        assert!(conn.backlog, "the second request is already buffered");
        match conn.frame(1024) {
            Frame::Request { head, body, pipelined } => {
                assert_eq!(head.path, "/healthz");
                assert!(body.is_empty());
                assert!(pipelined, "its bytes arrived before the first was answered");
            }
            _ => panic!("the pipelined request is framed"),
        }
        assert_eq!(conn.requests, 2);
        assert!(!conn.mid_request());
    }

    #[test]
    fn recycled_body_buffer_is_reused_without_reallocating() {
        let (_client, mut conn) = pair();
        feed(&mut conn, b"POST /x HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc");
        let Frame::Request { body, .. } = conn.frame(1024) else { panic!("framed") };
        let (ptr, cap) = (body.as_ptr(), body.capacity());
        conn.recycle(body);
        feed(&mut conn, b"POST /x HTTP/1.1\r\ncontent-length: 2\r\n\r\nde");
        let Frame::Request { body, .. } = conn.frame(1024) else { panic!("framed") };
        assert_eq!(body, b"de");
        assert_eq!((body.as_ptr(), body.capacity()), (ptr, cap), "the same allocation comes back");
        conn.recycle(Vec::with_capacity(MAX_RETAINED_BYTES + 1));
        assert_eq!(conn.body.capacity(), 0, "an oversized buffer is not retained");
    }

    #[test]
    fn wire_errors_and_eof_are_typed() {
        let (_client, mut conn) = pair();
        feed(&mut conn, b"POST /x HTTP/1.1\r\ncontent-length: 99\r\n\r\n");
        let Frame::Bad(e) = conn.frame(10) else { panic!("over the cap") };
        assert_eq!(e.status, 413);

        let (_client, mut conn) = pair();
        feed(&mut conn, &[b'x'; MAX_HEAD_BYTES + 1]);
        let Frame::Bad(e) = conn.frame(10) else { panic!("head too large") };
        assert_eq!(e.status, 431);

        let (_client, mut conn) = pair();
        feed(&mut conn, b"POST /x HTTP/1.1\r\ncontent-length: 9\r\n\r\nab");
        conn.eof = true;
        let Frame::Bad(e) = conn.frame(1024) else { panic!("truncated") };
        assert_eq!((e.status, e.code), (400, "truncated_body"));

        let (_client, mut conn) = pair();
        conn.eof = true;
        assert!(matches!(conn.frame(1024), Frame::Closed), "clean close between requests");
    }

    #[test]
    fn a_long_body_is_read_only_once_admitted_to_the_budget() {
        let (_client, mut conn) = pair();
        let len = READ_CHUNK + 1;
        feed(&mut conn, format!("POST /x HTTP/1.1\r\ncontent-length: {len}\r\n\r\n").as_bytes());
        assert!(matches!(conn.frame(1 << 20), Frame::Partial));
        assert!(!conn.needs_poll(), "held back until admitted");
        assert_eq!(conn.admit(len - 1), 0, "does not fit");
        assert_eq!((conn.admit(len), conn.held()), (len, len));
        assert!(conn.needs_poll());
        feed(&mut conn, &vec![b'x'; len]);
        assert!(matches!(conn.frame(1 << 20), Frame::Request { .. }));
        assert_eq!(conn.held(), 0, "framing releases the budget");

        // A body that fits in one read needs no admission.
        feed(&mut conn, b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\n");
        assert!(matches!(conn.frame(1 << 20), Frame::Partial));
        assert!(conn.needs_poll());
    }

    #[test]
    fn a_lingering_close_shuts_the_answer_and_discards_a_bounded_rest() {
        let (mut client, mut conn) = pair();
        feed(&mut conn, b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\n");
        assert!(conn.linger(8));
        assert!(!conn.mid_request() && conn.needs_poll());
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0, "the write side is shut");

        let mut scratch = [0u8; 64];
        let deadline = Instant::now() + Duration::from_secs(5);
        client.write_all(b"12345").unwrap();
        while conn.linger == Some(8) {
            assert!(conn.discard(&mut scratch), "within the linger");
            assert!(Instant::now() < deadline, "the bytes arrive");
        }
        assert_eq!(conn.linger, Some(3));
        client.write_all(b"6789").unwrap();
        while conn.discard(&mut scratch) {
            assert!(Instant::now() < deadline, "past the linger the connection drops");
        }
    }

    #[test]
    fn continue_is_sent_when_the_head_is_framed() {
        let (mut client, mut conn) = pair();
        feed(&mut conn, b"POST /x HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 2\r\n\r\n");
        assert!(matches!(conn.frame(1024), Frame::Partial), "body still to come");
        let mut interim = [0u8; CONTINUE.len()];
        client.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        client.read_exact(&mut interim).unwrap();
        assert_eq!(&interim[..], CONTINUE);
        feed(&mut conn, b"ok");
        assert!(matches!(conn.frame(1024), Frame::Request { .. }));
    }
}
