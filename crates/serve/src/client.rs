//! Deadline-aware loopback HTTP client with `Retry-After`-honoring
//! retry — the shared client for cluster peers, integration tests,
//! and bench binaries, and the one-shot [`request`] built on it.
//!
//! This module is the one implementation of a one-shot exchange:
//!
//! * a fresh `Connection: close` socket per attempt — an overload 503
//!   always closes the connection, so there is nothing to reuse on
//!   the retry path;
//! * hard connect and read/write deadlines, so a dead or wedged peer
//!   costs bounded wall-clock time instead of a hung thread;
//! * a bounded retry loop (budgeted by [`ClientConfig::attempts`])
//!   that sleeps the server's `Retry-After` on a 503 and backs off
//!   exponentially on connection errors.
//!
//! The cluster anti-entropy loop ([`crate::peer`]) runs on this
//! client, and `scripts/cluster_smoke.py` mirrors the same policy in
//! Python — a client following it observes zero lost requests across
//! a node SIGKILL, which is exactly what the smoke test proves.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ppdt_error::PpdtError;

/// Ceiling on any single retry sleep (backoff or `Retry-After`): the
/// client is for loopback/LAN peers where multi-second waits only
/// hide problems.
const MAX_SLEEP: Duration = Duration::from_secs(2);

/// Deadlines and retry budget for a [`RetryingClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect deadline per attempt.
    pub connect_timeout: Duration,
    /// Socket read/write deadline per attempt.
    pub io_timeout: Duration,
    /// Exchanges per request, the first included; `0` counts as 1.
    pub attempts: usize,
    /// Base sleep after a connection error; doubles per failed
    /// attempt (capped). A 503 sleeps its `Retry-After` instead.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            attempts: 4,
            backoff: Duration::from_millis(50),
        }
    }
}

/// One parsed HTTP exchange: the status, the server's `Retry-After`
/// (seconds) when it sent one, and the full body.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// HTTP status code.
    pub status: u16,
    /// Parsed `Retry-After` header, if present.
    pub retry_after: Option<u64>,
    /// Response body.
    pub body: String,
}

/// A retrying one-shot client bound to a single server address.
#[derive(Clone, Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    cfg: ClientConfig,
}

impl RetryingClient {
    /// A client for `addr` with [`ClientConfig::default`] deadlines.
    pub fn new(addr: SocketAddr) -> RetryingClient {
        RetryingClient { addr, cfg: ClientConfig::default() }
    }

    /// A client with explicit deadlines and retry budget.
    pub fn with_config(addr: SocketAddr, cfg: ClientConfig) -> RetryingClient {
        RetryingClient { addr, cfg }
    }

    /// The server this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn err(&self, what: &str, e: &dyn std::fmt::Display) -> PpdtError {
        PpdtError::Io {
            path: Some(format!("http://{}", self.addr)),
            detail: format!("{what}: {e}"),
        }
    }

    /// One exchange on a fresh `Connection: close` socket, no retry.
    /// Connection and read errors surface as [`PpdtError::Io`]; any
    /// parsed HTTP response — including errors — is `Ok`.
    pub fn exchange_once(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Exchange, PpdtError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)
            .map_err(|e| self.err("connect", &e))?;
        stream.set_read_timeout(Some(self.cfg.io_timeout)).map_err(|e| self.err("timeout", &e))?;
        stream.set_write_timeout(Some(self.cfg.io_timeout)).map_err(|e| self.err("timeout", &e))?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(head.as_bytes()).map_err(|e| self.err("write", &e))?;
        stream.write_all(body.as_bytes()).map_err(|e| self.err("write", &e))?;
        stream.flush().map_err(|e| self.err("flush", &e))?;

        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(|e| self.err("read", &e))?;
        let text = String::from_utf8_lossy(&raw);
        let (head, tail) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| self.err("parse", &"no header terminator in response"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("parse", &"no status code in response"))?;
        let retry_after = head.lines().find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("retry-after")
                .then(|| value.trim().parse().ok())
                .flatten()
        });
        Ok(Exchange { status, retry_after, body: tail.to_string() })
    }

    /// One logical request with the full retry policy applied:
    /// connection/read errors and overload 503s are retried up to the
    /// attempt budget (503s sleep the server's `Retry-After`,
    /// connection errors back off exponentially). Returns the final
    /// `(status, body)` — a non-503 error status is a *server
    /// decision*, not a transport fault, and is returned on the first
    /// attempt rather than retried.
    ///
    /// Callers that need to separate service latency from retry delay
    /// (open-loop load generators) should use [`request_traced`],
    /// which this delegates to.
    ///
    /// [`request_traced`]: RetryingClient::request_traced
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), PpdtError> {
        self.request_traced(method, path, body).map(|o| (o.status, o.body))
    }

    /// [`request`](RetryingClient::request) with full retry
    /// accounting: how many attempts the exchange took and how long
    /// the client slept between them. Under overload, retries used to
    /// silently inflate observed latency — a caller timing `request`
    /// around a 503-then-200 saw service latency *plus* the
    /// `Retry-After` sleep with no way to tell them apart. Subtracting
    /// [`RequestOutcome::retry_wait`] from the wall clock recovers the
    /// time actually spent connecting and exchanging.
    pub fn request_traced(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<RequestOutcome, PpdtError> {
        let attempts = self.cfg.attempts.max(1);
        let mut backoff = self.cfg.backoff;
        let mut retry_wait = Duration::ZERO;
        for attempt in 1..=attempts {
            let last = attempt == attempts;
            match self.exchange_once(method, path, body) {
                Ok(ex) if ex.status == 503 && !last => {
                    let wait = ex.retry_after.map_or(backoff, Duration::from_secs).min(MAX_SLEEP);
                    retry_wait += wait;
                    std::thread::sleep(wait);
                }
                Ok(ex) => {
                    return Ok(RequestOutcome {
                        status: ex.status,
                        body: ex.body,
                        attempts: attempt,
                        retry_wait,
                    });
                }
                Err(e) => {
                    if last {
                        return Err(e);
                    }
                    let wait = backoff.min(MAX_SLEEP);
                    retry_wait += wait;
                    std::thread::sleep(wait);
                }
            }
            backoff = backoff.saturating_mul(2);
        }
        unreachable!("the loop returns on its last attempt")
    }
}

/// Result of [`RetryingClient::request_traced`]: the final response
/// plus the retry accounting needed to separate service latency from
/// client-side retry delay.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
    /// Final HTTP status code.
    pub status: u16,
    /// Final response body.
    pub body: String,
    /// Exchanges performed, including the successful one (1 = no
    /// retries).
    pub attempts: usize,
    /// Total time slept between attempts (`Retry-After` sleeps plus
    /// connection-error backoff). Wall clock minus this is the time
    /// spent actually connecting and exchanging.
    pub retry_wait: Duration,
}

/// Blocking loopback client: one request, one `(status, body)` answer
/// over a fresh `Connection: close` socket with 30 s deadlines and no
/// retry.
///
/// Used by the integration tests and anything else that wants to
/// poke the daemon without an external tool. For retries, see
/// [`RetryingClient`]; for connection reuse, [`crate::http::Client`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), PpdtError> {
    let cfg = ClientConfig {
        connect_timeout: Duration::from_secs(30),
        io_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    };
    let ex = RetryingClient::with_config(addr, cfg).exchange_once(method, path, body)?;
    Ok((ex.status, ex.body))
}

/// Writes `raw` bytes to a fresh socket, half-closes the write side,
/// and reads to EOF, returning everything the server sent (possibly
/// several pipelined responses). The shared form of the tests'
/// hostile/overload probes — malformed heads, pipelined bursts,
/// truncated bodies — which all used to hand-roll this
/// connect/write/drain loop. The write shutdown matters: it is the
/// EOF that lets the server distinguish a *truncated* body from a
/// merely *slow* one, so truncation probes get their typed 400
/// instead of waiting out the parse deadline. (Slow-loris tests,
/// whose whole point is a stalled-but-open socket, cannot use this.)
pub fn raw_probe(addr: SocketAddr, raw: &[u8], io_timeout: Duration) -> Result<String, PpdtError> {
    let err = |what: &str, e: &dyn std::fmt::Display| PpdtError::Io {
        path: Some(format!("http://{addr}")),
        detail: format!("{what}: {e}"),
    };
    let mut stream = TcpStream::connect(addr).map_err(|e| err("connect", &e))?;
    stream.set_read_timeout(Some(io_timeout)).map_err(|e| err("timeout", &e))?;
    stream.set_write_timeout(Some(io_timeout)).map_err(|e| err("timeout", &e))?;
    stream.write_all(raw).map_err(|e| err("write", &e))?;
    stream.flush().map_err(|e| err("flush", &e))?;
    stream.shutdown(std::net::Shutdown::Write).map_err(|e| err("shutdown", &e))?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out).map_err(|e| err("read", &e))?;
    Ok(String::from_utf8_lossy(&out).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    /// Drains one request's head off `conn` (ignores the body — every
    /// scripted test request is bodyless) then writes `response`.
    fn answer(mut conn: TcpStream, response: &str) {
        let mut buf = [0u8; 4096];
        let mut seen = Vec::new();
        while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = conn.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            seen.extend_from_slice(&buf[..n]);
        }
        conn.write_all(response.as_bytes()).unwrap();
    }

    #[test]
    fn retries_past_a_503_honoring_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            answer(
                conn,
                "HTTP/1.1 503 Service Unavailable\r\nretry-after: 0\r\n\
                 content-length: 2\r\nconnection: close\r\n\r\n{}",
            );
            let (conn, _) = listener.accept().unwrap();
            answer(conn, "HTTP/1.1 200 OK\r\ncontent-length: 4\r\nconnection: close\r\n\r\nfine");
        });
        let client = RetryingClient::new(addr);
        let (status, body) = client.request("GET", "/x", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "fine"));
        server.join().unwrap();
    }

    #[test]
    fn request_traced_accounts_for_retries() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (conn, _) = listener.accept().unwrap();
                answer(
                    conn,
                    "HTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\n\
                     content-length: 2\r\nconnection: close\r\n\r\n{}",
                );
            }
            let (conn, _) = listener.accept().unwrap();
            answer(conn, "HTTP/1.1 200 OK\r\ncontent-length: 4\r\nconnection: close\r\n\r\nfine");
        });
        let out = RetryingClient::new(addr).request_traced("GET", "/x", "").unwrap();
        assert_eq!((out.status, out.body.as_str()), (200, "fine"));
        assert_eq!(out.attempts, 3, "two 503s then the success");
        // Two Retry-After sleeps of 1s each — the accounting must
        // report exactly what the client slept, no more.
        assert_eq!(out.retry_wait, Duration::from_secs(2));
        server.join().unwrap();
    }

    #[test]
    fn request_traced_first_try_reports_no_wait() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            answer(conn, "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok");
        });
        let out = RetryingClient::new(addr).request_traced("GET", "/x", "").unwrap();
        assert_eq!((out.status, out.attempts, out.retry_wait), (200, 1, Duration::ZERO));
        server.join().unwrap();
    }

    #[test]
    fn exchange_once_surfaces_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            answer(
                conn,
                "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\n\
                 content-length: 0\r\nconnection: close\r\n\r\n",
            );
        });
        let ex = RetryingClient::new(addr).exchange_once("GET", "/x", "").unwrap();
        assert_eq!(ex.status, 503);
        assert_eq!(ex.retry_after, Some(7));
        server.join().unwrap();
    }

    #[test]
    fn connection_errors_retry_then_fail_within_bounded_time() {
        // Bind, learn the port, drop the listener: connects now fail
        // fast with ECONNREFUSED on loopback.
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let cfg = ClientConfig {
            attempts: 3,
            backoff: Duration::from_millis(10),
            ..ClientConfig::default()
        };
        let t0 = Instant::now();
        let err = RetryingClient::with_config(addr, cfg)
            .request("GET", "/x", "")
            .expect_err("nothing listens");
        assert!(err.to_string().contains("connect"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(5), "retries must stay bounded");
    }
}
