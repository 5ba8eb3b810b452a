//! The open-loop load generator: a fixed schedule of ticks, each sent
//! on its own due time over one of at most two connections, timed from
//! that due time, and checked against the answer computed in process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::inputs::same_answer;
use crate::stats::{Outcome, Span};

/// Connections (and generator threads) the load uses at most.
pub const CONNECTIONS: usize = 2;

/// One request, built once before timing: the exact bytes to write
/// and the exact body a correct answer carries.
pub struct Template {
    /// Index into the workload's endpoint list.
    pub endpoint: usize,
    /// Head and body, ready to write.
    pub bytes: Vec<u8>,
    /// Status a correct answer carries.
    pub status: u16,
    /// Body of the correct answer, serialized in process.
    pub expected: Vec<u8>,
    /// Rows the request carries.
    pub rows: u64,
}

/// The requests of one workload and the order they are sent in.
pub struct Traffic {
    /// Every distinct request.
    pub templates: Vec<Template>,
    /// Template index of each tick, cycled.
    pub order: Vec<usize>,
    /// Templates sent at most once, consumed in order when `order`
    /// names the pool (`usize::MAX`).
    pub pool: Vec<usize>,
    /// Next unused pool entry.
    pub pool_next: AtomicUsize,
    /// Fresh connection per request (`Connection: close`) or two
    /// connections kept alive for the whole run.
    pub fresh: bool,
}

/// Marks a tick in [`Traffic::order`] that takes the next pool entry.
pub const FROM_POOL: usize = usize::MAX;

/// What happened to one tick.
#[derive(Clone, Copy, Debug)]
pub struct TickRecord {
    /// Template sent (`usize::MAX` when unsent).
    pub template: usize,
    /// Due time, seconds from the step's start.
    pub due: f64,
    /// When the connect began (fresh connections), the write began,
    /// the request was written, the first response byte arrived, and
    /// the response was complete; seconds from the step's start.
    pub connect: f64,
    /// See [`TickRecord::connect`].
    pub send: f64,
    /// See [`TickRecord::connect`].
    pub sent: f64,
    /// See [`TickRecord::connect`].
    pub first_byte: f64,
    /// See [`TickRecord::connect`].
    pub done: f64,
    /// The tick's outcome.
    pub outcome: Outcome,
    /// When the thread that sent it became free, seconds; the send is
    /// the generator's own fault only for the part after this.
    pub free: f64,
    /// Whether this tick opened a connection.
    pub connected: bool,
}

/// All ticks of one step.
pub struct StepRecord {
    /// One record per tick, in due order.
    pub ticks: Vec<TickRecord>,
    /// Rows carried by correct answers.
    pub rows_ok: u64,
}

impl StepRecord {
    /// Outcomes in due order.
    pub fn outcomes(&self) -> Vec<Outcome> {
        self.ticks.iter().map(|t| t.outcome).collect()
    }

    /// Appends `other`'s ticks with their times moved `offset` seconds
    /// later, so slices run one after another read as one window.
    pub fn append(&mut self, other: StepRecord, offset: f64) {
        for mut t in other.ticks {
            for x in [
                &mut t.due,
                &mut t.connect,
                &mut t.send,
                &mut t.sent,
                &mut t.first_byte,
                &mut t.done,
                &mut t.free,
            ] {
                *x += offset;
            }
            self.ticks.push(t);
        }
        self.rows_ok += other.rows_ok;
    }

    /// The generator's own lateness, ms: how long after both the due
    /// time and the moment its thread was free each send began. Large
    /// values mean the generator, not the daemon, fell behind.
    pub fn own_lateness_ms(&self) -> Vec<f64> {
        self.ticks
            .iter()
            .filter(|t| t.outcome != Outcome::Unsent)
            .map(|t| (t.send - t.due.max(t.free)) * 1e3)
            .collect()
    }

    /// Request spans: a root per tick (its index is the request id)
    /// from due time to completion, with `connect` (ticks that opened a
    /// connection), `send`, `first_byte` and `read` children.
    pub fn spans(&self) -> Vec<Span> {
        let ns = |s: f64| (s * 1e9) as u64;
        let mut out = Vec::new();
        for (i, t) in self.ticks.iter().enumerate() {
            if t.outcome == Outcome::Unsent {
                continue;
            }
            let id = i as u64;
            let root = out.len();
            out.push(Span {
                name: "request",
                id,
                parent: None,
                start_ns: ns(t.due),
                end_ns: ns(t.done),
            });
            let mut child = |name, a: f64, b: f64| {
                out.push(Span { name, id, parent: Some(root), start_ns: ns(a), end_ns: ns(b) })
            };
            if t.connected {
                child("connect", t.connect, t.send);
            }
            child("send", t.send, t.sent);
            child("first_byte", t.sent, t.first_byte);
            child("read", t.first_byte, t.done);
        }
        out
    }
}

/// A connection plus the read buffer that outlives single requests.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The last answer carried `Connection: close`.
    pub closed: bool,
}

impl Conn {
    /// Connects with the timeouts every exchange relies on.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        writer.set_write_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(64 * 1024, writer.try_clone()?);
        Ok(Conn { reader, writer, closed: false })
    }

    /// Writes `bytes` and reads one `Content-Length` response into
    /// `body`; returns the status and the instants the write ended and
    /// the first response byte arrived.
    pub fn exchange(
        &mut self,
        bytes: &[u8],
        body: &mut Vec<u8>,
    ) -> std::io::Result<(u16, Instant, Instant)> {
        self.writer.write_all(bytes)?;
        let sent = Instant::now();
        let first = self.reader.fill_buf()?;
        if first.is_empty() {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
        }
        let first_byte = Instant::now();
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        self.closed = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "in head"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(std::io::Error::other)?;
                } else if k.trim().eq_ignore_ascii_case("connection") {
                    self.closed = v.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        body.clear();
        body.resize(len, 0);
        self.reader.read_exact(body)?;
        Ok((status, sent, first_byte))
    }
}

/// Sends `traffic` at `rate` per second for `seconds`, one thread per
/// entry of `conns` (at most [`CONNECTIONS`]); of `c` threads, thread
/// `j` sends ticks `j, j + c, ...`. `conns` carries the kept-alive
/// connections across steps. A tick still unsent once the step's time
/// is up and it is `grace` seconds late is recorded as unsent, so a
/// step ends on time whatever its backlog: a capacity burst schedules
/// more than the daemon answers and ends with grace 0.
pub fn run_step(
    addr: SocketAddr,
    traffic: &Traffic,
    tick0: usize,
    rate: f64,
    seconds: f64,
    grace: f64,
    conns: &mut [Option<Conn>],
) -> StepRecord {
    let n = (rate * seconds).floor() as usize;
    let threads = conns.len();
    let start = Instant::now() + Duration::from_millis(2);
    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut per_thread: Vec<Vec<(usize, TickRecord, u64)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(j, conn)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut body = Vec::new();
                    let mut free = 0.0;
                    for k in (j..n).step_by(threads) {
                        let due = k as f64 / rate;
                        let mut rec = TickRecord {
                            template: usize::MAX,
                            due,
                            connect: 0.0,
                            send: 0.0,
                            sent: 0.0,
                            first_byte: 0.0,
                            done: 0.0,
                            outcome: Outcome::Unsent,
                            free,
                            connected: false,
                        };
                        let now = since(Instant::now());
                        if now >= seconds && now >= due + grace {
                            out.push((k, rec, 0));
                            continue;
                        }
                        let at = start + Duration::from_secs_f64(due);
                        std::thread::sleep(at.saturating_duration_since(Instant::now()));
                        let Some(t) = traffic.pick(tick0 + k) else {
                            rec.outcome = Outcome::Error;
                            out.push((k, rec, 0));
                            continue;
                        };
                        rec.template = t;
                        let tpl = &traffic.templates[t];
                        rec.connect = since(Instant::now());
                        let result = (|| {
                            if traffic.fresh || conn.is_none() {
                                rec.connected = true;
                                *conn = Some(Conn::open(addr)?);
                            }
                            let c = conn.as_mut().expect("connection opened above");
                            let send = Instant::now();
                            let (status, sent, first) = c.exchange(&tpl.bytes, &mut body)?;
                            if c.closed {
                                *conn = None;
                            }
                            Ok::<_, std::io::Error>((status, send, sent, first))
                        })();
                        let done = Instant::now();
                        rec.done = since(done);
                        free = rec.done;
                        let rows = match result {
                            Ok((status, send, sent, first)) => {
                                rec.send = since(send);
                                rec.sent = since(sent);
                                rec.first_byte = since(first);
                                rec.outcome =
                                    traffic.judge(t, status, &body, (rec.done - due) * 1e3);
                                if matches!(rec.outcome, Outcome::Ok(_)) {
                                    tpl.rows
                                } else {
                                    0
                                }
                            }
                            Err(_) => {
                                rec.send = rec.connect;
                                rec.sent = rec.done;
                                rec.first_byte = rec.done;
                                rec.outcome = Outcome::Transport;
                                *conn = None;
                                0
                            }
                        };
                        out.push((k, rec, rows));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            per_thread.push(h.join().expect("generator thread panicked"));
        }
    });
    let mut all: Vec<(usize, TickRecord, u64)> = per_thread.into_iter().flatten().collect();
    all.sort_by_key(|(k, _, _)| *k);
    let rows_ok = all.iter().map(|(_, _, r)| r).sum();
    StepRecord { ticks: all.into_iter().map(|(_, t, _)| t).collect(), rows_ok }
}

impl Traffic {
    /// Template for global tick `k`, or `None` when the once-only pool
    /// is used up.
    pub fn pick(&self, k: usize) -> Option<usize> {
        match self.order[k % self.order.len()] {
            FROM_POOL => self.pool.get(self.pool_next.fetch_add(1, Ordering::Relaxed)).copied(),
            t => Some(t),
        }
    }

    /// Classifies one answer.
    pub fn judge(&self, t: usize, status: u16, body: &[u8], latency_ms: f64) -> Outcome {
        let tpl = &self.templates[t];
        match status {
            s if s == tpl.status => {
                if body == tpl.expected.as_slice() || same_answer(&tpl.expected, body) {
                    Outcome::Ok(latency_ms)
                } else {
                    Outcome::Wrong
                }
            }
            503 | 429 => Outcome::Refused,
            _ => Outcome::Error,
        }
    }
}

/// Request bytes for `method path` with a JSON `body`.
pub fn request_bytes(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
    let mut v = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{}\r\n",
        body.len(),
        if close { "connection: close\r\n" } else { "" }
    )
    .into_bytes();
    v.extend_from_slice(body.as_bytes());
    v
}
