//! Streaming bodies: `POST /v1/encode` and `POST /v1/classify` with
//! `Transfer-Encoding: chunked`.
//!
//! A chunked request never materializes the dataset: the worker
//! decodes the body incrementally ([`ChunkedReader`]), batches rows
//! ([`STREAM_CHUNK_ROWS`] at a time),
//! feeds each batch column-wise through
//! [`CompiledKey::encode_column`](ppdt_transform::CompiledKey::encode_column),
//! and streams the answer back as a chunked response — so a
//! million-row dataset is encoded under a bounded memory ceiling
//! (one batch of columns, not the relation).
//!
//! The wire format inside the chunked body is line-oriented:
//!
//! * **encode** — line 1 is a JSON [`StreamEncodeHeader`]
//!   (`{"key_id": "..."}`), line 2 the CSV header, then one CSV data
//!   row per line (the same labelled text `ppdt encode` reads). The
//!   response streams the transformed CSV (`text/csv`).
//! * **classify** — line 1 is a JSON [`StreamClassifyHeader`]
//!   (`{"key_id": "...", "tree": {...}}`), then one plaintext query
//!   row per line (comma-separated attribute values, no header, no
//!   label). The response streams one predicted class id per line
//!   (`text/plain`).
//!
//! Failure semantics: anything wrong with the stream header, the key,
//! or the *first* batch is answered as a normal structured JSON error
//! (the response has not started). Once the 200 head is on the wire a
//! failure can only truncate: the daemon drops the connection without
//! the terminating `0` chunk, which every chunked client detects as
//! an aborted body.

use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

use ppdt_data::AttrId;
use ppdt_error::PpdtError;

use crate::api::{StreamClassifyHeader, StreamEncodeHeader};
use crate::conn::Conn;
use crate::handlers::{self, Endpoint, HandlerCtx, RequestCtx, Route};
use crate::http::{
    chunk_read_failed, finish_chunked, write_chunk, write_stream_head, ChunkedReader, HttpError,
};
use crate::server::ServerConfig;

/// Cap on one line inside a streamed CSV body.
const MAX_ROW_LINE: usize = 1024 * 1024;

/// Total-time budget for one streaming (chunked) request, replacing
/// [`ServerConfig::parse_deadline`] while the body streams.
pub(crate) const STREAM_DEADLINE: Duration = Duration::from_secs(120);

/// Rows per batch on the streaming encode/classify path: the daemon's
/// memory ceiling is a few batches of columns, never the whole
/// dataset.
pub(crate) const STREAM_CHUNK_ROWS: usize = 8192;

/// How a streaming request ended, from the connection's perspective.
pub(crate) enum StreamEnd {
    /// Response fully streamed.
    Done { rows: u64, chunks: u64 },
    /// Failed before the response head was written: answer this as a
    /// normal JSON error. The body was not fully consumed, so the
    /// connection closes afterwards, lingeringly.
    Error(HttpError),
    /// Failed after the response head was written: the wire is
    /// mid-body and unrecoverable, the connection must be dropped.
    Aborted,
}

/// Runs one streaming request on a worker thread, reading the chunked
/// body off `conn` under [`STREAM_DEADLINE`] and writing the answer
/// straight to its socket. `started` turns true just before the
/// response head is written, so a caller catching a panic knows
/// whether an error answer can still be sent.
pub(crate) fn run(
    conn: &mut Conn,
    started: &mut bool,
    close_after: bool,
    route: &Route,
    shared: &HandlerCtx,
    cfg: &ServerConfig,
) -> StreamEnd {
    let ctx = shared.scoped(&route.tenant);
    let deadline = Instant::now() + STREAM_DEADLINE;
    let end = conn.read_through(deadline, |reader, mut out| {
        let mut body = BufReader::new(ChunkedReader::new(reader));
        let mut end = match route.endpoint {
            Endpoint::Encode => stream_encode(&mut out, started, &mut body, close_after, &ctx, cfg),
            Endpoint::Classify => {
                stream_classify(&mut out, started, &mut body, close_after, &ctx, cfg)
            }
            _ => StreamEnd::Error(HttpError::from(PpdtError::internal(
                "streaming dispatched to a non-streamable endpoint",
            ))),
        };
        if let StreamEnd::Done { rows, chunks } = &mut end {
            // `chunks` leaves here as the full wire-chunk count:
            // response chunks written plus request chunks decoded.
            *chunks += body.get_ref().chunks_read();
            ppdt_obs::add(ppdt_obs::Counter::StreamedChunks, *chunks);
            ppdt_obs::add(ppdt_obs::Counter::RowsEncoded, *rows);
        }
        end
    });
    // The socket could not be switched to blocking reads.
    end.unwrap_or(StreamEnd::Aborted)
}

/// Marks the response `started`, then writes it whole through `send`
/// (head, chunks, terminator). An `Err` leaves the wire mid-body.
fn respond<W: Write>(
    out: &mut W,
    started: &mut bool,
    send: impl FnOnce(&mut W) -> std::io::Result<()>,
) -> std::io::Result<()> {
    *started = true;
    send(out)
}

/// Reads one `\n`-terminated line off the de-chunked body, capped at
/// `cap` bytes. `Ok(None)` is end of body. Allocates per call; the
/// row hot loop uses [`read_line_capped_into`] with a reused buffer.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    cap: usize,
    what: &str,
) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    Ok(read_line_capped_into(reader, cap, what, &mut buf)?.map(str::to_owned))
}

/// [`read_line_capped`] into a caller-owned scratch buffer (cleared,
/// capacity retained): one buffer serves every row of a streamed
/// dataset, so the per-line path never touches the allocator once the
/// buffer has grown to the longest row seen.
fn read_line_capped_into<'b, R: BufRead>(
    reader: &mut R,
    cap: usize,
    what: &str,
    out: &'b mut Vec<u8>,
) -> Result<Option<&'b str>, HttpError> {
    out.clear();
    loop {
        let buf = reader.fill_buf().map_err(|e| chunk_read_failed(what, &e))?;
        if buf.is_empty() {
            if out.is_empty() {
                return Ok(None);
            }
            break; // final line without a trailing newline
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            out.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            break;
        }
        out.extend_from_slice(buf);
        let n = buf.len();
        reader.consume(n);
        if out.len() > cap {
            return Err(HttpError::payload_too_large(format!(
                "{what}: line exceeds the {cap}-byte cap"
            )));
        }
    }
    if out.last() == Some(&b'\r') {
        out.pop();
    }
    std::str::from_utf8(out)
        .map(Some)
        .map_err(|e| HttpError::bad_request("invalid_utf8", format!("{what}: {e}")))
}

/// One batch of rows held column-wise, ready for
/// `CompiledKey::encode_column`.
struct Batch {
    /// One plaintext column per attribute.
    cols: Vec<Vec<f64>>,
    /// Encoded columns (reused across batches).
    enc: Vec<Vec<f64>>,
    /// Class labels carried through verbatim (empty for classify).
    labels: Vec<String>,
    rows: usize,
}

impl Batch {
    fn new(num_attrs: usize) -> Batch {
        Batch {
            cols: vec![Vec::new(); num_attrs],
            enc: vec![Vec::new(); num_attrs],
            labels: Vec::new(),
            rows: 0,
        }
    }

    fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.labels.clear();
        self.rows = 0;
    }

    /// Parses one CSV data line into the columns. `with_label` keeps
    /// the last field as a pass-through label (encode); without, every
    /// field is an attribute value (classify).
    fn push_line(&mut self, line: &str, line_no: u64, with_label: bool) -> Result<(), HttpError> {
        let num_attrs = self.cols.len();
        let expect = num_attrs + usize::from(with_label);
        let mut fields = line.split(',');
        for a in 0..num_attrs {
            let field = fields.next().map(str::trim).unwrap_or("");
            let v: f64 = field.parse().map_err(|_| row_error(line_no, a, field))?;
            if !v.is_finite() {
                return Err(row_error(line_no, a, field));
            }
            self.cols[a].push(v);
        }
        let rest: Vec<&str> = fields.collect();
        if with_label {
            match rest.as_slice() {
                [label] => self.labels.push(label.trim().to_string()),
                _ => return Err(arity_error(line_no, expect, num_attrs + rest.len())),
            }
        } else if !rest.is_empty() {
            return Err(arity_error(line_no, expect, num_attrs + rest.len()));
        }
        self.rows += 1;
        Ok(())
    }

    /// Fills the batch with up to `max_rows` lines; returns whether
    /// the body is exhausted. `line_buf` is the caller's scratch
    /// buffer, reused across every row of the stream.
    fn fill<R: BufRead>(
        &mut self,
        reader: &mut R,
        max_rows: usize,
        line_no: &mut u64,
        with_label: bool,
        line_buf: &mut Vec<u8>,
    ) -> Result<bool, HttpError> {
        self.clear();
        while self.rows < max_rows {
            match read_line_capped_into(reader, MAX_ROW_LINE, "streamed row", line_buf)? {
                None => return Ok(true),
                Some(line) => {
                    if line.trim().is_empty() {
                        continue; // ignore blank lines (trailing newline etc.)
                    }
                    *line_no += 1;
                    self.push_line(line, *line_no, with_label)?;
                }
            }
        }
        Ok(false)
    }

    /// Encodes every column through the compiled plan.
    fn encode(&mut self, plan: &ppdt_transform::CompiledKey) -> Result<(), HttpError> {
        for (a, (src, dst)) in self.cols.iter().zip(&mut self.enc).enumerate() {
            plan.encode_column(AttrId(a), src, dst).map_err(HttpError::from)?;
        }
        Ok(())
    }

    /// Renders the encoded batch back to CSV text (labels appended).
    fn render_csv(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        for i in 0..self.rows {
            for col in &self.enc {
                let _ = write!(out, "{},", col[i]);
            }
            let _ = writeln!(out, "{}", self.labels[i]);
        }
    }
}

fn row_error(line_no: u64, attr: usize, field: &str) -> HttpError {
    HttpError::from(PpdtError::DataCorrupt {
        row: Some(line_no as usize),
        column: Some(attr),
        detail: format!("not a finite number: {field:?}"),
    })
}

fn arity_error(line_no: u64, expect: usize, got: usize) -> HttpError {
    HttpError::from(PpdtError::DataCorrupt {
        row: Some(line_no as usize),
        column: None,
        detail: format!("row has {got} field(s), expected {expect}"),
    })
}

/// Maps a mid-stream failure into the `io::Error` that aborts the
/// chunked response.
fn abort(e: HttpError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{} ({})", e.message, e.code))
}

fn stream_encode<R: BufRead, W: Write>(
    out: &mut W,
    started: &mut bool,
    body: &mut R,
    close_after: bool,
    ctx: &RequestCtx,
    cfg: &ServerConfig,
) -> StreamEnd {
    // Everything up to (and including) the first batch is validated
    // before a single response byte, so these failures are clean JSON
    // errors.
    let header_line =
        match read_line_capped(body, cfg.max_body_bytes.max(MAX_ROW_LINE), "stream header") {
            Ok(Some(line)) => line,
            Ok(None) => {
                return StreamEnd::Error(HttpError::bad_request(
                    "missing_stream_header",
                    "a chunked encode body starts with a JSON header line",
                ))
            }
            Err(e) => return StreamEnd::Error(e),
        };
    let header: StreamEncodeHeader = match serde_json::from_str(&header_line) {
        Ok(h) => h,
        Err(e) => {
            return StreamEnd::Error(HttpError::bad_request(
                "invalid_json",
                format!("stream header does not parse: {e}"),
            ))
        }
    };
    let plan = match handlers::load_plan(ctx, &header.key_id) {
        Ok(plan) => plan,
        Err(e) => return StreamEnd::Error(e),
    };
    let csv_header = match read_line_capped(body, MAX_ROW_LINE, "CSV header") {
        Ok(Some(line)) if !line.trim().is_empty() => line,
        Ok(_) => {
            return StreamEnd::Error(HttpError::bad_request(
                "missing_csv_header",
                "the streamed CSV needs a header row",
            ))
        }
        Err(e) => return StreamEnd::Error(e),
    };
    let num_fields = csv_header.split(',').count();
    if num_fields < 2 {
        return StreamEnd::Error(HttpError::bad_request(
            "missing_csv_header",
            "the CSV header needs at least one attribute and the label column",
        ));
    }
    let num_attrs = num_fields - 1;
    if let Err(e) = handlers::check_arity(&plan.key, num_attrs) {
        return StreamEnd::Error(e);
    }
    // The buffered path round-trips through `Dataset`, whose CSV
    // writer names the label column `class` whatever the client
    // called it. Normalize the same way so a streamed encode is
    // byte-identical to the buffered one.
    let csv_header = {
        let attrs = csv_header.rsplit_once(',').map(|(a, _)| a).unwrap_or(&csv_header);
        format!("{attrs},class")
    };

    let mut batch = Batch::new(num_attrs);
    let mut line_no = 0u64;
    let mut line_buf = Vec::new();
    let mut eof = match batch.fill(body, STREAM_CHUNK_ROWS, &mut line_no, true, &mut line_buf) {
        Ok(eof) => eof,
        Err(e) => return StreamEnd::Error(e),
    };
    if let Err(e) = batch.encode(&plan.plan) {
        return StreamEnd::Error(e);
    }

    // First batch is good: commit to a 200 and stream.
    let mut rows = batch.rows as u64;
    let mut chunks = 0u64;
    let mut text = String::new();
    let streamed = respond(out, started, |w| {
        write_stream_head(w, 200, "text/csv", close_after)?;
        write_chunk(w, format!("{csv_header}\n").as_bytes())?;
        chunks += 1;
        batch.render_csv(&mut text);
        write_chunk(w, text.as_bytes())?;
        chunks += 1;
        while !eof {
            eof = batch
                .fill(body, STREAM_CHUNK_ROWS, &mut line_no, true, &mut line_buf)
                .map_err(abort)?;
            if batch.rows == 0 {
                break;
            }
            batch.encode(&plan.plan).map_err(abort)?;
            rows += batch.rows as u64;
            batch.render_csv(&mut text);
            write_chunk(w, text.as_bytes())?;
            chunks += 1;
            w.flush()?;
        }
        finish_chunked(w)
    });
    match streamed {
        Ok(()) => StreamEnd::Done { rows, chunks },
        Err(_) => StreamEnd::Aborted,
    }
}

fn stream_classify<R: BufRead, W: Write>(
    out: &mut W,
    started: &mut bool,
    body: &mut R,
    close_after: bool,
    ctx: &RequestCtx,
    cfg: &ServerConfig,
) -> StreamEnd {
    let header_line =
        match read_line_capped(body, cfg.max_body_bytes.max(MAX_ROW_LINE), "stream header") {
            Ok(Some(line)) => line,
            Ok(None) => {
                return StreamEnd::Error(HttpError::bad_request(
                    "missing_stream_header",
                    "a chunked classify body starts with a JSON header line",
                ))
            }
            Err(e) => return StreamEnd::Error(e),
        };
    let header: StreamClassifyHeader = match serde_json::from_str(&header_line) {
        Ok(h) => h,
        Err(e) => {
            return StreamEnd::Error(HttpError::bad_request(
                "invalid_json",
                format!("stream header does not parse: {e}"),
            ))
        }
    };
    let plan = match handlers::load_plan(ctx, &header.key_id) {
        Ok(plan) => plan,
        Err(e) => return StreamEnd::Error(e),
    };
    if let Err(e) = handlers::check_tree(&plan, &header.tree) {
        return StreamEnd::Error(e);
    }
    let tree = &header.tree;

    let num_attrs = plan.plan.num_attrs();
    let mut batch = Batch::new(num_attrs);
    let mut line_no = 0u64;
    let mut line_buf = Vec::new();
    let mut eof = match batch.fill(body, STREAM_CHUNK_ROWS, &mut line_no, false, &mut line_buf) {
        Ok(eof) => eof,
        Err(e) => return StreamEnd::Error(e),
    };
    if let Err(e) = batch.encode(&plan.plan) {
        return StreamEnd::Error(e);
    }

    let mut rows = batch.rows as u64;
    let mut chunks = 0u64;
    let mut text = String::new();
    let mut point = vec![0.0f64; num_attrs];
    let render = |batch: &Batch, text: &mut String, point: &mut Vec<f64>| {
        use std::fmt::Write as _;
        text.clear();
        for i in 0..batch.rows {
            for (a, col) in batch.enc.iter().enumerate() {
                point[a] = col[i];
            }
            let _ = writeln!(text, "{}", tree.predict(point).0);
        }
    };
    let streamed = respond(out, started, |w| {
        write_stream_head(w, 200, "text/plain", close_after)?;
        render(&batch, &mut text, &mut point);
        write_chunk(w, text.as_bytes())?;
        chunks += 1;
        while !eof {
            eof = batch
                .fill(body, STREAM_CHUNK_ROWS, &mut line_no, false, &mut line_buf)
                .map_err(abort)?;
            if batch.rows == 0 {
                break;
            }
            batch.encode(&plan.plan).map_err(abort)?;
            rows += batch.rows as u64;
            render(&batch, &mut text, &mut point);
            write_chunk(w, text.as_bytes())?;
            chunks += 1;
            w.flush()?;
        }
        finish_chunked(w)
    });
    match streamed {
        Ok(()) => StreamEnd::Done { rows, chunks },
        Err(_) => StreamEnd::Aborted,
    }
}
