//! Per-request records and their CSV form.
//!
//! The open-loop runner produces one record per scheduled request —
//! the raw material every downstream number (percentiles, error
//! curves, the knee) is computed from. The CSV keeps them, so exact
//! percentiles can be re-derived from a sweep directory after the
//! fact. The CSV schema is part of the tooling contract:
//!
//! ```text
//! seq,endpoint,sched_us,wait_us,latency_us,status,bytes,attempts,retry_wait_us
//! ```
//!
//! `sched_us` is the tick's place in the offered schedule (relative
//! to run start); `wait_us` is how late the generator actually sent
//! it (schedule slip — the open-loop evidence closed-loop timing
//! destroys); `latency_us` covers send-to-response only; `status` 0
//! means the request never got an HTTP answer (transport error).

use std::io::{BufRead as _, BufWriter, Write as _};
use std::path::Path;

use ppdt_error::PpdtError;

/// CSV header line (without trailing newline).
pub const CSV_HEADER: &str =
    "seq,endpoint,sched_us,wait_us,latency_us,status,bytes,attempts,retry_wait_us";

/// One scheduled request's outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// Tick index in the offered schedule (0-based).
    pub seq: u64,
    /// Endpoint name ([`crate::BenchEndpoint::name`]).
    pub endpoint: &'static str,
    /// Scheduled send time, microseconds since run start.
    pub sched_us: u64,
    /// Actual send minus scheduled send (schedule slip), µs.
    pub wait_us: u64,
    /// Send-to-response latency, µs (wall clock of the exchange;
    /// subtract `retry_wait_us` for pure service+transport time).
    pub latency_us: u64,
    /// Final HTTP status; 0 when no HTTP answer arrived at all.
    pub status: u16,
    /// Response body bytes.
    pub bytes: u64,
    /// Exchanges performed (1 = no retries; always 1 on keep-alive).
    pub attempts: u32,
    /// Client-side sleep between attempts, µs (0 without retries).
    pub retry_wait_us: u64,
}

impl RequestRecord {
    /// `true` when the final status was a 2xx.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    fn to_csv_line(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{}",
            self.seq,
            self.endpoint,
            self.sched_us,
            self.wait_us,
            self.latency_us,
            self.status,
            self.bytes,
            self.attempts,
            self.retry_wait_us
        )
    }
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> PpdtError {
    PpdtError::Io { path: Some(path.display().to_string()), detail: e.to_string() }
}

/// Writes records as CSV (header + one line per record).
pub fn write_csv(path: &Path, records: &[RequestRecord]) -> Result<(), PpdtError> {
    let file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
    let mut w = BufWriter::new(file);
    let mut emit = |line: &str| writeln!(w, "{line}").map_err(|e| io_err(path, e));
    emit(CSV_HEADER)?;
    for r in records {
        emit(&r.to_csv_line())?;
    }
    w.flush().map_err(|e| io_err(path, e))
}

/// Reads a CSV written by [`write_csv`] back into records. The
/// endpoint column is interned onto the static names so records stay
/// allocation-light; an unknown endpoint name is an error.
pub fn read_csv(path: &Path) -> Result<Vec<RequestRecord>, PpdtError> {
    let file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    let mut lines = std::io::BufReader::new(file).lines();
    let header =
        lines.next().ok_or_else(|| io_err(path, "empty file"))?.map_err(|e| io_err(path, e))?;
    if header.trim() != CSV_HEADER {
        return Err(io_err(path, format!("unexpected header {header:?}")));
    }
    let mut out = Vec::new();
    for (n, line) in lines.enumerate() {
        let line = line.map_err(|e| io_err(path, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 9 {
            return Err(io_err(path, format!("line {}: expected 9 columns", n + 2)));
        }
        let field = |i: usize| -> Result<u64, PpdtError> {
            cols[i]
                .trim()
                .parse()
                .map_err(|_| io_err(path, format!("line {}: bad number {:?}", n + 2, cols[i])))
        };
        let endpoint = match cols[1].trim() {
            "encode" => "encode",
            "classify" => "classify",
            "list_keys" => "list_keys",
            other => {
                return Err(io_err(path, format!("line {}: unknown endpoint {other:?}", n + 2)));
            }
        };
        out.push(RequestRecord {
            seq: field(0)?,
            endpoint,
            sched_us: field(2)?,
            wait_us: field(3)?,
            latency_us: field(4)?,
            status: field(5)? as u16,
            bytes: field(6)?,
            attempts: field(7)? as u32,
            retry_wait_us: field(8)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips() {
        let records = vec![
            RequestRecord {
                seq: 0,
                endpoint: "encode",
                sched_us: 0,
                wait_us: 12,
                latency_us: 843,
                status: 200,
                bytes: 4096,
                attempts: 1,
                retry_wait_us: 0,
            },
            RequestRecord {
                seq: 1,
                endpoint: "list_keys",
                sched_us: 20_000,
                wait_us: 0,
                latency_us: 150,
                status: 503,
                bytes: 42,
                attempts: 2,
                retry_wait_us: 1_000_000,
            },
            RequestRecord {
                seq: 2,
                endpoint: "classify",
                sched_us: 40_000,
                wait_us: 9_999,
                latency_us: 0,
                status: 0,
                bytes: 0,
                attempts: 1,
                retry_wait_us: 0,
            },
        ];
        let path =
            std::env::temp_dir().join(format!("ppdt_bencher_records_{}.csv", std::process::id()));
        write_csv(&path, &records).unwrap();
        let back = read_csv(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, records);
        assert!(back[0].is_ok());
        assert!(!back[1].is_ok());
        assert!(!back[2].is_ok());
    }

    #[test]
    fn read_rejects_malformed_files() {
        let dir = std::env::temp_dir();
        let bad_header = dir.join(format!("ppdt_bencher_badh_{}.csv", std::process::id()));
        std::fs::write(&bad_header, "nope,nope\n1,2\n").unwrap();
        assert!(read_csv(&bad_header).is_err());
        let _ = std::fs::remove_file(&bad_header);

        let bad_cols = dir.join(format!("ppdt_bencher_badc_{}.csv", std::process::id()));
        std::fs::write(&bad_cols, format!("{CSV_HEADER}\n1,encode,2\n")).unwrap();
        assert!(read_csv(&bad_cols).is_err());
        let _ = std::fs::remove_file(&bad_cols);
    }
}
