//! The readiness loop's buffer budget: many clients that each send a
//! large `Content-Length` body and stall before its end must not make
//! the daemon buffer all of those bodies, and bodies beyond the budget
//! still get through once it frees. This test lives in its own file so
//! it gets its own process — `VmHWM` is a process-wide high-water mark,
//! and the daemon threads run in-process.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ppdt_serve::{request, ServerConfig};

/// The body cap; the loop's budget is two bodies this size.
const MAX_BODY: usize = 4 << 20;
/// Clients that stall mid-body at once.
const STALLED: usize = 24;

#[test]
fn stalled_large_bodies_stay_within_the_loops_buffer_budget() {
    let cfg = ServerConfig {
        max_body_bytes: MAX_BODY,
        parse_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let srv = common::start(cfg, "budget");
    // Each stalled client sends all of its declared body but the last
    // 64 KiB.
    let body = vec![b'x'; MAX_BODY - (64 << 10)];
    let baseline = ppdt_obs::peak_rss_bytes();

    let stalled: Vec<TcpStream> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..STALLED)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = TcpStream::connect(srv.addr).expect("connect");
                    let head =
                        format!("POST /v1/keys HTTP/1.1\r\ncontent-length: {MAX_BODY}\r\n\r\n");
                    conn.write_all(head.as_bytes()).expect("head");
                    // A body the daemon does not read stops once the
                    // socket buffers are full; give up on it then.
                    conn.set_write_timeout(Some(Duration::from_secs(1))).expect("timeout");
                    let _ = conn.write_all(&body);
                    conn
                })
            })
            .collect();
        senders.into_iter().map(|h| h.join().expect("sender")).collect()
    });
    std::thread::sleep(Duration::from_millis(300));

    // The daemon ran in this process: its peak memory is our VmHWM.
    // Reading every stalled body would take ~STALLED x 4 MiB; the
    // budget holds two bodies, the rest at most one read each.
    if let (Some(before), Some(after)) = (baseline, ppdt_obs::peak_rss_bytes()) {
        let growth = after.saturating_sub(before);
        assert!(
            growth < 32 << 20,
            "peak RSS grew {growth} bytes with {STALLED} stalled {MAX_BODY}-byte bodies"
        );
    }

    // Liveness and small bodies do not wait for the budget.
    let started = Instant::now();
    let (status, _) = request(srv.addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    let (status, text) = request(srv.addr, "POST", "/v1/keys", "{}").expect("small body");
    assert_eq!(status, 400, "{text}");
    assert!(started.elapsed() < Duration::from_secs(2), "answered at once");

    // Closing the stalled clients frees the budget, and more large
    // bodies than it holds at once all get through.
    drop(stalled);
    let whole = "x".repeat(MAX_BODY);
    std::thread::scope(|s| {
        let senders: Vec<_> = (0..3)
            .map(|_| s.spawn(|| request(srv.addr, "POST", "/v1/keys", &whole).expect("answered")))
            .collect();
        for sender in senders {
            let (status, text) = sender.join().expect("sender");
            assert_eq!(status, 400, "a whole body is read and refused as JSON: {text}");
        }
    });

    srv.stop();
}
