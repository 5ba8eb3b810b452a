//! Readiness for the serve loop: one `poll(2)` over the listener, a
//! wake socket and every connection the loop holds, plus the path on
//! which workers hand connections back.
//!
//! The loop sleeps in [`Poller::wait`] until a peer's bytes arrive, a
//! connection is pending on the listener, a worker hands a connection
//! back (one byte on the wake socket interrupts the wait), or the tick
//! elapses. An idle keep-alive socket costs one `pollfd`, no thread.
//! The `poll` binding is a hand-rolled `extern "C"` declaration — std
//! already links libc on Unix, so this adds **zero** new dependencies,
//! matching the crate's no-libc stance. On non-Unix targets a
//! peek-based tick loop stands in, and a handed-back connection waits
//! for the next tick instead of waking the loop.

use std::net::TcpListener;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Duration;

use crate::conn::Conn;

/// Upper bound on one wait, so the loop re-checks the shutdown flag
/// and expiry deadlines promptly.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(100);

#[cfg(unix)]
mod sys {
    /// `struct pollfd` from `<poll.h>`, laid out by hand.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// Readability (including EOF).
    pub const POLLIN: i16 = 0x001;
    /// Error condition (output only).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (output only).
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }

    /// Blocks until one of `fds` is ready or `timeout_ms` elapses.
    /// A negative return is an errno-style failure (a signal, say) the
    /// caller treats as "nothing ready".
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd structs of the length passed.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, timeout_ms) }
    }

    pub fn readable(fd: &impl std::os::fd::AsRawFd) -> PollFd {
        PollFd { fd: fd.as_raw_fd(), events: POLLIN, revents: 0 }
    }
}

/// The loop's end: connections handed back by workers, and the wait
/// for readiness.
pub(crate) struct Poller {
    back: Receiver<Conn>,
    #[cfg(unix)]
    wake: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    /// `fds[first + k]` polls `conns[slots[k]]`.
    #[cfg(unix)]
    slots: Vec<usize>,
}

/// The workers' end: returns a connection to the loop and wakes it.
pub(crate) struct Handback {
    tx: Sender<Conn>,
    #[cfg(unix)]
    wake: std::os::unix::net::UnixStream,
}

/// A connected [`Poller`] and [`Handback`].
pub(crate) fn pair() -> std::io::Result<(Poller, Handback)> {
    let (tx, back) = std::sync::mpsc::channel();
    #[cfg(unix)]
    {
        let (wake_tx, wake_rx) = std::os::unix::net::UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let poller = Poller { back, wake: wake_rx, fds: Vec::new(), slots: Vec::new() };
        Ok((poller, Handback { tx, wake: wake_tx }))
    }
    #[cfg(not(unix))]
    Ok((Poller { back }, Handback { tx }))
}

impl Handback {
    /// Hands `conn` back to the loop. If the loop is gone (drain), the
    /// connection is simply dropped — exactly what shutdown wants.
    pub fn give(&self, conn: Conn) {
        if self.tx.send(conn).is_ok() {
            // Nonblocking: a full socket means the loop is waking up
            // anyway.
            #[cfg(unix)]
            let _ = std::io::Write::write(&mut &self.wake, &[1]);
        }
    }
}

impl Poller {
    /// Connections the workers have handed back since the last call.
    pub fn returned(&self) -> std::sync::mpsc::TryIter<'_, Conn> {
        self.back.try_iter()
    }

    /// Waits up to `timeout` for the listener (when given) or one of
    /// `conns` that [`Conn::needs_poll`] to turn readable. Fills
    /// `ready` with the indices of the connections to serve —
    /// including, without waiting, those [`Conn::ready`] already,
    /// which `poll(2)` cannot see — and returns whether a connection is
    /// pending on the listener.
    #[cfg(unix)]
    pub fn wait(
        &mut self,
        listener: Option<&TcpListener>,
        conns: &[Conn],
        timeout: Duration,
        ready: &mut Vec<usize>,
    ) -> bool {
        ready.clear();
        self.fds.clear();
        self.slots.clear();
        self.fds.push(sys::readable(&self.wake));
        if let Some(l) = listener {
            self.fds.push(sys::readable(l));
        }
        let first = self.fds.len();
        for (i, c) in conns.iter().enumerate() {
            if c.ready() {
                ready.push(i);
            } else if c.needs_poll() {
                self.fds.push(sys::readable(c.socket()));
                self.slots.push(i);
            }
        }
        let timeout_ms = if ready.is_empty() {
            timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        } else {
            0
        };
        if sys::poll_fds(&mut self.fds, timeout_ms) <= 0 {
            return false;
        }
        if self.fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!(std::io::Read::read(&mut &self.wake, &mut sink), Ok(n) if n > 0) {}
        }
        let seen = sys::POLLIN | sys::POLLERR | sys::POLLHUP;
        for (fd, &i) in self.fds[first..].iter().zip(&self.slots) {
            if fd.revents & seen != 0 {
                ready.push(i);
            }
        }
        listener.is_some() && self.fds[1].revents != 0
    }

    /// Peek-based fallback for targets without `poll(2)`: a nonblocking
    /// `peek` per held socket, then a short sleep when none is ready.
    /// The listener is always reported pending (its `accept` does not
    /// block).
    #[cfg(not(unix))]
    pub fn wait(
        &mut self,
        listener: Option<&TcpListener>,
        conns: &[Conn],
        timeout: Duration,
        ready: &mut Vec<usize>,
    ) -> bool {
        ready.clear();
        for (i, c) in conns.iter().enumerate() {
            // Bytes, EOF or a broken socket.
            let stirred = || {
                !matches!(c.socket().peek(&mut [0u8; 1]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock)
            };
            if c.ready() || (c.needs_poll() && stirred()) {
                ready.push(i);
            }
        }
        if ready.is_empty() {
            std::thread::sleep(timeout.min(Duration::from_millis(10)));
        }
        listener.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Instant;

    #[cfg(unix)]
    #[test]
    fn poll_reports_readable_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        // Nothing written yet: not readable within a short poll.
        let mut fds = [sys::readable(&server)];
        assert_eq!(sys::poll_fds(&mut fds, 50), 0, "quiet socket must not be ready");

        client.write_all(b"x").unwrap();
        let mut fds = [sys::readable(&server)];
        assert_eq!(sys::poll_fds(&mut fds, 2000), 1, "written byte must wake poll");
        assert!(fds[0].revents & sys::POLLIN != 0);
    }

    #[test]
    fn wait_sees_pending_connections_bytes_and_handbacks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (mut poller, handback) = pair().unwrap();
        let mut ready = Vec::new();

        let mut client = TcpStream::connect(addr).unwrap();
        assert!(poller.wait(Some(&listener), &[], Duration::from_secs(2), &mut ready));
        let (server, _) = listener.accept().unwrap();
        let conns = vec![Conn::new(server).unwrap()];

        poller.wait(None, &conns, Duration::from_millis(50), &mut ready);
        assert!(ready.is_empty(), "a quiet connection is not ready");

        client.write_all(b"GET").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while ready.is_empty() && Instant::now() < deadline {
            poller.wait(None, &conns, Duration::from_secs(2), &mut ready);
        }
        assert_eq!(ready, [0], "bytes make the connection ready");

        // A worker handing a connection back cuts the wait short.
        let other = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        handback.give(Conn::new(other).unwrap());
        poller.wait(None, &[], Duration::from_secs(2), &mut ready);
        assert!(started.elapsed() < Duration::from_secs(1), "the hand-back woke the wait");
        assert_eq!(poller.returned().count(), 1);
    }
}
