//! Minimal SIGINT/SIGTERM latching without a libc dependency.
//!
//! The handler does the only async-signal-safe thing there is to do:
//! store one atomic flag. The readiness loop checks [`signalled`]
//! every time its poll returns — at least once per 100 ms tick, and at
//! once when the signal interrupts the poll — and begins the graceful
//! drain when it flips.

use std::sync::atomic::{AtomicBool, Ordering};

static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs the latching handler for SIGINT (2) and SIGTERM (15).
///
/// Idempotent; meant to be called once by the CLI before
/// [`crate::Server::run`]. On non-Unix targets this is a no-op and
/// only the programmatic [`crate::Server::shutdown_flag`] stops the
/// daemon.
pub fn install() {
    #[cfg(unix)]
    {
        // The libc `signal` entry point, declared directly so the
        // vendored-deps-only policy holds. glibc gives `signal` BSD
        // semantics (the handler stays installed after delivery).
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `on_signal` only stores to an atomic, which is
        // async-signal-safe; the handler pointer outlives the process.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Whether a termination signal has been delivered since process
/// start.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}
