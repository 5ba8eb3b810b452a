//! The `ppdt serve` child process: spawn, wait for its listen line,
//! read its `/proc` entries and `/metrics`, and stop it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

use ppdt_serve::server::MetricsBody;

use crate::load::{request_bytes, Conn};

/// Process ids of the daemons alive now, for [`kill_all`].
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kills every daemon still alive; the watchdog's last resort when a
/// run overstays, since `exit` runs no destructors.
pub fn kill_all() {
    let live = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
    for pid in live {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its key store.
    pub dir: PathBuf,
}

impl Daemon {
    /// Spawns `ppdt serve` on a loopback port the OS picks, over the
    /// key store in `dir`, and returns once it printed its listen line.
    pub fn spawn(
        ppdt: &Path,
        dir: &Path,
        keep_alive: u64,
        metrics: bool,
    ) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut cmd = Command::new(ppdt);
        cmd.arg("serve").arg("--keystore-dir").arg(dir).args([
            "--addr",
            "127.0.0.1:0",
            "--keep-alive",
            &keep_alive.to_string(),
        ]);
        if metrics {
            cmd.arg("--metrics");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ppdt.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .strip_prefix("ppdt-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                LIVE.lock().expect("daemon registry poisoned").push(child.id());
                Ok(Daemon { child, addr, dir: dir.to_path_buf() })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not print its listen line (got {line:?})"))
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Reads the process's counters from `/proc`.
    pub fn sample(&self) -> ProcSample {
        ProcSample::of(&format!("/proc/{}", self.pid()))
    }

    /// `GET /metrics`, parsed.
    pub fn metrics(&self) -> Result<MetricsBody, String> {
        let mut conn = Conn::open(self.addr).map_err(|e| format!("connect: {e}"))?;
        let mut body = Vec::new();
        let (status, _, _) = conn
            .exchange(&request_bytes("GET", "/metrics", "", true), &mut body)
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        let text = std::str::from_utf8(&body).map_err(|e| e.to_string())?;
        serde_json::from_str(text).map_err(|e| format!("parse /metrics: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Ok(mut live) = LIVE.lock() {
            live.retain(|&p| p != self.child.id());
        }
    }
}

/// Counters of one process, read from `/proc/<pid>`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User plus system CPU, milliseconds.
    pub cpu_ms: f64,
    /// System CPU alone, milliseconds.
    pub sys_ms: f64,
    /// Peak resident set (`VmHWM`), MiB.
    pub hwm_mb: f64,
    /// Threads.
    pub threads: u64,
    /// Voluntary plus involuntary context switches over all threads.
    pub ctx_switches: u64,
    /// Read plus write system calls (`syscr + syscw`).
    pub syscalls: u64,
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

impl ProcSample {
    /// Reads `root` (`/proc/<pid>` or `/proc/self`); missing files read
    /// as zero.
    pub fn of(root: &str) -> ProcSample {
        let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).unwrap_or_default();
        let stat = read("stat");
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        let cpu_ms = (tick(11) + tick(12)) / USER_HZ * 1e3;
        let sys_ms = tick(12) / USER_HZ * 1e3;
        let status = read("status");
        let hwm_mb = status_field(&status, "VmHWM:") as f64 / 1024.0;
        let threads = status_field(&status, "Threads:");
        let mut ctx_switches = 0;
        if let Ok(tasks) = std::fs::read_dir(format!("{root}/task")) {
            for task in tasks.flatten() {
                let s = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
                ctx_switches += status_field(&s, "voluntary_ctxt_switches:")
                    + status_field(&s, "nonvoluntary_ctxt_switches:");
            }
        }
        let io = read("io");
        let syscalls = status_field(&io, "syscr:") + status_field(&io, "syscw:");
        ProcSample { cpu_ms, sys_ms, hwm_mb, threads, ctx_switches, syscalls }
    }
}

/// Jiffies stolen from this guest so far, over all CPUs: the eighth
/// field of the `cpu` line of `/proc/stat`, time the hypervisor ran
/// someone else while this guest wanted a CPU.
pub fn steal_jiffies() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The number after `name` on its line of a `/proc` key-value file.
fn status_field(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The filesystem type holding `dir`, from `/proc/self/mountinfo`
/// (longest matching mount point).
pub fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0, "unknown".to_string());
    for line in info.lines() {
        let parts: Vec<&str> = line.split(' ').collect();
        let Some(dash) = parts.iter().position(|p| *p == "-") else { continue };
        let (Some(mount), Some(fs)) = (parts.get(4), parts.get(dash + 1)) else { continue };
        if dir.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fs.to_string());
        }
    }
    best.1
}
