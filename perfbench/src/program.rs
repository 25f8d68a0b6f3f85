//! Driving the `intentmatch` binary: timed `index` runs and `serve
//! --mapped` processes, plus the resident-memory readings taken from them.

use crate::http;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

/// Runs `intentmatch index <posts> <store> --threads 0` and returns its
/// wall time, from spawn to exit.
pub fn index(program: &Path, posts: &Path, store: &Path) -> Result<Duration> {
    let started = Instant::now();
    let status = Command::new(program)
        .arg("index")
        .arg(posts)
        .arg(store)
        .args(["--threads", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let wall = started.elapsed();
    if !status.success() {
        return Err(format!("intentmatch index exited with {status}"));
    }
    Ok(wall)
}

/// Peak resident set, in KiB, of the largest child process waited for so
/// far (`getrusage(RUSAGE_CHILDREN)`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_max_rss_kib() -> u64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct laid out as the 64-bit
    // Linux `struct rusage` (two timevals then fourteen longs), which is
    // all getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss.max(0) as u64
    } else {
        0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_max_rss_kib() -> u64 {
    0
}

/// `VmHWM` (peak resident set, KiB) of a process from `/proc`.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A running `intentmatch serve --mapped` process. Dropping it kills and
/// reaps the process; [`Server::shutdown`] stops it cleanly.
pub struct Server {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Launches the server on an ephemeral port and returns it with the
    /// set-up time: from spawn to the first `200` answer to
    /// `GET /query?doc=<first_doc>&k=5`.
    pub fn launch(program: &Path, store: &Path, first_doc: usize) -> Result<(Server, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(program)
            .arg("serve")
            .arg(store)
            .args(["--mapped", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on http://")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            Err(_) => None,
        };
        // Built before the address is checked, so that `Drop` reaps the
        // child on every error path below.
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        server.addr = addr.ok_or_else(|| format!("serve did not report its address: {line:?}"))?;
        let path = http::query_path(first_doc);
        let deadline = started + Duration::from_secs(60);
        loop {
            match http::get(server.addr, &path, &[]) {
                Ok(r) if r.status == 200 => break,
                Ok(r) => return Err(format!("first query answered {}", r.status)),
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("server never answered: {e}")),
            }
        }
        Ok((server, started.elapsed()))
    }

    /// The server process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then waits for the process to exit.
    pub fn shutdown(mut self) -> Result<()> {
        let _ = http::post(self.addr, "/shutdown");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("serve did not stop after POST /shutdown".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
