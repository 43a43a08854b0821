//! Process plumbing: CPU pinning, per-child resource usage, `/proc`
//! readers, and the spawned-server handle.
//!
//! Linux-only by design: pinning and `/proc` accounting are what make the
//! socket workloads repeat (see `NOTES.md`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// The highest-numbered CPU this process may run on: the socket
/// workloads pin the server(s) and the client there together.
pub fn pin_target() -> usize {
    let mut mask = [0u64; 16];
    // SAFETY: the mask buffer is exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return 0;
    }
    (0..1024)
        .rev()
        .find(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .unwrap_or(0)
}

fn set_affinity(cpu: usize) -> std::io::Result<()> {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the mask buffer is exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Pins the calling thread (and so every thread it spawns later) to `cpu`.
pub fn pin_self(cpu: usize) -> Result<(), String> {
    set_affinity(cpu).map_err(|e| format!("pinning to CPU {cpu}: {e}"))
}

/// Makes `cmd`'s child start pinned to `cpu`.
fn pin_child(cmd: &mut Command, cpu: usize) {
    // SAFETY: sched_setaffinity is async-signal-safe; nothing else runs
    // between fork and exec.
    unsafe {
        cmd.pre_exec(move || set_affinity(cpu));
    }
}

/// CPU time and peak memory of one exited child.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Exit status as `wait4` reports it (0 = clean exit).
    pub status: i32,
    /// User + system CPU, seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub rss_mb: f64,
}

/// Reaps `child` with `wait4`, returning its own resource usage (not the
/// benchmark's, and not any other child's).
pub fn reap(child: Child) -> Result<ChildUsage, String> {
    let pid = child.id() as i32;
    let mut status = 0;
    let mut usage = Rusage::default();
    // SAFETY: plain out-pointers to locals; `child` is never waited on by
    // std afterwards (dropping a `Child` does not wait).
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    drop(child);
    if rc != pid {
        return Err(format!("wait4({pid}): {}", std::io::Error::last_os_error()));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(ChildUsage {
        status,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        rss_mb: usage.maxrss_kib as f64 / 1024.0,
    })
}

/// CPU time a live process's threads have run so far, nanoseconds: the
/// scheduler's own account (`/proc/<pid>/task/*/schedstat`), exact where
/// `/proc/<pid>/stat` counts whole clock ticks.
pub fn proc_cpu_ns(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut ns = 0;
    for task in tasks {
        let path = task
            .map_err(|e| format!("{dir}: {e}"))?
            .path()
            .join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        ns += text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("{}: unreadable", path.display()))?;
    }
    Ok(ns)
}

/// Peak resident set of a live process, MiB (`VmHWM`).
pub fn proc_peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))
}

/// A running `yoco-serve` started by the benchmark.
pub struct Server {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    /// `127.0.0.1:PORT` from the ready line.
    pub addr: String,
}

impl Server {
    /// Spawns `bin args…` pinned to `cpu` and waits for its ready line
    /// (`… listening on HOST:PORT`, always the first stdout line).
    pub fn spawn(bin: &Path, args: &[String], cpu: usize, log: &Path) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(
                std::fs::File::create(log)
                    .map_err(|e| format!("creating {}: {e}", log.display()))?,
            );
        pin_child(&mut cmd, cpu);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut ready = String::new();
        let read = out.read_line(&mut ready);
        let addr = ready
            .trim()
            .rsplit_once("listening on ")
            .map(|(_, a)| a.to_owned());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "{} printed no ready line (got {ready:?}; see {})",
                bin.display(),
                log.display()
            ));
        };
        // Keep draining stdout so a chatty server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        Ok(Self {
            child: Some(child),
            drain: Some(drain),
            addr,
        })
    }

    /// The server's pid, for `/proc` accounting.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("live server").id()
    }

    /// Asks the server to shut down, then reaps it (killing it if it has
    /// not exited within five seconds).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = TcpStream::connect(&self.addr).and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_secs(5)))?;
            s.write_all(b"\"Shutdown\"\n")?;
            let mut bye = Vec::new();
            let _ = s.read_to_end(&mut bye);
            Ok(())
        });
        self.finish(asked.is_ok())
    }

    fn finish(&mut self, graceful: bool) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        let exited = graceful
            && loop {
                match child.try_wait() {
                    Ok(Some(_)) => break true,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => break false,
                }
            };
        if !exited {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if exited {
            Ok(())
        } else {
            Err(format!("server {} did not shut down cleanly", self.addr))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Error paths: never leave a server behind.
        let _ = self.finish(false);
    }
}
