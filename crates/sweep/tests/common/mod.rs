//! Harness shared by the end-to-end tests that drive the real
//! `yoco-serve` binary: a [`Server`] killed on drop, spawners that wait
//! for the ready line, per-test temp directories, and a client with a
//! generous read timeout.
//!
//! Readiness is the server's announce line ("yoco-serve listening on
//! …") — never a sleep.

// Each test binary compiles its own copy of this module and uses a
// subset of it.
#![allow(dead_code)]

use std::ffi::OsStr;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Duration;
use yoco_sweep::ServeClient;

/// A fresh path under the system temp dir, unique to this test binary,
/// its process, and `tag`; whatever a previous run left there is removed.
pub fn temp_dir(tag: &str) -> PathBuf {
    let name = format!(
        "yoco-{}-{tag}-{}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    );
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spawned `yoco-serve`, killed on drop so a failing test cannot
/// leak a server (a leaked child also holds the test harness's stdout
/// pipe open, wedging `cargo test`'s output).
pub struct Server(Child);

impl Server {
    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.0.id()
    }

    /// Waits for the server to exit on its own (after a `Shutdown`).
    pub fn wait(mut self) -> ExitStatus {
        self.0.wait().expect("server exits")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Spawns `yoco-serve` with `args` and parses the port off its announce
/// line.
fn spawn_serve<S: AsRef<OsStr>>(args: &[S]) -> (Server, u16) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_yoco-serve"))
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("yoco-serve spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("announce line");
    let port = line
        .trim()
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("unparseable announce line {line:?}"));
    (Server(child), port)
}

/// A single-box server on an ephemeral port over `cache_dir`, with two
/// workers, quiet, plus `extra` flags.
pub fn spawn_server(cache_dir: &Path, extra: &[&str]) -> (Server, u16) {
    let cache_dir = cache_dir.to_str().expect("utf-8 temp path");
    let mut args = vec![
        "--addr",
        "127.0.0.1:0",
        "--cache-dir",
        cache_dir,
        "--jobs",
        "2",
        "--quiet",
    ];
    args.extend_from_slice(extra);
    spawn_serve(&args)
}

/// A quiet coordinator on an ephemeral port over local workers.
pub fn spawn_coordinator(worker_ports: &[u16]) -> (Server, u16) {
    let mut args: Vec<String> = ["--coordinator", "--addr", "127.0.0.1:0", "--quiet"]
        .map(String::from)
        .to_vec();
    for port in worker_ports {
        args.push("--worker".into());
        args.push(format!("127.0.0.1:{port}"));
    }
    spawn_serve(&args)
}

/// A connected client with a 120 s read timeout.
pub fn client(port: u16) -> ServeClient {
    let mut client = ServeClient::connect(&format!("127.0.0.1:{port}")).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    client
}
