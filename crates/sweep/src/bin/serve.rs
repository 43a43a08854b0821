//! `yoco-serve` — the long-running service frontend of the sweep engine.
//!
//! Speaks the versioned NDJSON protocol of [`yoco_sweep::api`] over TCP.
//! Connections are served by the event-driven epoll reactor
//! ([`yoco_sweep::serve::serve_reactor`]) in front of one
//! [`yoco_sweep::serve::Runtime`], which admits, answers, and counts
//! every request the same way in both modes:
//!
//! * **single box** (default) — [`Runtime::new`]: one engine + cache for
//!   every connection, a bounded admission queue (`--queue-depth`,
//!   adaptive `retry_after_ms` hints), a worker budget split across
//!   in-flight requests (`--jobs`), streamed protocol-v2 responses, and
//!   warm-response memoization. Cache hits are served instantly; a warm
//!   re-submission of any batch is 100 % hits and byte-identical bytes.
//! * **coordinator** (`--coordinator`, with one `--worker HOST:PORT` per
//!   worker host) — [`Runtime::coordinator`]: client requests are
//!   partitioned round-robin over the (occupancy-probed) workers,
//!   streamed `Cell` frames merge back into one exchange, and a worker
//!   lost mid-stream has its unfinished cells requeued onto the
//!   survivors.
//!
//! ```text
//! yoco-serve [--addr HOST:PORT] [--queue-depth N] [--jobs N]
//!            [--no-cache] [--cache-dir PATH] [--trace-dir PATH] [--quiet]
//! yoco-serve --coordinator --worker HOST:PORT [--worker HOST:PORT]...
//!            [--addr HOST:PORT] [--queue-depth N] [--trace-dir PATH] [--quiet]
//! ```
//!
//! `--trace-dir PATH` turns on request tracing: every admitted request
//! gets a span id and per-stage (`queued`/`eval`/`flush`) records are
//! appended to `PATH/spans-<pid>.ndjson`. Aggregate them with
//! `sweep trace report --dir PATH`. Tracing never changes response
//! bytes — span ids travel only in worker-bound sub-request ids.
//!
//! The bound address is printed as the first stdout line — the ready
//! line — (`yoco-serve listening on 127.0.0.1:PORT`), so callers bind
//! port `0`, wait for the line, and parse the ephemeral port instead of
//! sleeping. A `"Shutdown"` request answers `"Bye"`, stops accepting,
//! drains in-flight work (streamed responses finish their frames), and
//! exits 0.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use yoco_sweep::serve::{listen, serve_reactor, ReactorConfig, Runtime, ServeConfig};
use yoco_sweep::{Engine, ResultCache};

fn usage() -> &'static str {
    "usage:\n  \
     yoco-serve [--addr HOST:PORT] [--queue-depth N] [--jobs N]\n             \
     [--no-cache] [--cache-dir PATH] [--trace-dir PATH] [--quiet]\n  \
     yoco-serve --coordinator --worker HOST:PORT [--worker HOST:PORT]...\n             \
     [--addr HOST:PORT] [--queue-depth N] [--trace-dir PATH] [--quiet]\n\n\
     --trace-dir appends per-request span records (queued/eval/flush)\n  \
     as NDJSON under PATH; aggregate with `sweep trace report`\n\n\
     connections are multiplexed on one epoll event loop\n\n\
     protocol: one JSON Request per line in, one or more JSON frames per line out\n  \
     {\"Eval\": {\"version\": 1, ...}}  -> one buffered EvalResponse line\n  \
     {\"Eval\": {\"version\": 2, ...}}  -> Accepted, Cell... (completion order), Done\n                                     \
     (or Busy when --queue-depth is exceeded)\n  \
     \"Ping\" | \"Status\" | \"Shutdown\"\n\n\
     with --coordinator, evaluations fan out over the --worker hosts\n  \
     (each a stock yoco-serve) and merge back into one exchange; when no\n  \
     worker answers its probe or every worker is busy, the answer is Busy"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7177".to_owned();
    let mut engine = Engine::cached();
    let mut config = ServeConfig::default();
    let mut coordinator = false;
    let mut workers: Vec<String> = Vec::new();
    let mut engine_flags: Vec<&str> = Vec::new();
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => addr = a.clone(),
                    None => return fail("--addr needs HOST:PORT"),
                }
            }
            "--jobs" => {
                i += 1;
                engine_flags.push("--jobs");
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => config.jobs = n,
                    _ => return fail("--jobs needs a positive integer"),
                }
            }
            "--queue-depth" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => config.queue_depth = n,
                    None => return fail(
                        "--queue-depth needs a non-negative integer (0 rejects every evaluation)",
                    ),
                }
            }
            "--cache-dir" => {
                i += 1;
                engine_flags.push("--cache-dir");
                match args.get(i) {
                    Some(dir) => engine = engine.with_cache(ResultCache::at(dir)),
                    None => return fail("--cache-dir needs a path"),
                }
            }
            "--no-cache" => {
                engine_flags.push("--no-cache");
                engine = engine.no_cache();
            }
            "--trace-dir" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => trace_dir = Some(dir.into()),
                    None => return fail("--trace-dir needs a path"),
                }
            }
            "--coordinator" => coordinator = true,
            "--worker" => {
                i += 1;
                match args.get(i) {
                    Some(w) => workers.push(w.clone()),
                    None => return fail("--worker needs HOST:PORT"),
                }
            }
            "--quiet" => quiet = true,
            other => return fail(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if coordinator && workers.is_empty() {
        return fail("--coordinator needs at least one --worker HOST:PORT");
    }
    if !coordinator && !workers.is_empty() {
        return fail("--worker only makes sense with --coordinator");
    }
    if coordinator && !engine_flags.is_empty() {
        // Refuse rather than silently ignore: the coordinator evaluates
        // nothing itself — workers own their engines and caches.
        return fail(&format!(
            "{} configure the single-box engine; a --coordinator evaluates nothing \
             itself (set them on the workers instead)",
            engine_flags.join("/")
        ));
    }

    // Before binding: the ready line must stay the first stdout line.
    if let Some(dir) = &trace_dir {
        if let Err(e) = yoco_sweep::telemetry::trace::init(dir) {
            return fail(&format!("cannot open trace dir {}: {e}", dir.display()));
        }
    }

    let (listener, local) = match listen(&addr) {
        Ok(pair) => pair,
        Err(e) => return fail(&format!("cannot bind {addr}: {e}")),
    };
    println!("yoco-serve listening on {local}");
    let runtime = if coordinator {
        if !quiet {
            println!(
                "coordinator over {} workers: {}",
                workers.len(),
                workers.join(", ")
            );
            println!("queue depth {}", config.queue_depth);
        }
        Runtime::coordinator(workers, config.queue_depth)
    } else {
        if !quiet {
            if let Some(cache) = engine.cache() {
                println!("cache: {}", cache.dir().display());
            }
            println!(
                "queue depth {}, jobs budget {}",
                config.queue_depth, config.jobs
            );
        }
        Runtime::new(engine, config)
    };
    if !quiet {
        if let Some(dir) = &trace_dir {
            println!("tracing spans to {}", dir.display());
        }
    }
    let _ = std::io::stdout().flush();
    let reactor_config = ReactorConfig::for_queue_depth(config.queue_depth);
    if let Err(e) = serve_reactor(listener, Arc::new(runtime), quiet, reactor_config) {
        return fail(&format!("reactor failed: {e}"));
    }
    if !quiet {
        println!("yoco-serve shutting down");
    }
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{}", usage());
    ExitCode::FAILURE
}
