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
//!   partitioned round-robin over the workers, least-loaded first by
//!   the coordinator's own count of sub-requests in flight, streamed
//!   `Cell` frames merge back into one exchange, and a worker that
//!   refuses the connection or is lost mid-stream has its unfinished
//!   cells requeued onto the survivors.
//!
//! ```text
//! yoco-serve [--addr HOST:PORT] [--queue-depth N] [--jobs N]
//!            [--no-cache] [--cache-dir PATH] [--trace-dir PATH] [--quiet]
//! yoco-serve --coordinator --worker HOST:PORT [--worker HOST:PORT]...
//!            [--addr HOST:PORT] [--queue-depth N] [--trace-dir PATH] [--quiet]
//! ```
//!
//! `--trace-dir PATH` turns on request tracing: the runtime's registry
//! is a traced one ([`Registry::traced`]), so every admitted request
//! gets a span id and per-stage (`queued`/`eval`/`flush`) records are
//! appended to `PATH/spans-<pid>.ndjson`. Aggregate them with
//! `sweep trace report --dir PATH`. Tracing never changes response
//! bytes — span ids travel only in worker-bound sub-request ids. One
//! process runs one server, so the span file is named by the pid.
//!
//! The bound address is printed as the first stdout line — the ready
//! line — (`yoco-serve listening on 127.0.0.1:PORT`), so callers bind
//! port `0`, wait for the line, and parse the ephemeral port instead of
//! sleeping. The control lines `"Ping"`, `"Status"`, `"Metrics"` and
//! `"Shutdown"` bypass admission. A `"Shutdown"` answers `"Bye"`, stops
//! accepting, drains in-flight work (streamed responses finish their
//! frames) for at most 60 s, and exits 0.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use yoco_sweep::cli::{positive, Args};
use yoco_sweep::serve::{listen, serve_reactor, Runtime, ServeConfig};
use yoco_sweep::telemetry::Registry;
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
     \"Ping\" | \"Status\" | \"Metrics\" | \"Shutdown\"\n\n\
     with --coordinator, evaluations fan out over the --worker hosts\n  \
     (each a stock yoco-serve) and merge back into one exchange; when no\n  \
     worker delivers a cell (unreachable, lost, or busy), the answer is Busy"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    serve(&args).unwrap_or_else(|e| fail(&e))
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:7177";
    let mut engine = Engine::cached();
    let mut config = ServeConfig::default();
    let mut coordinator = false;
    let mut workers: Vec<String> = Vec::new();
    let mut engine_flags: Vec<&str> = Vec::new();
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut quiet = false;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--addr" => addr = args.value(arg, "HOST:PORT")?,
            "--jobs" => {
                engine_flags.push(arg);
                config.jobs = args.parse(arg, "a positive integer", positive)?;
            }
            "--queue-depth" => {
                config.queue_depth = args.parse(
                    arg,
                    "a non-negative integer (0 rejects every evaluation)",
                    |_| true,
                )?;
            }
            "--cache-dir" => {
                engine_flags.push(arg);
                engine = engine.with_cache(ResultCache::at(args.value(arg, "a path")?));
            }
            "--no-cache" => {
                engine_flags.push(arg);
                engine = engine.no_cache();
            }
            "--trace-dir" => trace_dir = Some(args.value(arg, "a path")?.into()),
            "--coordinator" => coordinator = true,
            "--worker" => workers.push(args.value(arg, "HOST:PORT")?.to_owned()),
            "--quiet" => quiet = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if coordinator && workers.is_empty() {
        return Err("--coordinator needs at least one --worker HOST:PORT".into());
    }
    if !coordinator && !workers.is_empty() {
        return Err("--worker only makes sense with --coordinator".into());
    }
    if coordinator && !engine_flags.is_empty() {
        // Refuse rather than silently ignore: the coordinator evaluates
        // nothing itself — workers own their engines and caches.
        return Err(format!(
            "{} configure the single-box engine; a --coordinator evaluates nothing \
             itself (set them on the workers instead)",
            engine_flags.join("/")
        ));
    }

    // Before binding: the ready line must stay the first stdout line.
    let registry = match &trace_dir {
        Some(dir) => Registry::traced(dir)
            .map_err(|e| format!("cannot open trace dir {}: {e}", dir.display()))?,
        None => Registry::default(),
    };
    let (runtime, notes) = if coordinator {
        let notes = format!(
            "coordinator over {} workers: {}\nqueue depth {}",
            workers.len(),
            workers.join(", "),
            config.queue_depth
        );
        (Runtime::coordinator(workers, config.queue_depth), notes)
    } else {
        let cache = engine
            .cache()
            .map(|c| format!("cache: {}\n", c.dir().display()));
        let notes = format!(
            "{}queue depth {}, jobs budget {}",
            cache.unwrap_or_default(),
            config.queue_depth,
            config.jobs
        );
        (Runtime::new(engine, config), notes)
    };
    let runtime = runtime.with_registry(registry);

    let (listener, local) = listen(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("yoco-serve listening on {local}");
    if !quiet {
        println!("{notes}");
        if let Some(dir) = &trace_dir {
            println!("tracing spans to {}", dir.display());
        }
    }
    let _ = std::io::stdout().flush();
    serve_reactor(listener, Arc::new(runtime), quiet)
        .map_err(|e| format!("reactor failed: {e}"))?;
    if !quiet {
        println!("yoco-serve shutting down");
    }
    Ok(ExitCode::SUCCESS)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{}", usage());
    ExitCode::FAILURE
}
