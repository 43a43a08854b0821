//! The `sweep` CLI: run scenario grids through the cached parallel engine.
//!
//! ```text
//! sweep list                          # named grids, studies, zoo models
//! sweep run fig8                      # run a named grid (cached, parallel)
//! sweep run fig8 --serial --no-cache  # the determinism reference path
//! sweep run --file grid.json          # run scenarios from a JSON file
//! sweep run all --jobs 4 --force      # recompute everything, 4 workers
//! sweep run fig8 --shard 2/4          # this host's quarter of the grid
//! sweep run fig8 --report out.json    # write the canonical report JSON
//! sweep cache stats|clear             # inspect / clear results/cache
//! sweep cache gc --max-age-days 30 --max-bytes 64m
//! sweep client ping                   # liveness check against yoco-serve
//! sweep client status                 # occupancy/queue/counter probe
//! sweep client run fig8               # evaluate on a server, streamed (v2)
//! sweep client run fig8 --v1 --raw    # buffered v1 exchange, raw NDJSON out
//! sweep client shutdown               # drain and stop the server
//! sweep cluster workers --worker H:P ...      # probe every worker's Status
//! sweep cluster run fig8 --worker H:P ...     # one-shot multi-host fan-out
//! sweep loadgen --rate 200 --duration 10s \
//!     --mix fig9a=9,fig10:v1=1                # open-loop latency trajectory
//! sweep loadgen --mix fig8 --rate 128000 --duration 10ms \
//!     --arrivals fixed --connections 64       # saturated: warm capacity
//! sweep loadgen report                        # render the history table
//! sweep loadgen gate --factor 2.0             # CI p99 regression gate
//! sweep client metrics                        # Prometheus-style scrape
//! sweep client status --watch 2               # periodic re-probe
//! sweep trace report                          # span files -> stage table
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use yoco_sweep::api::{CellStatus, EvalRequest, Request, Response, StatusReport};
use yoco_sweep::cluster::{fan_out, report_from_outcomes, select_workers, FanoutResult, TcpPool};
use yoco_sweep::telemetry::Registry;
use yoco_sweep::{
    grids, loadgen, root, Engine, GcBudget, ResultCache, Scenario, ServeClient, Shard,
    StreamOutcome, StudyId,
};

/// Exit code of `sweep client` when the server answers `Busy`: distinct
/// from evaluation failures (1) so scripts can back off and retry.
const EXIT_BUSY: u8 = 3;

fn usage() -> &'static str {
    "usage:\n  \
     sweep list\n  \
     sweep run <grid>|--file <path> [--jobs N] [--serial] [--no-cache] [--force]\n           \
     [--shard i/n] [--report <path>] [--quiet]\n  \
     sweep cache stats|clear\n  \
     sweep cache gc [--max-age-days D] [--max-bytes N[k|m|g]]\n  \
     sweep client ping|shutdown [--addr HOST:PORT]\n  \
     sweep client status [--addr HOST:PORT] [--raw]\n  \
     sweep client run <grid>|--file <path> [--addr HOST:PORT] [--v1] [--force]\n               \
     [--id ID] [--raw] [--quiet]\n  \
     sweep cluster workers --worker HOST:PORT [--worker HOST:PORT]...\n  \
     sweep cluster run <grid>|--file <path> --worker HOST:PORT [--worker ...]\n                \
     [--force] [--id ID] [--report <path>] [--quiet]\n  \
     sweep loadgen [run] [--addr HOST:PORT] [--rate R] [--duration D]\n                \
     [--connections N] [--mix SPEC] [--arrivals fixed|poisson|burstN]\n                \
     [--burst N] [--target NAME] [--seed N] [--deadline-ms N]\n                \
     [--out <path>] [--no-out]\n  \
     sweep loadgen report [--out <path>]\n  \
     sweep loadgen gate [--out <path>] [--factor F] [--max-p99-ms MS]\n  \
     sweep client metrics [--addr HOST:PORT] [--raw]\n  \
     sweep client status --watch SECS [--raw]     # re-probe until q/EOF\n  \
     sweep trace report [--dir <path>]            # aggregate span files\n\n\
     run `sweep list` for the available grids; `client` and `cluster run`\n  \
     exit 3 when the server (or every worker) rejects the request with Busy"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("cache") => cache_cmd(&args[1..]),
        Some("client") => client_cmd(&args[1..]),
        Some("cluster") => cluster_cmd(&args[1..]),
        Some("loadgen") => loadgen_cmd(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        _ => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn list() {
    println!("named grids:");
    for (name, desc) in grids::named() {
        println!("  {name:<22} {desc}");
    }
    println!("\nstudies (each also runs standalone):");
    for study in StudyId::ALL {
        println!("  {}", study.name());
    }
    println!("\nzoo models (run as `<accelerator>/<model>`):");
    for model in yoco_nn::models::fig8_benchmarks() {
        println!("  {}", model.name);
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut grid_name: Option<&str> = None;
    let mut file: Option<&str> = None;
    let mut report_path: Option<&str> = None;
    let mut shard: Option<Shard> = None;
    let mut engine = Engine::cached();
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--file" => {
                i += 1;
                match args.get(i) {
                    Some(path) => file = Some(path),
                    None => return fail("--file needs a path"),
                }
            }
            "--report" => {
                i += 1;
                match args.get(i) {
                    Some(path) => report_path = Some(path),
                    None => return fail("--report needs a path"),
                }
            }
            "--shard" => {
                i += 1;
                match args.get(i).map(|v| Shard::parse(v)) {
                    Some(Ok(s)) => shard = Some(s),
                    Some(Err(e)) => return fail(&e.to_string()),
                    None => return fail("--shard needs a descriptor like 2/4"),
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => engine = engine.jobs(n),
                    _ => return fail("--jobs needs a positive integer"),
                }
            }
            "--serial" => engine = engine.jobs(1),
            "--no-cache" => engine = engine.no_cache(),
            "--force" => engine = engine.force(true),
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => {
                return fail(&format!("unknown flag `{flag}`"));
            }
            name => {
                if grid_name.is_some() {
                    return fail("only one grid per run");
                }
                grid_name = Some(name);
            }
        }
        i += 1;
    }

    let scenarios = match load_scenarios(grid_name, file) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };

    let scenarios = match shard {
        Some(shard) => {
            let slice = shard.select(&scenarios);
            if !quiet {
                println!(
                    "shard {shard}: {} of {} scenarios",
                    slice.len(),
                    scenarios.len()
                );
            }
            slice
        }
        None => scenarios,
    };

    let report = engine.run(&scenarios);
    if !quiet {
        for cell in &report.cells {
            let status = match (&cell.error, cell.cached) {
                (Some(e), _) => format!("ERROR {e}"),
                (None, true) => "hit".to_owned(),
                (None, false) => "computed".to_owned(),
            };
            println!("  {:<40} {:<18} {}", cell.scenario.id, cell.key, status);
        }
    }
    println!("{}", report.cache_summary());
    for (id, e) in report.errors() {
        eprintln!("error: {id}: {e}");
    }
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(path, report.canonical_json()) {
            return fail(&format!("cannot write report {path}: {e}"));
        }
        if !quiet {
            println!("canonical report written to {path}");
        }
    }
    if report.errors().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resolves the shared `<grid> | --file <path>` scenario source of
/// `sweep run` and `sweep client run`.
fn load_scenarios(grid_name: Option<&str>, file: Option<&str>) -> Result<Vec<Scenario>, String> {
    match (grid_name, file) {
        (Some(_), Some(_)) => Err("pass a grid name or --file, not both".into()),
        (Some(name), None) => grids::resolve(name).map_err(|e| e.to_string()),
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
        }
        (None, None) => Err("nothing to run — pass a grid name or --file".into()),
    }
}

/// Parses `N`, `Nk`, `Nm`, or `Ng` (case-insensitive) into bytes.
/// Overflowing `u64` is a parse error, not a wrapped-around tiny budget.
fn parse_bytes(text: &str) -> Option<u64> {
    let lower = text.to_ascii_lowercase();
    let (digits, unit) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (d, lower.as_bytes()[lower.len() - 1]),
        None => (lower.as_str(), b'b'),
    };
    let n: u64 = digits.parse().ok()?;
    let scale: u64 = match unit {
        b'k' => 1 << 10,
        b'm' => 1 << 20,
        b'g' => 1 << 30,
        _ => 1,
    };
    n.checked_mul(scale)
}

fn cache_cmd(args: &[String]) -> ExitCode {
    let cache = ResultCache::default_location();
    match args.first().map(String::as_str) {
        Some("stats") | None => {
            let stats = cache.stats();
            println!(
                "cache {}: {} entries, {} KiB",
                cache.dir().display(),
                stats.entries,
                stats.bytes / 1024
            );
            ExitCode::SUCCESS
        }
        Some("clear") => match cache.clear() {
            Ok(n) => {
                println!("removed {n} entries from {}", cache.dir().display());
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("clear failed: {e}")),
        },
        Some("gc") => {
            let mut budget = GcBudget::default();
            let rest = &args[1..];
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--max-age-days" => {
                        i += 1;
                        match rest.get(i).and_then(|v| v.parse::<f64>().ok()) {
                            Some(d) if d >= 0.0 => {
                                budget.max_age = Some(Duration::from_secs_f64(d * 86_400.0));
                            }
                            _ => return fail("--max-age-days needs a non-negative number"),
                        }
                    }
                    "--max-bytes" => {
                        i += 1;
                        match rest.get(i).and_then(|v| parse_bytes(v)) {
                            Some(b) => budget.max_bytes = Some(b),
                            None => return fail("--max-bytes needs a size like 1048576 or 64m"),
                        }
                    }
                    other => return fail(&format!("unknown cache gc flag `{other}`")),
                }
                i += 1;
            }
            if budget.max_age.is_none() && budget.max_bytes.is_none() {
                return fail("cache gc needs --max-age-days and/or --max-bytes");
            }
            match cache.gc(&budget) {
                Ok(o) => {
                    println!(
                        "gc {}: scanned {}, removed {} ({} KiB freed), kept {} ({} KiB)",
                        cache.dir().display(),
                        o.scanned,
                        o.removed,
                        o.freed_bytes / 1024,
                        o.kept,
                        o.kept_bytes / 1024
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&format!("gc failed: {e}")),
            }
        }
        Some(other) => fail(&format!("unknown cache subcommand `{other}`")),
    }
}

/// Default server address, matching `yoco-serve`'s default bind.
const DEFAULT_ADDR: &str = "127.0.0.1:7177";

/// Pulls `--addr HOST:PORT` out of a flag list, returning the remainder.
fn take_addr(args: &[String]) -> Result<(String, Vec<String>), String> {
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--addr" {
            i += 1;
            match args.get(i) {
                Some(a) => addr = a.clone(),
                None => return Err("--addr needs HOST:PORT".into()),
            }
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    Ok((addr, rest))
}

fn connect(addr: &str) -> Result<ServeClient, String> {
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    Ok(client)
}

/// `sweep client …` — drive a running `yoco-serve` over the versioned
/// NDJSON protocol (v2 streamed by default, `--v1` for the buffered
/// compatibility path).
fn client_cmd(args: &[String]) -> ExitCode {
    let action = args.first().map(String::as_str);
    let (addr, rest) = match take_addr(args.get(1..).unwrap_or(&[])) {
        Ok(pair) => pair,
        Err(e) => return fail(&e),
    };
    match action {
        Some("ping") => match connect(&addr).and_then(|mut c| {
            c.ping().map_err(|e| format!("ping failed: {e}"))?;
            println!("pong from {addr}");
            Ok(())
        }) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("shutdown") => match connect(&addr).and_then(|mut c| {
            c.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
            println!("bye from {addr}");
            Ok(())
        }) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("status") => client_status(&addr, &rest),
        Some("metrics") => client_metrics(&addr, &rest),
        Some("run") => client_run(&addr, &rest),
        _ => fail("client needs an action: ping, status, metrics, shutdown, or run"),
    }
}

/// One human-readable line per [`StatusReport`], shared by
/// `sweep client status` and `sweep cluster workers`.
fn status_line(report: &StatusReport) -> String {
    let workers = if report.workers > 0 {
        format!(", {} workers", report.workers)
    } else {
        String::new()
    };
    // Transport-layer sheds are rare enough that zero lines stay short.
    let sheds = if report.fd_sheds > 0 || report.slow_reader_disconnects > 0 {
        format!(
            ", fd sheds {}, slow readers dropped {}",
            report.fd_sheds, report.slow_reader_disconnects
        )
    } else {
        String::new()
    };
    format!(
        "{} occupancy {}/{}, jobs {}{workers}, served {} ({} cells: {} hits, {} misses), \
         rejected {}, service est {} ms, busy {} ms{sheds}",
        report.role,
        report.occupancy,
        report.queue_depth,
        report.jobs,
        report.served,
        report.cells,
        report.hits,
        report.misses,
        report.rejected,
        report.service_estimate_ms,
        report.busy_ms
    )
}

fn client_status(addr: &str, args: &[String]) -> ExitCode {
    let mut raw = false;
    let mut watch: Option<Duration> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--raw" => raw = true,
            "--watch" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(secs) if secs > 0.0 => watch = Some(Duration::from_secs_f64(secs)),
                    _ => return fail("--watch needs a positive number of seconds"),
                }
            }
            other => return fail(&format!("unknown status flag `{other}`")),
        }
        i += 1;
    }
    match watch {
        Some(period) => client_status_watch(addr, raw, period),
        None => {
            let mut client = match connect(addr) {
                Ok(c) => c,
                Err(e) => return fail(&e),
            };
            match render_status_once(addr, &mut client, raw) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
    }
}

/// One probe, rendered: the raw NDJSON `Status` line or the
/// human-readable summary.
fn render_status_once(addr: &str, client: &mut ServeClient, raw: bool) -> Result<(), String> {
    if raw {
        client
            .send(&Request::Status)
            .map_err(|e| format!("status failed: {e}"))?;
        match client.recv() {
            Ok((line, Response::Status(_))) => {
                println!("{line}");
                Ok(())
            }
            Ok((line, _)) => Err(format!("expected Status, got {line}")),
            Err(e) => Err(format!("status failed: {e}")),
        }
    } else {
        match client.status() {
            Ok(report) => {
                println!("{addr}: {}", status_line(&report));
                Ok(())
            }
            Err(e) => Err(format!("status failed: {e}")),
        }
    }
}

/// `sweep client status --watch <secs>`: re-probe on a fixed period
/// until stdin closes (EOF) or a line starting with `q` arrives — both
/// exit 0. Ctrl-C terminates through the default SIGINT disposition,
/// which is equally clean since the terminal is never put in raw mode.
/// Each probe opens a fresh connection so a server restart mid-watch
/// shows up as one failed line, not a dead loop.
fn client_status_watch(addr: &str, raw: bool, period: Duration) -> ExitCode {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match std::io::stdin().read_line(&mut line) {
                    Ok(0) => break, // EOF
                    Ok(_) if line.trim_start().starts_with('q') => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    loop {
        // Probe before checking for exit, so even an immediately-closed
        // stdin gets one rendered line.
        match connect(addr) {
            Ok(mut client) => {
                if let Err(e) = render_status_once(addr, &mut client, raw) {
                    eprintln!("{e}");
                }
            }
            Err(e) => eprintln!("{e}"),
        }
        // Sleep in short slices so `q`/EOF exits promptly, not after a
        // full period.
        let deadline = Instant::now() + period;
        while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(50));
        }
        if stop.load(Ordering::Relaxed) {
            return ExitCode::SUCCESS;
        }
    }
}

fn client_metrics(addr: &str, args: &[String]) -> ExitCode {
    let mut raw = false;
    for arg in args {
        match arg.as_str() {
            "--raw" => raw = true,
            other => return fail(&format!("unknown metrics flag `{other}`")),
        }
    }
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    match client.metrics() {
        Ok((line, report)) => {
            if raw {
                println!("{line}");
            } else {
                print!("{}", report.render_prometheus());
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("metrics failed: {e}")),
    }
}

fn client_run(addr: &str, args: &[String]) -> ExitCode {
    let mut grid_name: Option<&str> = None;
    let mut file: Option<&str> = None;
    let mut v1 = false;
    let mut force = false;
    let mut raw = false;
    let mut quiet = false;
    let mut no_retry = false;
    let mut id = "client".to_owned();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--file" => {
                i += 1;
                match args.get(i) {
                    Some(path) => file = Some(path),
                    None => return fail("--file needs a path"),
                }
            }
            "--id" => {
                i += 1;
                match args.get(i) {
                    Some(v) => id = v.clone(),
                    None => return fail("--id needs a value"),
                }
            }
            "--v1" => v1 = true,
            "--force" => force = true,
            "--raw" => raw = true,
            "--quiet" => quiet = true,
            "--no-retry" => no_retry = true,
            flag if flag.starts_with("--") => return fail(&format!("unknown flag `{flag}`")),
            name => {
                if grid_name.is_some() {
                    return fail("only one grid per run");
                }
                grid_name = Some(name);
            }
        }
        i += 1;
    }
    let scenarios = match load_scenarios(grid_name, file) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let mut request = if v1 {
        EvalRequest::new(id, scenarios)
    } else {
        EvalRequest::streaming(id, scenarios)
    };
    request.force = force;

    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    // Busy answers are retried in-request on a jittered exponential
    // backoff honoring the server's hint; `--no-retry` keeps the raw
    // single-shot semantics (exit 3 on the first Busy), which is what
    // loadgen-style measurement scripts want.
    let policy = if no_retry {
        yoco_sweep::RetryPolicy::none()
    } else {
        yoco_sweep::RetryPolicy::default()
    };
    if v1 {
        let (raw_line, response) = match client.eval_buffered_with_retry(request, &policy) {
            Ok(pair) => pair,
            Err(e) => return fail(&format!("exchange failed: {e}")),
        };
        if raw {
            println!("{raw_line}");
        } else if !quiet {
            for cell in &response.cells {
                println!("  cell {} {}", cell.id, status_word(cell.status));
            }
        }
        if let Some(error) = &response.error {
            if !raw {
                eprintln!("error: request refused: {error}");
            }
            return if error.category() == "busy" {
                ExitCode::from(EXIT_BUSY)
            } else {
                ExitCode::FAILURE
            };
        }
        if !raw {
            println!(
                "done {} cells: {} hits, {} misses",
                response.cells.len(),
                response.hits,
                response.misses
            );
        }
        if response.is_ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    } else {
        let mut failed = 0usize;
        let outcome = client.eval_streaming_with_retry(request, &policy, |raw_line, frame| {
            // Failure accounting happens in every output mode — the exit
            // code must not depend on how frames are rendered.
            if let Response::Cell(cell) = frame {
                if cell.status == CellStatus::Failed {
                    failed += 1;
                }
            }
            if raw {
                println!("{raw_line}");
                return;
            }
            match frame {
                Response::Accepted { id, position } if !quiet => {
                    println!("accepted id={id} position={position}");
                }
                Response::Cell(cell) if !quiet => {
                    println!("  cell {} {}", cell.id, status_word(cell.status));
                }
                _ => {}
            }
        });
        match outcome {
            Ok(StreamOutcome::Done {
                position,
                cells,
                hits,
                misses,
            }) => {
                if !raw {
                    println!(
                        "done {cells} cells: {hits} hits, {misses} misses (position {position})"
                    );
                }
                if failed == 0 {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("error: {failed} cells failed");
                    ExitCode::FAILURE
                }
            }
            Ok(StreamOutcome::Busy { retry_after_ms }) => {
                if !raw {
                    println!("busy retry_after_ms={retry_after_ms}");
                }
                ExitCode::from(EXIT_BUSY)
            }
            Err(e) => fail(&format!("exchange failed: {e}")),
        }
    }
}

/// Pulls every `--worker HOST:PORT` out of a flag list, returning the
/// workers and the remainder.
fn take_workers(args: &[String]) -> Result<(Vec<String>, Vec<String>), String> {
    let mut workers = Vec::new();
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--worker" {
            i += 1;
            match args.get(i) {
                Some(w) => workers.push(w.clone()),
                None => return Err("--worker needs HOST:PORT".into()),
            }
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    Ok((workers, rest))
}

/// `sweep cluster …` — probe or drive a set of worker hosts (each a
/// stock `yoco-serve`) through the shard fan-out coordinator.
/// `yoco-serve --coordinator` is the long-running front for them.
fn cluster_cmd(args: &[String]) -> ExitCode {
    let action = args.first().map(String::as_str);
    let (workers, rest) = match take_workers(args.get(1..).unwrap_or(&[])) {
        Ok(pair) => pair,
        Err(e) => return fail(&e),
    };
    if workers.is_empty() {
        return fail("cluster commands need at least one --worker HOST:PORT");
    }
    match action {
        Some("workers") => cluster_workers(&workers, &rest),
        Some("run") => cluster_run(&workers, &rest),
        _ => fail("cluster needs an action: workers or run"),
    }
}

/// Probes every worker's `Status` and prints one line each; exits 0
/// when at least one worker is reachable.
fn cluster_workers(workers: &[String], rest: &[String]) -> ExitCode {
    if let Some(flag) = rest.first() {
        return fail(&format!("unknown workers flag `{flag}`"));
    }
    let pool = TcpPool::default();
    // Probe concurrently (dead hosts cost one timeout, not their sum),
    // print in configured order.
    let results: Vec<Result<StatusReport, std::io::Error>> = std::thread::scope(|scope| {
        let pool = &pool;
        let handles: Vec<_> = workers
            .iter()
            .map(|addr| scope.spawn(move || yoco_sweep::cluster::WorkerPool::status(pool, addr)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    let mut live = 0;
    for (addr, result) in workers.iter().zip(results) {
        match result {
            Ok(report) => {
                live += 1;
                println!("worker {addr}: {}", status_line(&report));
            }
            Err(e) => println!("worker {addr}: unreachable ({e})"),
        }
    }
    println!("{live} of {} workers reachable", workers.len());
    if live > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One-shot multi-host run: partition the grid over the live workers,
/// merge the streamed cells, and (optionally) write the canonical
/// report — which byte-diffs clean against `sweep run <grid> --report`
/// on a single box.
fn cluster_run(workers: &[String], args: &[String]) -> ExitCode {
    let mut grid_name: Option<&str> = None;
    let mut file: Option<&str> = None;
    let mut report_path: Option<&str> = None;
    let mut force = false;
    let mut quiet = false;
    let mut id = "cluster".to_owned();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--file" => {
                i += 1;
                match args.get(i) {
                    Some(path) => file = Some(path),
                    None => return fail("--file needs a path"),
                }
            }
            "--report" => {
                i += 1;
                match args.get(i) {
                    Some(path) => report_path = Some(path),
                    None => return fail("--report needs a path"),
                }
            }
            "--id" => {
                i += 1;
                match args.get(i) {
                    Some(v) => id = v.clone(),
                    None => return fail("--id needs a value"),
                }
            }
            "--force" => force = true,
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => return fail(&format!("unknown flag `{flag}`")),
            name => {
                if grid_name.is_some() {
                    return fail("only one grid per run");
                }
                grid_name = Some(name);
            }
        }
        i += 1;
    }
    let scenarios = match load_scenarios(grid_name, file) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let pool = TcpPool::default();
    let selected = select_workers(&pool, workers);
    if selected.is_empty() {
        return fail(&format!(
            "none of the {} configured workers is reachable",
            workers.len()
        ));
    }
    if !quiet {
        println!(
            "fan-out over {} of {} workers: {}",
            selected.len(),
            workers.len(),
            selected.join(", ")
        );
    }
    let start = Instant::now();
    // A one-shot run serves no scrapes; its registry is thrown away.
    let metrics = Registry::default();
    let result = fan_out(
        &pool,
        &selected,
        &id,
        &scenarios,
        force,
        &metrics,
        &|_, cell, _| {
            if !quiet {
                println!("  cell {} {}", cell.id, status_word(cell.status));
            }
        },
    );
    let outcome = match result {
        FanoutResult::AllBusy { retry_after_ms } => {
            eprintln!("error: every worker is busy (retry after {retry_after_ms} ms)");
            return ExitCode::from(EXIT_BUSY);
        }
        FanoutResult::Ran(outcome) => outcome,
    };
    let report = report_from_outcomes(
        &scenarios,
        &outcome.cells,
        start.elapsed().as_millis() as u64,
    );
    if !outcome.dead.is_empty() {
        eprintln!(
            "warning: lost {} worker(s) mid-run ({}); unfinished shards were requeued \
             over {} round(s)",
            outcome.dead.len(),
            outcome.dead.join(", "),
            outcome.rounds
        );
    }
    println!("{}", report.cache_summary());
    for (cell_id, e) in report.errors() {
        eprintln!("error: {cell_id}: {e}");
    }
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(path, report.canonical_json()) {
            return fail(&format!("cannot write report {path}: {e}"));
        }
        if !quiet {
            println!("canonical report written to {path}");
        }
    }
    if report.errors().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn status_word(status: CellStatus) -> &'static str {
    match status {
        CellStatus::Hit => "hit",
        CellStatus::Computed => "computed",
        CellStatus::Failed => "failed",
    }
}

/// Where `sweep loadgen` reads and appends its trajectory by default.
fn default_loadgen_history() -> String {
    root::results_dir()
        .join("loadgen_history.json")
        .to_string_lossy()
        .into_owned()
}

/// Parses `10s`, `500ms`, `2m`, or a bare number of seconds.
fn parse_duration(text: &str) -> Result<Duration, String> {
    let (digits, scale) = if let Some(t) = text.strip_suffix("ms") {
        (t, 0.001)
    } else if let Some(t) = text.strip_suffix('s') {
        (t, 1.0)
    } else if let Some(t) = text.strip_suffix('m') {
        (t, 60.0)
    } else {
        (text, 1.0)
    };
    digits
        .parse::<f64>()
        .ok()
        .filter(|v| *v > 0.0 && v.is_finite())
        .map(|v| Duration::from_secs_f64(v * scale))
        .ok_or_else(|| format!("unparseable duration `{text}` (try 10s, 500ms, 2m)"))
}

/// `sweep loadgen …` — drive, render, or gate the open-loop latency
/// trajectory. A leading flag means an implicit `run`.
fn loadgen_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("run") => loadgen_run(&args[1..]),
        Some("report") => loadgen_report(&args[1..]),
        Some("gate") => loadgen_gate(&args[1..]),
        Some(flag) if flag.starts_with("--") => loadgen_run(args),
        _ => fail("loadgen needs an action: run (or its flags directly), report, or gate"),
    }
}

fn loadgen_run(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut target = "serve".to_owned();
    let mut rate = 50.0f64;
    let mut duration = Duration::from_secs(10);
    let mut connections = 4usize;
    let mut mix_spec = "fig9a".to_owned();
    let mut arrivals = loadgen::ArrivalKind::Poisson;
    let mut seed = 0x10ad_u64;
    let mut deadline_ms: Option<u64> = None;
    let mut out = Some(default_loadgen_history());
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
            "--target" => {
                i += 1;
                match args.get(i) {
                    Some(t) => target = t.clone(),
                    None => return fail("--target needs a label (serve, coordinator, cluster)"),
                }
            }
            "--rate" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(r) if r > 0.0 && r.is_finite() => rate = r,
                    _ => return fail("--rate needs a positive requests/s"),
                }
            }
            "--duration" => {
                i += 1;
                match args.get(i).map(|v| parse_duration(v)) {
                    Some(Ok(d)) => duration = d,
                    Some(Err(e)) => return fail(&e),
                    None => return fail("--duration needs a value (e.g. 10s)"),
                }
            }
            "--connections" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => connections = n,
                    _ => return fail("--connections needs a positive integer"),
                }
            }
            "--mix" => {
                i += 1;
                match args.get(i) {
                    Some(m) => mix_spec = m.clone(),
                    None => return fail("--mix needs a spec (e.g. fig9a=9,fig10:v1=1)"),
                }
            }
            "--arrivals" => {
                i += 1;
                match args.get(i).map(|v| loadgen::ArrivalKind::parse(v)) {
                    Some(Ok(kind)) => arrivals = kind,
                    Some(Err(e)) => return fail(&e),
                    None => return fail("--arrivals needs fixed, poisson, or burstN"),
                }
            }
            "--burst" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => arrivals = loadgen::ArrivalKind::Bursty { burst: n },
                    _ => return fail("--burst needs a positive integer"),
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(s) => seed = s,
                    None => return fail("--seed needs an integer"),
                }
            }
            "--deadline-ms" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => deadline_ms = Some(ms),
                    _ => return fail("--deadline-ms needs a positive integer"),
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = Some(path.clone()),
                    None => return fail("--out needs a path"),
                }
            }
            "--no-out" => out = None,
            other => return fail(&format!("unknown loadgen flag `{other}`")),
        }
        i += 1;
    }
    let mix = match loadgen::Mix::parse(&mix_spec) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };

    // Prime every warm entry's grid once, so "warm" measures the memo
    // path instead of one accidental first-compute outlier per grid.
    let warm_grids: Vec<&loadgen::MixEntry> = {
        let mut seen: Vec<&str> = Vec::new();
        mix.entries()
            .iter()
            .filter(|e| !e.cold)
            .filter(|e| {
                let fresh = !seen.contains(&e.grid.as_str());
                if fresh {
                    seen.push(&e.grid);
                }
                fresh
            })
            .collect()
    };
    if !warm_grids.is_empty() {
        let mut primer = match connect(&addr) {
            Ok(c) => c,
            Err(e) => return fail(&e),
        };
        for entry in warm_grids {
            let request =
                EvalRequest::streaming(format!("lg-prime-{}", entry.grid), entry.scenarios.clone());
            match primer.eval_streaming(request, |_, _| {}) {
                Ok(StreamOutcome::Done { .. }) => {}
                Ok(StreamOutcome::Busy { retry_after_ms }) => {
                    return fail(&format!(
                        "server busy priming `{}` (retry after {retry_after_ms} ms) — \
                         loadgen needs an idle server to start from",
                        entry.grid
                    ));
                }
                Err(e) => return fail(&format!("prime of `{}` failed: {e}", entry.grid)),
            }
        }
    }

    let plan = loadgen::schedule(arrivals, rate, duration, seed);
    if plan.is_empty() {
        return fail("rate × duration offers zero arrivals — raise one of them");
    }
    let assignment = mix.assign(plan.len(), seed);
    let mut issuers: Vec<Box<dyn loadgen::Issuer>> = Vec::with_capacity(connections);
    for _ in 0..connections {
        match loadgen::TcpIssuer::connect(&addr, deadline_ms) {
            Ok(issuer) => issuers.push(Box::new(issuer)),
            Err(e) => return fail(&format!("cannot connect to {addr}: {e}")),
        }
    }
    println!(
        "loadgen {target}: {} arrivals ({} at {rate:.0}/s over {:.1}s) on {connections} \
         connection(s), mix {}",
        plan.len(),
        arrivals.label(),
        duration.as_secs_f64(),
        mix.label()
    );
    let summary = loadgen::run(&plan, &assignment, mix.entries(), issuers, duration);
    let shape = loadgen::RunShape {
        target: target.clone(),
        mix: mix.label(),
        arrivals: arrivals.label(),
        rate,
        duration,
        connections,
    };
    let record = loadgen::LoadgenRecord::from_summary(
        &summary,
        &shape,
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    );
    println!(
        "  offered {:.1}/s, achieved {:.1}/s ({} sent: {} ok, {} busy, {} errors; \
         busy rate {:.1}%)",
        record.rate,
        record.achieved_rps,
        record.sent,
        record.completed,
        record.busy,
        record.errors,
        record.busy_rate * 100.0
    );
    println!(
        "  latency p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms, \
         max {:.2} ms (mean {:.2} ms)",
        record.p50_ms, record.p90_ms, record.p99_ms, record.p999_ms, record.max_ms, record.mean_ms
    );
    if summary.entries.len() > 1 {
        for entry in &summary.entries {
            println!(
                "    {}: {} sent ({} ok, {} busy, {} err), p50 {:.2} ms, p99 {:.2} ms",
                entry.label,
                entry.sent,
                entry.completed,
                entry.busy,
                entry.errors,
                entry.latency.quantile_ms(0.50),
                entry.latency.quantile_ms(0.99)
            );
        }
    }
    if let Some(path) = out {
        match loadgen::append_history(&path, record) {
            Ok(total) => println!("  appended to {path} ({total} runs)"),
            Err(e) => return fail(&e),
        }
    }
    if summary.errors > 0 {
        eprintln!("error: {} request(s) failed outright", summary.errors);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn loadgen_report(args: &[String]) -> ExitCode {
    let mut path = default_loadgen_history();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => path = p.clone(),
                    None => return fail("--out needs a path"),
                }
            }
            other => return fail(&format!("unknown report flag `{other}`")),
        }
        i += 1;
    }
    let runs = match loadgen::read_history(&path) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    if runs.is_empty() {
        println!("no loadgen history at {path} yet — run `sweep loadgen` first");
        return ExitCode::SUCCESS;
    }
    print!("{}", loadgen::render_table(&runs));
    ExitCode::SUCCESS
}

fn loadgen_gate(args: &[String]) -> ExitCode {
    let mut path = default_loadgen_history();
    let mut factor = 2.0f64;
    let mut max_p99_ms: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => path = p.clone(),
                    None => return fail("--out needs a path"),
                }
            }
            "--factor" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(f) if f >= 1.0 => factor = f,
                    _ => return fail("--factor needs a number ≥ 1.0"),
                }
            }
            "--max-p99-ms" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(ms) if ms > 0.0 => max_p99_ms = Some(ms),
                    _ => return fail("--max-p99-ms needs a positive number"),
                }
            }
            other => return fail(&format!("unknown gate flag `{other}`")),
        }
        i += 1;
    }
    let runs = match loadgen::read_history(&path) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    match loadgen::gate(&runs, factor, max_p99_ms) {
        Ok(verdicts) => {
            for v in verdicts {
                println!("ok: {v}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: loadgen gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `sweep trace …` — aggregate the span files a `--trace-dir` server
/// wrote.
fn trace_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("report") => trace_report(&args[1..]),
        _ => fail("trace needs an action: report"),
    }
}

fn trace_report(args: &[String]) -> ExitCode {
    let mut dir = root::results_dir().join("telemetry");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => dir = p.into(),
                    None => return fail("--dir needs a path"),
                }
            }
            other => return fail(&format!("unknown trace report flag `{other}`")),
        }
        i += 1;
    }
    let spans = match yoco_sweep::telemetry::trace::read_spans(&dir) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    if spans.is_empty() {
        println!(
            "no span records under {} — start the server with --trace-dir and send traffic",
            dir.display()
        );
        return ExitCode::SUCCESS;
    }
    print!(
        "{}",
        yoco_sweep::telemetry::trace::render_stage_table(&spans)
    );
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("results root: {}", root::results_dir().display());
    eprintln!("{}", usage());
    ExitCode::FAILURE
}
