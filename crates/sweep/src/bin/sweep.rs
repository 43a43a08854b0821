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
use yoco_sweep::cli::{positive, Args};
use yoco_sweep::telemetry::trace;
use yoco_sweep::{
    grids, loadgen, root, Engine, GcBudget, ResultCache, Scenario, ServeClient, Shard,
    StreamOutcome, StudyId,
};

/// Exit code of `sweep client` when the server answers `Busy`: distinct
/// from evaluation failures (1) so scripts can back off and retry.
const EXIT_BUSY: u8 = 3;

/// A subcommand's exit code, or the error `main` prints above the usage.
type Outcome = Result<ExitCode, String>;

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
     [--id ID] [--raw] [--quiet] [--no-retry]\n  \
     sweep loadgen [run] [--addr HOST:PORT] [--rate R] [--duration D]\n                \
     [--connections N] [--mix SPEC] [--arrivals fixed|poisson|burstN]\n                \
     [--target NAME] [--seed N] [--deadline-ms N]\n                \
     [--out <path>] [--no-out]\n  \
     sweep loadgen report [--out <path>]\n  \
     sweep loadgen gate [--out <path>] [--factor F] [--max-p99-ms MS]\n  \
     sweep client metrics [--addr HOST:PORT] [--raw]\n  \
     sweep client status --watch SECS [--raw]     # re-probe until q/EOF\n  \
     sweep trace report [--dir <path>]            # aggregate span files\n\n\
     run `sweep list` for the available grids; `client run` exits 3 when\n  \
     the server rejects the request with Busy"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run(&args[1..]),
        Some("cache") => cache_cmd(&args[1..]),
        Some("client") => client_cmd(&args[1..]),
        Some("loadgen") => loadgen_cmd(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    outcome.unwrap_or_else(|e| fail(&e))
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

fn run(args: &[String]) -> Outcome {
    let mut grid_name: Option<&str> = None;
    let mut file: Option<&str> = None;
    let mut report_path: Option<&str> = None;
    let mut shard: Option<Shard> = None;
    let mut engine = Engine::cached();
    let mut quiet = false;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--file" => file = Some(args.value(arg, "a path")?),
            "--report" => report_path = Some(args.value(arg, "a path")?),
            "--shard" => {
                let text = args.value(arg, "a descriptor like 2/4")?;
                shard = Some(Shard::parse(text).map_err(|e| e.to_string())?);
            }
            "--jobs" => engine = engine.jobs(args.parse(arg, "a positive integer", positive)?),
            "--serial" => engine = engine.jobs(1),
            "--no-cache" => engine = engine.no_cache(),
            "--force" => engine = engine.force(true),
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ if grid_name.is_some() => return Err("only one grid per run".into()),
            name => grid_name = Some(name),
        }
    }

    let scenarios = load_scenarios(grid_name, file)?;
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
        std::fs::write(path, report.canonical_json())
            .map_err(|e| format!("cannot write report {path}: {e}"))?;
        if !quiet {
            println!("canonical report written to {path}");
        }
    }
    Ok(if report.errors().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
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

/// A byte count written `N`, `Nk`, `Nm`, or `Ng` (case-insensitive).
/// Overflowing `u64` is a parse error, not a wrapped-around tiny budget.
struct Bytes(u64);

impl std::str::FromStr for Bytes {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        let lower = text.to_ascii_lowercase();
        let (digits, unit) = match lower.strip_suffix(['k', 'm', 'g']) {
            Some(d) => (d, lower.as_bytes()[lower.len() - 1]),
            None => (lower.as_str(), b'b'),
        };
        let n: u64 = digits.parse().map_err(|_| ())?;
        let scale: u64 = match unit {
            b'k' => 1 << 10,
            b'm' => 1 << 20,
            b'g' => 1 << 30,
            _ => 1,
        };
        n.checked_mul(scale).map(Bytes).ok_or(())
    }
}

fn cache_cmd(args: &[String]) -> Outcome {
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
        }
        Some("clear") => {
            let n = cache.clear().map_err(|e| format!("clear failed: {e}"))?;
            println!("removed {n} entries from {}", cache.dir().display());
        }
        Some("gc") => {
            let mut budget = GcBudget::default();
            let mut args = Args::new(&args[1..]);
            while let Some(arg) = args.next() {
                match arg {
                    "--max-age-days" => {
                        let what = "a non-negative number";
                        let days: f64 = args.parse(arg, what, |_| true)?;
                        let age = Duration::try_from_secs_f64(days * 86_400.0);
                        budget.max_age = Some(age.map_err(|_| format!("{arg} needs {what}"))?);
                    }
                    "--max-bytes" => {
                        let Bytes(n) = args.parse(arg, "a size like 1048576 or 64m", |_| true)?;
                        budget.max_bytes = Some(n);
                    }
                    other => return Err(format!("unknown cache gc flag `{other}`")),
                }
            }
            if budget.max_age.is_none() && budget.max_bytes.is_none() {
                return Err("cache gc needs --max-age-days and/or --max-bytes".into());
            }
            let o = cache.gc(&budget).map_err(|e| format!("gc failed: {e}"))?;
            println!(
                "gc {}: scanned {}, removed {} ({} KiB freed), kept {} ({} KiB)",
                cache.dir().display(),
                o.scanned,
                o.removed,
                o.freed_bytes / 1024,
                o.kept,
                o.kept_bytes / 1024
            );
        }
        Some(other) => return Err(format!("unknown cache subcommand `{other}`")),
    }
    Ok(ExitCode::SUCCESS)
}

/// Default server address, matching `yoco-serve`'s default bind.
const DEFAULT_ADDR: &str = "127.0.0.1:7177";

/// Pulls `--addr HOST:PORT` out of a flag list, wherever it stands,
/// returning the address and the remaining arguments.
fn take_addr(args: &[String]) -> Result<(&str, Vec<String>), String> {
    let mut addr = DEFAULT_ADDR;
    let mut rest = Vec::new();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--addr" => addr = args.value(arg, "HOST:PORT")?,
            other => rest.push(other.to_owned()),
        }
    }
    Ok((addr, rest))
}

fn connect(addr: &str) -> Result<ServeClient, String> {
    ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// `sweep client …` — drive a running `yoco-serve` over the versioned
/// NDJSON protocol (v2 streamed by default, `--v1` for the buffered
/// compatibility path).
fn client_cmd(args: &[String]) -> Outcome {
    let action = args.first().map(String::as_str);
    let (addr, rest) = take_addr(args.get(1..).unwrap_or(&[]))?;
    match action {
        Some(action @ ("ping" | "shutdown")) if !rest.is_empty() => {
            return Err(format!("unknown {action} flag `{}`", rest[0]));
        }
        Some("ping") => {
            connect(addr)?
                .ping()
                .map_err(|e| format!("ping failed: {e}"))?;
            println!("pong from {addr}");
        }
        Some("shutdown") => {
            connect(addr)?
                .shutdown()
                .map_err(|e| format!("shutdown failed: {e}"))?;
            println!("bye from {addr}");
        }
        Some("status") => client_status(addr, &rest)?,
        Some("metrics") => client_metrics(addr, &rest)?,
        Some("run") => return client_run(addr, &rest),
        _ => return Err("client needs an action: ping, status, metrics, shutdown, or run".into()),
    }
    Ok(ExitCode::SUCCESS)
}

/// One human-readable line per [`StatusReport`] for `sweep client status`.
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

fn client_status(addr: &str, args: &[String]) -> Result<(), String> {
    let mut raw = false;
    let mut watch: Option<Duration> = None;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--raw" => raw = true,
            "--watch" => {
                let what = "a positive number of seconds";
                let period = Duration::try_from_secs_f64(args.parse(arg, what, positive)?);
                watch = Some(period.map_err(|_| format!("{arg} needs {what}"))?);
            }
            other => return Err(format!("unknown status flag `{other}`")),
        }
    }
    if let Some(period) = watch {
        client_status_watch(addr, raw, period);
        return Ok(());
    }
    render_status_once(addr, &mut connect(addr)?, raw)
}

/// One probe, rendered: the raw NDJSON `Status` line or the
/// human-readable summary.
fn render_status_once(addr: &str, client: &mut ServeClient, raw: bool) -> Result<(), String> {
    let failed = |e| format!("status failed: {e}");
    if !raw {
        let report = client.status().map_err(failed)?;
        println!("{addr}: {}", status_line(&report));
        return Ok(());
    }
    client.send(&Request::Status).map_err(failed)?;
    match client.recv().map_err(failed)? {
        (line, Response::Status(_)) => println!("{line}"),
        (line, _) => return Err(format!("expected Status, got {line}")),
    }
    Ok(())
}

/// `sweep client status --watch <secs>`: re-probe on a fixed period
/// until stdin closes (EOF) or a line starting with `q` arrives — both
/// exit 0. Ctrl-C terminates through the default SIGINT disposition,
/// which is equally clean since the terminal is never put in raw mode.
/// Each probe opens a fresh connection so a server restart mid-watch
/// shows up as one failed line, not a dead loop.
fn client_status_watch(addr: &str, raw: bool, period: Duration) {
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
        if let Err(e) = connect(addr).and_then(|mut c| render_status_once(addr, &mut c, raw)) {
            eprintln!("{e}");
        }
        // Sleep in short slices so `q`/EOF exits promptly, not after a
        // full period. (Elapsed time, not a deadline: `now + period`
        // overflows an `Instant` for a period like 1e19 s.)
        let asleep = Instant::now();
        while asleep.elapsed() < period && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(50));
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
    }
}

fn client_metrics(addr: &str, args: &[String]) -> Result<(), String> {
    let mut raw = false;
    for arg in Args::new(args) {
        match arg {
            "--raw" => raw = true,
            other => return Err(format!("unknown metrics flag `{other}`")),
        }
    }
    let (line, report) = connect(addr)?
        .metrics()
        .map_err(|e| format!("metrics failed: {e}"))?;
    if raw {
        println!("{line}");
    } else {
        print!("{}", report.render_prometheus());
    }
    Ok(())
}

fn client_run(addr: &str, args: &[String]) -> Outcome {
    let mut grid_name: Option<&str> = None;
    let mut file: Option<&str> = None;
    let mut v1 = false;
    let mut force = false;
    let mut raw = false;
    let mut quiet = false;
    let mut no_retry = false;
    let mut id = "client";
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--file" => file = Some(args.value(arg, "a path")?),
            "--id" => id = args.value(arg, "a value")?,
            "--v1" => v1 = true,
            "--force" => force = true,
            "--raw" => raw = true,
            "--quiet" => quiet = true,
            "--no-retry" => no_retry = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ if grid_name.is_some() => return Err("only one grid per run".into()),
            name => grid_name = Some(name),
        }
    }
    let scenarios = load_scenarios(grid_name, file)?;
    let mut request = if v1 {
        EvalRequest::new(id, scenarios)
    } else {
        EvalRequest::streaming(id, scenarios)
    };
    request.force = force;

    let mut client = connect(addr)?;
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
        let (raw_line, response) = client
            .eval_buffered_with_retry(request, &policy)
            .map_err(|e| format!("exchange failed: {e}"))?;
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
            return Ok(if error.category() == "busy" {
                ExitCode::from(EXIT_BUSY)
            } else {
                ExitCode::FAILURE
            });
        }
        if !raw {
            println!(
                "done {} cells: {} hits, {} misses",
                response.cells.len(),
                response.hits,
                response.misses
            );
        }
        Ok(if response.is_ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
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
        match outcome.map_err(|e| format!("exchange failed: {e}"))? {
            StreamOutcome::Done {
                position,
                cells,
                hits,
                misses,
            } => {
                if !raw {
                    println!(
                        "done {cells} cells: {hits} hits, {misses} misses (position {position})"
                    );
                }
                if failed == 0 {
                    Ok(ExitCode::SUCCESS)
                } else {
                    eprintln!("error: {failed} cells failed");
                    Ok(ExitCode::FAILURE)
                }
            }
            StreamOutcome::Busy { retry_after_ms } => {
                if !raw {
                    println!("busy retry_after_ms={retry_after_ms}");
                }
                Ok(ExitCode::from(EXIT_BUSY))
            }
        }
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
        .filter(|v| *v > 0.0)
        .and_then(|v| Duration::try_from_secs_f64(v * scale).ok())
        .ok_or_else(|| format!("unparseable duration `{text}` (try 10s, 500ms, 2m)"))
}

/// `sweep loadgen …` — drive, render, or gate the open-loop latency
/// trajectory. A leading flag means an implicit `run`.
fn loadgen_cmd(args: &[String]) -> Outcome {
    match args.first().map(String::as_str) {
        Some("run") => loadgen_run(&args[1..]),
        Some("report") => loadgen_report(&args[1..]),
        Some("gate") => loadgen_gate(&args[1..]),
        Some(flag) if flag.starts_with("--") => loadgen_run(args),
        _ => Err("loadgen needs an action: run (or its flags directly), report, or gate".into()),
    }
}

/// The most arrivals one `loadgen` run schedules: about 0.5 GiB of
/// offsets, assignments and samples, and ~7,800 times the largest run CI
/// makes (1,280 arrivals).
const MAX_ARRIVALS: usize = 10_000_000;

fn loadgen_run(args: &[String]) -> Outcome {
    let mut addr = DEFAULT_ADDR;
    let mut target = "serve";
    let mut rate = 50.0f64;
    let mut duration = Duration::from_secs(10);
    let mut connections = 4usize;
    let mut mix_spec = "fig9a";
    let mut arrivals = loadgen::ArrivalKind::Poisson;
    let mut seed = 0x10ad_u64;
    let mut deadline_ms: Option<u64> = None;
    let mut out = Some(default_loadgen_history());
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--addr" => addr = args.value(arg, "HOST:PORT")?,
            "--target" => target = args.value(arg, "a label (serve, coordinator, cluster)")?,
            "--rate" => {
                rate = args.parse(arg, "a positive requests/s", |r: &f64| {
                    *r > 0.0 && r.is_finite()
                })?;
            }
            "--duration" => duration = parse_duration(args.value(arg, "a value (e.g. 10s)")?)?,
            "--connections" => connections = args.parse(arg, "a positive integer", positive)?,
            "--mix" => mix_spec = args.value(arg, "a spec (e.g. fig9a=9,fig10:v1=1)")?,
            "--arrivals" => {
                let kind = args.value(arg, "fixed, poisson, or burstN")?;
                arrivals = loadgen::ArrivalKind::parse(kind)?;
            }
            "--seed" => seed = args.parse(arg, "an integer", |_| true)?,
            "--deadline-ms" => {
                deadline_ms = Some(args.parse(arg, "a positive integer", positive)?)
            }
            "--out" => out = Some(args.value(arg, "a path")?.to_owned()),
            "--no-out" => out = None,
            other => return Err(format!("unknown loadgen flag `{other}`")),
        }
    }
    // Refused before the schedule, whose offsets alone take 16 bytes an
    // arrival, is allocated.
    match loadgen::offered_count(rate, duration) {
        0 => return Err("rate × duration offers zero arrivals — raise one of them".into()),
        n if n > MAX_ARRIVALS => {
            return Err(format!(
                "rate × duration offers {n} arrivals, over the {MAX_ARRIVALS} a run may \
                 hold — lower one of them"
            ));
        }
        _ => {}
    }
    let mix = loadgen::Mix::parse(mix_spec)?;

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
        let mut primer = connect(addr)?;
        for entry in warm_grids {
            let request =
                EvalRequest::streaming(format!("lg-prime-{}", entry.grid), entry.scenarios.clone());
            match primer.eval_streaming(request, |_, _| {}) {
                Ok(StreamOutcome::Done { .. }) => {}
                Ok(StreamOutcome::Busy { retry_after_ms }) => {
                    return Err(format!(
                        "server busy priming `{}` (retry after {retry_after_ms} ms) — \
                         loadgen needs an idle server to start from",
                        entry.grid
                    ));
                }
                Err(e) => return Err(format!("prime of `{}` failed: {e}", entry.grid)),
            }
        }
    }

    let plan = loadgen::schedule(arrivals, rate, duration, seed);
    let assignment = mix.assign(plan.len(), seed);
    let mut issuers: Vec<Box<dyn loadgen::Issuer>> = Vec::with_capacity(connections);
    for _ in 0..connections {
        let issuer = loadgen::TcpIssuer::connect(addr, deadline_ms)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        issuers.push(Box::new(issuer));
    }
    println!(
        "loadgen {target}: {} arrivals ({} at {rate:.0}/s over {:.1}s) on {connections} \
         connection(s), mix {}",
        plan.len(),
        arrivals.label(),
        duration.as_secs_f64(),
        mix.label()
    );
    let record = loadgen::LoadgenRecord {
        target: target.to_owned(),
        mix: mix.label(),
        arrivals: arrivals.label(),
        rate,
        recorded_at_unix_s: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        ..loadgen::run(&plan, &assignment, mix.entries(), issuers, duration)
    };
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
    if record.entries.len() > 1 {
        for entry in &record.entries {
            println!(
                "    {}: {} sent ({} ok, {} busy, {} err), p50 {:.2} ms, p99 {:.2} ms",
                entry.label,
                entry.sent,
                entry.completed,
                entry.busy,
                entry.errors,
                entry.p50_ms,
                entry.p99_ms
            );
        }
    }
    let errors = record.errors;
    if let Some(path) = out {
        let total = loadgen::append_history(&path, record)?;
        println!("  appended to {path} ({total} runs)");
    }
    if errors > 0 {
        eprintln!("error: {errors} request(s) failed outright");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn loadgen_report(args: &[String]) -> Outcome {
    let mut path = default_loadgen_history();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--out" => path = args.value(arg, "a path")?.to_owned(),
            other => return Err(format!("unknown report flag `{other}`")),
        }
    }
    let runs = loadgen::read_history(&path)?;
    if runs.is_empty() {
        println!("no loadgen history at {path} yet — run `sweep loadgen` first");
    } else {
        print!("{}", loadgen::render_table(&runs));
    }
    Ok(ExitCode::SUCCESS)
}

fn loadgen_gate(args: &[String]) -> Outcome {
    let mut path = default_loadgen_history();
    let mut factor = 2.0f64;
    let mut max_p99_ms: Option<f64> = None;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--out" => path = args.value(arg, "a path")?.to_owned(),
            "--factor" => factor = args.parse(arg, "a number ≥ 1.0", |f| *f >= 1.0)?,
            "--max-p99-ms" => max_p99_ms = Some(args.parse(arg, "a positive number", positive)?),
            other => return Err(format!("unknown gate flag `{other}`")),
        }
    }
    let runs = loadgen::read_history(&path)?;
    match loadgen::gate(&runs, factor, max_p99_ms) {
        Ok(verdicts) => {
            for v in verdicts {
                println!("ok: {v}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("error: loadgen gate failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `sweep trace …` — aggregate the span files a `--trace-dir` server
/// wrote.
fn trace_cmd(args: &[String]) -> Outcome {
    match args.first().map(String::as_str) {
        Some("report") => trace_report(&args[1..]),
        _ => Err("trace needs an action: report".into()),
    }
}

fn trace_report(args: &[String]) -> Outcome {
    let mut dir = root::results_dir().join("telemetry");
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--dir" => dir = args.value(arg, "a path")?.into(),
            other => return Err(format!("unknown trace report flag `{other}`")),
        }
    }
    let spans = trace::read_spans(&dir)?;
    if spans.is_empty() {
        println!(
            "no span records under {} — start the server with --trace-dir and send traffic",
            dir.display()
        );
    } else {
        print!("{}", trace::render_stage_table(&spans));
    }
    Ok(ExitCode::SUCCESS)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("results root: {}", root::results_dir().display());
    eprintln!("{}", usage());
    ExitCode::FAILURE
}
