//! End-to-end telemetry tests against the real `yoco-serve` binary:
//! the `Metrics` scrape counts exactly the requests a client sent (with
//! live histograms behind it), a traced request's per-stage span
//! durations sum to no more than its wall time, and tracing never
//! changes warm-response bytes.
//!
//! Each test spawns its own server process, whose registry starts from
//! zero, so counter assertions are absolute.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use yoco_sweep::api::EvalRequest;
use yoco_sweep::telemetry::trace;
use yoco_sweep::{Scenario, ServeClient, StreamOutcome, StudyId};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yoco-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spawned `yoco-serve`, killed on drop so a failing test cannot
/// leak a server.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

fn spawn_server(cache_dir: &Path, extra: &[&str]) -> (Server, u16) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_yoco-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--cache-dir",
            cache_dir.to_str().expect("utf-8 temp path"),
            "--jobs",
            "2",
            "--quiet",
        ])
        .args(extra)
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

fn client(port: u16) -> ServeClient {
    let mut client = ServeClient::connect(&format!("127.0.0.1:{port}")).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    client
}

fn batch() -> Vec<Scenario> {
    vec![
        Scenario::study(StudyId::Fig9a),
        Scenario::study(StudyId::Table2),
    ]
}

#[test]
fn metrics_scrape_counts_exactly_the_requests_sent() {
    let cache = temp_dir("scrape-cache");
    let (_server, port) = spawn_server(&cache, &[]);
    let mut c = client(port);

    // A fresh process: every counter starts at zero.
    let (_, idle) = c.metrics().expect("idle scrape answers");
    assert_eq!(idle.schema, "yoco-metrics/v1");
    assert_eq!(idle.counter("requests_total"), Some(0));
    assert_eq!(idle.hist("queue_wait_us").map(|h| h.count), Some(0));

    // A mixed workload: one cold v2 stream, one warm v2 stream, two
    // warm v1 exchanges — four evaluation requests in total. Control
    // frames (Ping/Status/Metrics) must not count.
    let sent = 4u64;
    let outcome = c
        .eval_streaming(EvalRequest::streaming("t-1", batch()), |_, _| {})
        .expect("cold stream completes");
    assert!(matches!(outcome, StreamOutcome::Done { .. }));
    let outcome = c
        .eval_streaming(EvalRequest::streaming("t-2", batch()), |_, _| {})
        .expect("warm stream completes");
    assert!(matches!(outcome, StreamOutcome::Done { .. }));
    for id in ["t-3", "t-4"] {
        let (_, resp) = c
            .eval_buffered(EvalRequest::new(id, batch()))
            .expect("buffered exchange completes");
        assert!(resp.is_ok());
    }
    c.ping().expect("ping answers");
    c.status().expect("status answers");

    let (_, report) = c.metrics().expect("scrape answers");
    assert_eq!(
        report.counter("requests_total"),
        Some(sent),
        "every eval request counts exactly once, control frames never"
    );
    assert_eq!(report.counter("cells_total"), Some(4 * 2));
    assert_eq!(report.counter("requests_rejected_total"), Some(0));

    // Histogram-bearing: stage timings observed for the admitted work.
    let queue_wait = report.hist("queue_wait_us").expect("queue_wait_us present");
    assert_eq!(queue_wait.count, sent, "one queue-wait sample per request");
    let eval = report.hist("eval_us").expect("eval_us present");
    assert!(eval.count >= 1, "at least the cold request ran the engine");
    let flush = report.hist("flush_us").expect("flush_us present");
    assert_eq!(flush.count, sent, "every response flushed");
    assert!(flush.quantile_ms(1.0) <= flush.max_us as f64 / 1e3 + 1e-9);

    // The exposition renders those same numbers.
    let prom = report.render_prometheus();
    assert!(prom.contains("yoco_requests_total 4"));
    assert!(prom.contains(&format!("yoco_queue_wait_us_count {sent}")));

    c.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn traced_request_spans_sum_within_wall_time() {
    let cache = temp_dir("trace-cache");
    let trace_dir = temp_dir("trace-spans");
    let (_server, port) = spawn_server(&cache, &["--trace-dir", trace_dir.to_str().unwrap()]);
    let mut c = client(port);

    let started = Instant::now();
    let (_, resp) = c
        .eval_buffered(EvalRequest::new("traced-1", batch()))
        .expect("cold traced exchange completes");
    assert!(resp.is_ok());
    let wall_us = started.elapsed().as_micros() as u64;

    // Spans flush per record, so they are readable while the server
    // still runs.
    let spans = trace::read_spans(&trace_dir).expect("span files parse");
    let mine: Vec<_> = spans.iter().filter(|s| s.id == "traced-1").collect();
    let stages: Vec<&str> = mine.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        stages,
        ["queued", "eval", "flush"],
        "a cold request passes every stage once, in order"
    );
    let span_ids: Vec<&str> = mine.iter().map(|s| s.span.as_str()).collect();
    assert!(
        span_ids.iter().all(|s| *s == span_ids[0]),
        "one span id threads through all stages: {span_ids:?}"
    );
    let stage_sum: u64 = mine.iter().map(|s| s.dur_us).sum();
    assert!(
        stage_sum <= wall_us,
        "stages are disjoint slices of the request: sum {stage_sum} µs \
         must fit in wall {wall_us} µs"
    );
    assert!(mine.iter().all(|s| s.grid == "study/fig9a"));
    assert!(mine.iter().all(|s| s.cells == 2));

    // A warm re-submission replays the memo: queued + flush, no eval.
    let (_, warm) = c
        .eval_buffered(EvalRequest::new("traced-2", batch()))
        .expect("warm traced exchange completes");
    assert!(warm.is_ok());
    let spans = trace::read_spans(&trace_dir).expect("span files re-read");
    let warm_stages: Vec<&str> = spans
        .iter()
        .filter(|s| s.id == "traced-2")
        .map(|s| s.stage.as_str())
        .collect();
    assert_eq!(
        warm_stages,
        ["queued", "flush"],
        "memo-served requests never enter the engine"
    );

    c.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
    let _ = std::fs::remove_dir_all(trace_dir);
}

#[test]
fn tracing_never_changes_warm_response_bytes() {
    let cache = temp_dir("bytediff-cache");
    let trace_dir = temp_dir("bytediff-spans");

    // Warm the shared cache and capture the warm line, tracing off.
    let plain = {
        let (_server, port) = spawn_server(&cache, &[]);
        let mut c = client(port);
        let (_, cold) = c
            .eval_buffered(EvalRequest::new("bd-1", batch()))
            .expect("cold exchange");
        assert!(cold.is_ok());
        let (line, _) = c
            .eval_buffered(EvalRequest::new("bd-1", batch()))
            .expect("warm exchange");
        c.shutdown().expect("clean shutdown");
        line
    };

    // The same warm request against a traced server, same cache.
    let traced = {
        let (_server, port) = spawn_server(&cache, &["--trace-dir", trace_dir.to_str().unwrap()]);
        let mut c = client(port);
        let (_, first) = c
            .eval_buffered(EvalRequest::new("bd-1", batch()))
            .expect("first traced exchange");
        assert_eq!((first.hits, first.misses), (2, 0), "cache carries over");
        let (line, _) = c
            .eval_buffered(EvalRequest::new("bd-1", batch()))
            .expect("warm traced exchange");
        c.shutdown().expect("clean shutdown");
        line
    };

    assert_eq!(
        plain, traced,
        "span ids must never leak into response frames"
    );
    // And the traced server really did trace.
    let spans = trace::read_spans(&trace_dir).expect("span files parse");
    assert!(
        spans.iter().any(|s| s.id == "bd-1"),
        "the traced run wrote span records"
    );

    let _ = std::fs::remove_dir_all(cache);
    let _ = std::fs::remove_dir_all(trace_dir);
}
