//! End-to-end smoke tests of the `yoco-serve` frontend: spawn the real
//! binary, drive the NDJSON protocol over a real socket, and check that
//! hit/miss accounting matches a direct engine run, warm responses are
//! byte-stable, protocol v2 streams `Accepted` → `Cell`… → `Done`,
//! admission control rejects beyond `--queue-depth`, and `Shutdown`
//! drains an in-flight stream instead of cutting it off.
//!
//! Readiness is the server's announce line ("yoco-serve listening on
//! …") — never a sleep.

mod common;

use common::{client, spawn_server, temp_dir};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use yoco_sweep::api::{CellStatus, EvalRequest, Request, Response};
use yoco_sweep::{
    AcceleratorKind, DesignPoint, Engine, ResultCache, Scenario, StreamOutcome, StudyId,
    WorkloadSpec,
};

fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Request,
) -> String {
    let text = serde_json::to_string(request).expect("request serializes");
    writeln!(stream, "{text}").expect("request sends");
    stream.flush().expect("request flushes");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response arrives");
    line
}

fn batch() -> Vec<Scenario> {
    vec![
        Scenario::study(StudyId::Fig9a),
        Scenario::study(StudyId::Table2),
        Scenario::gemm(
            AcceleratorKind::Isaac,
            DesignPoint::paper(),
            WorkloadSpec::Gemm {
                name: "fc".into(),
                m: 8,
                k: 256,
                n: 64,
                kind: yoco_arch::workload::LayerKind::Linear,
            },
        ),
    ]
}

#[test]
fn serve_round_trip_matches_direct_engine_and_is_byte_stable_when_warm() {
    let serve_cache = temp_dir("server");
    let direct_cache = temp_dir("direct");
    let (server, port) = spawn_server(&serve_cache, &[]);

    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Liveness first.
    let pong = exchange(&mut stream, &mut reader, &Request::Ping);
    assert_eq!(
        serde_json::from_str::<Response>(&pong).expect("pong parses"),
        Response::Pong
    );

    // Cold submission: everything is a miss.
    let request = Request::Eval(EvalRequest::new("r-1", batch()));
    let cold_line = exchange(&mut stream, &mut reader, &request);
    let Response::Eval(cold) = serde_json::from_str(&cold_line).expect("cold parses") else {
        panic!("expected an Eval response, got {cold_line}");
    };
    assert!(cold.is_ok(), "{:?}", cold.error);
    assert_eq!(cold.id, "r-1");
    assert_eq!((cold.hits, cold.misses), (0, 3));

    // Warm re-submissions: 100 % hits, byte-identical lines.
    let warm_a = exchange(&mut stream, &mut reader, &request);
    let warm_b = exchange(&mut stream, &mut reader, &request);
    let Response::Eval(warm) = serde_json::from_str(&warm_a).expect("warm parses") else {
        panic!("expected an Eval response, got {warm_a}");
    };
    assert_eq!((warm.hits, warm.misses), (3, 0), "warm cache serves all");
    assert_eq!(warm_a, warm_b, "warm responses must be byte-stable");

    // Payloads are unchanged between cold and warm (only statuses moved).
    for (c, w) in cold.cells.iter().zip(warm.cells.iter()) {
        assert_eq!(c.key, w.key);
        assert_eq!(c.metrics, w.metrics, "{}", c.id);
    }

    // The server's accounting matches a direct engine run on a fresh
    // cache of its own.
    let engine = Engine::ephemeral().with_cache(ResultCache::at(&direct_cache));
    let direct_cold = engine.run(&batch());
    let direct_warm = engine.run(&batch());
    assert_eq!(direct_cold.misses, cold.misses);
    assert_eq!(direct_warm.hits, warm.hits);

    // Clean shutdown: Bye, then process exit 0.
    let bye = exchange(&mut stream, &mut reader, &Request::Shutdown);
    assert_eq!(
        serde_json::from_str::<Response>(&bye).expect("bye parses"),
        Response::Bye
    );
    let status = server.wait();
    assert!(status.success(), "server exit status {status:?}");

    let _ = std::fs::remove_dir_all(serve_cache);
    let _ = std::fs::remove_dir_all(direct_cache);
}

#[test]
fn malformed_lines_get_an_error_response_not_a_hangup() {
    let cache = temp_dir("malformed");
    let (server, port) = spawn_server(&cache, &[]);
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    writeln!(stream, "this is not json").expect("sends");
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response arrives");
    let Response::Error(e) = serde_json::from_str::<Response>(&line).expect("parses") else {
        panic!("expected an Error response, got {line}");
    };
    assert_eq!(e.category(), "schema-mismatch");

    // The connection is still usable afterwards.
    let pong = exchange(&mut stream, &mut reader, &Request::Ping);
    assert_eq!(
        serde_json::from_str::<Response>(&pong).expect("pong parses"),
        Response::Pong
    );
    let bye = exchange(&mut stream, &mut reader, &Request::Shutdown);
    assert_eq!(
        serde_json::from_str::<Response>(&bye).expect("bye parses"),
        Response::Bye
    );
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn v2_streams_accepted_cells_done_and_serves_warm_hits() {
    let cache = temp_dir("stream");
    let (server, port) = spawn_server(&cache, &[]);
    let mut c = client(port);

    // Cold streamed exchange: Accepted first, one Cell per scenario (in
    // completion order — compare as a set), Done last.
    let mut frames: Vec<Response> = Vec::new();
    let outcome = c
        .eval_streaming(EvalRequest::streaming("s-1", batch()), |_, frame| {
            frames.push(frame.clone())
        })
        .expect("cold stream completes");
    assert_eq!(
        outcome,
        StreamOutcome::Done {
            position: 0,
            cells: 3,
            hits: 0,
            misses: 3
        }
    );
    assert_eq!(frames.len(), 5, "accepted + 3 cells + done: {frames:?}");
    assert_eq!(
        frames[0],
        Response::Accepted {
            id: "s-1".into(),
            position: 0
        }
    );
    assert!(matches!(frames[4], Response::Done { .. }));
    let mut cold_cells: Vec<_> = frames[1..4]
        .iter()
        .map(|f| match f {
            Response::Cell(cell) => {
                assert_eq!(cell.status, CellStatus::Computed);
                assert!(cell.metrics.is_some());
                cell.clone()
            }
            other => panic!("expected Cell frames in the middle, got {other:?}"),
        })
        .collect();
    cold_cells.sort_by(|a, b| a.id.cmp(&b.id));
    let mut expected_ids: Vec<String> = batch().iter().map(|s| s.id.clone()).collect();
    expected_ids.sort_unstable();
    let streamed_ids: Vec<&str> = cold_cells.iter().map(|c| c.id.as_str()).collect();
    assert_eq!(
        streamed_ids,
        expected_ids.iter().map(String::as_str).collect::<Vec<_>>()
    );

    // Warm re-submission: every cell a Hit, payloads unchanged.
    let mut warm_frames: Vec<Response> = Vec::new();
    let outcome = c
        .eval_streaming(EvalRequest::streaming("s-2", batch()), |_, frame| {
            warm_frames.push(frame.clone())
        })
        .expect("warm stream completes");
    assert_eq!(
        outcome,
        StreamOutcome::Done {
            position: 0,
            cells: 3,
            hits: 3,
            misses: 0
        }
    );
    let mut warm_cells: Vec<_> = warm_frames
        .iter()
        .filter_map(|f| match f {
            Response::Cell(cell) => Some(cell.clone()),
            _ => None,
        })
        .collect();
    warm_cells.sort_by(|a, b| a.id.cmp(&b.id));
    for (cold, warm) in cold_cells.iter().zip(warm_cells.iter()) {
        assert_eq!(cold.id, warm.id);
        assert_eq!(cold.key, warm.key);
        assert_eq!(warm.status, CellStatus::Hit);
        assert_eq!(cold.metrics, warm.metrics, "{}", cold.id);
    }

    // The same connection still speaks v1 (buffered) afterwards.
    let (_, buffered) = c
        .eval_buffered(EvalRequest::new("v1-after-v2", batch()))
        .expect("buffered exchange works");
    assert_eq!((buffered.hits, buffered.misses), (3, 0));

    c.shutdown().expect("clean shutdown");
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn status_probe_reports_counters_over_the_wire() {
    let cache = temp_dir("status");
    let (server, port) = spawn_server(&cache, &[]);
    let mut c = client(port);

    let idle = c.status().expect("status answers");
    assert_eq!(idle.role, "serve");
    assert_eq!(idle.workers, 0);
    assert_eq!((idle.served, idle.cells, idle.rejected), (0, 0, 0));
    assert_eq!(idle.occupancy, 0);
    assert!(idle.queue_depth > 0);
    assert_eq!(idle.jobs, 2, "--jobs 2 is what the harness passes");

    // One streamed batch moves the counters.
    let outcome = c
        .eval_streaming(EvalRequest::streaming("st-1", batch()), |_, _| {})
        .expect("stream completes");
    assert!(matches!(outcome, StreamOutcome::Done { .. }));
    let after = c.status().expect("status after a batch");
    assert_eq!(after.served, 1);
    assert_eq!(after.cells, 3);
    assert_eq!(after.misses, 3, "cold batch: all computed");
    assert_eq!(after.occupancy, 0, "probe taken at idle");

    c.shutdown().expect("clean shutdown");
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn queue_full_rejects_and_shutdown_drains_an_inflight_stream() {
    let cache = temp_dir("busy");
    // One admission slot: the heavy stream below owns it for seconds.
    let (server, port) = spawn_server(&cache, &["--queue-depth", "1"]);

    // Connection A: a forced streamed batch anchored by the fig6d
    // Monte-Carlo study (seconds of compute), admitted first.
    let mut a = client(port);
    let mut heavy = EvalRequest::streaming(
        "heavy",
        vec![
            Scenario::study(StudyId::Fig6d),
            Scenario::study(StudyId::Fig9a),
        ],
    );
    heavy.force = true;
    a.send(&Request::Eval(heavy)).expect("heavy request sends");
    let (_, first) = a.recv().expect("first frame arrives");
    assert_eq!(
        first,
        Response::Accepted {
            id: "heavy".into(),
            position: 0
        },
        "the heavy stream holds the only slot from here on"
    );

    // Connection B, while A computes: v2 gets a Busy frame…
    let mut b = client(port);
    let tiny = || vec![Scenario::study(StudyId::Table2)];
    let outcome = b
        .eval_streaming(EvalRequest::streaming("tiny-v2", tiny()), |_, _| {})
        .expect("exchange completes");
    let StreamOutcome::Busy { retry_after_ms } = outcome else {
        panic!("expected Busy beyond --queue-depth 1, got {outcome:?}");
    };
    assert!(retry_after_ms > 0, "hint must be actionable");

    // …and v1 gets a typed refusal, not a hang.
    let (_, refusal) = b
        .eval_buffered(EvalRequest::new("tiny-v1", tiny()))
        .expect("refusal arrives");
    assert!(refusal.cells.is_empty());
    assert_eq!(refusal.error.as_ref().unwrap().category(), "busy");

    // B asks the server to shut down while A is still mid-stream.
    b.shutdown().expect("bye mid-stream");

    // A's stream must drain: both Cell frames, then Done.
    let mut cells = 0;
    loop {
        match a.recv().expect("stream keeps flowing during drain") {
            (_, Response::Cell(cell)) => {
                assert_eq!(cell.status, CellStatus::Computed, "forced: never a hit");
                cells += 1;
            }
            (_, Response::Done { id, hits, misses }) => {
                assert_eq!(id, "heavy");
                assert_eq!((hits, misses), (0, 2));
                break;
            }
            (raw, other) => panic!("unexpected frame {other:?} ({raw})"),
        }
    }
    assert_eq!(cells, 2);

    // Only after the drain does the process exit, cleanly.
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(cache);
}
