//! End-to-end smoke tests of the cluster coordinator: spawn real
//! `yoco-serve` worker processes plus a real coordinator process
//! (`yoco-serve --coordinator`), drive the ordinary NDJSON protocol
//! against the coordinator, and check that
//!
//! * a coordinator + 2-worker run of a named grid emits a canonical
//!   report byte-identical to a single-box run of the same grid;
//! * warm v1 responses through the coordinator are byte-stable;
//! * `Status` probes expose the topology (role, workers, counters);
//! * killing one worker mid-stream requeues its unfinished cells onto
//!   the survivor and the merged stream still completes — with a
//!   canonical report byte-identical to the single-box run. The killed
//!   worker is a scripted stub ([`StubWorker`]), so the kill lands
//!   mid-stream by construction.
//!
//! Readiness is the server's announce line, never a sleep.

mod common;

use common::{client, spawn_coordinator, spawn_server, temp_dir};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use yoco_sweep::api::{CellOutcome, CellStatus, EvalRequest, Request, Response};
use yoco_sweep::cluster::report_from_outcomes;
use yoco_sweep::{grids, Engine, ResultCache, Scenario, StudyId};

/// A scripted worker on a test-local listener. It answers a streamed
/// `Eval` with `Accepted` plus real forced `Cell` frames — evaluated in
/// process — for the first `cells_before_hold` scenarios of its shard.
/// Then it holds the exchange silent until [`StubWorker::kill`]. The
/// coordinator never probes a worker, so any other request is a
/// failure.
struct StubWorker {
    port: u16,
    dead: Arc<AtomicBool>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl StubWorker {
    fn spawn(cells_before_hold: usize) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("stub binds");
        let port = listener.local_addr().expect("stub address").port();
        let dead = Arc::new(AtomicBool::new(false));
        let killed = Arc::clone(&dead);
        let thread = std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                let stream = stream?;
                if killed.load(Ordering::SeqCst) {
                    break;
                }
                held.push(stub_exchange(stream, cells_before_hold)?);
            }
            // The coordinator sees each held exchange drop mid-stream,
            // and the closed listener refuses every later connection.
            for exchange in held {
                exchange.shutdown(Shutdown::Both)?;
            }
            Ok(())
        });
        Self {
            port,
            dead,
            thread: Some(thread),
        }
    }

    /// Wakes the accept loop so it sees the kill, then waits until the
    /// held exchanges are shut down and the listener is closed.
    fn kill(&mut self) {
        self.dead.store(true, Ordering::SeqCst);
        // A stub that already failed refuses the wake; its join says why.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        let thread = self.thread.take().expect("the stub is killed once");
        thread.join().expect("stub thread").expect("stub I/O");
    }
}

/// One connection to a [`StubWorker`]: an `Eval` line in, the scripted
/// frames out. Returns the connection to hold.
fn stub_exchange(stream: TcpStream, cells_before_hold: usize) -> io::Result<TcpStream> {
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line)?;
    let send = |frame: &Response| {
        let text = serde_json::to_string(frame).expect("frames serialize") + "\n";
        (&stream).write_all(text.as_bytes())
    };
    let Request::Eval(request) = serde_json::from_str(&line).expect("stub gets a request line")
    else {
        panic!("stub worker got a request other than Eval: {line}");
    };
    send(&Response::Accepted {
        id: request.id.clone(),
        position: 0,
    })?;
    let head = &request.scenarios[..cells_before_hold.min(request.scenarios.len())];
    for cell in &Engine::ephemeral().run(head).cells {
        send(&Response::Cell(CellOutcome::from_cell(cell)))?;
    }
    Ok(stream)
}

/// Reassembles streamed cell outcomes into scenario order (batch ids
/// are unique in these tests).
fn in_scenario_order(scenarios: &[Scenario], cells: &[CellOutcome]) -> Vec<CellOutcome> {
    scenarios
        .iter()
        .map(|s| {
            cells
                .iter()
                .find(|c| c.id == s.id)
                .unwrap_or_else(|| panic!("no outcome for {}", s.id))
                .clone()
        })
        .collect()
}

#[test]
fn coordinator_with_two_workers_matches_the_single_box_report_byte_for_byte() {
    let caches = [temp_dir("w1"), temp_dir("w2"), temp_dir("solo")];
    let (w1, p1) = spawn_server(&caches[0], &[]);
    let (w2, p2) = spawn_server(&caches[1], &[]);
    let (coord, cport) = spawn_coordinator(&[p1, p2]);

    let scenarios = grids::resolve("fig10").expect("named grid");
    let mut c = client(cport);

    // Cold buffered (v1) run through the coordinator.
    let (_, cold) = c
        .eval_buffered(EvalRequest::new("e2e-cold", scenarios.clone()))
        .expect("cold exchange completes");
    assert!(cold.is_ok(), "{:?}", cold.error);
    assert_eq!((cold.hits, cold.misses), (0, 5), "cold cluster: all misses");
    assert_eq!(cold.cells.len(), scenarios.len());
    let ids: Vec<&str> = cold.cells.iter().map(|c| c.id.as_str()).collect();
    let expected: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
    assert_eq!(ids, expected, "buffered cells arrive in request order");

    // The merged cluster report is byte-identical to a single-box run.
    let cluster_report = report_from_outcomes(&scenarios, &cold.cells, 0);
    let solo_report = Engine::ephemeral()
        .with_cache(ResultCache::at(&caches[2]))
        .run(&scenarios);
    assert_eq!(
        cluster_report.canonical_json(),
        solo_report.canonical_json(),
        "cluster and single-box canonical reports must be byte-identical"
    );

    // Warm repeats through the coordinator: all hits, byte-stable.
    let (warm_a, warm) = c
        .eval_buffered(EvalRequest::new("e2e-warm", scenarios.clone()))
        .expect("warm exchange completes");
    let (warm_b, _) = c
        .eval_buffered(EvalRequest::new("e2e-warm", scenarios.clone()))
        .expect("warm repeat completes");
    assert_eq!((warm.hits, warm.misses), (5, 0), "warm cluster: all hits");
    assert_eq!(warm_a, warm_b, "warm cluster responses are byte-stable");

    // A streamed (v2) warm run merges the same cells.
    let mut streamed: Vec<CellOutcome> = Vec::new();
    let outcome = c
        .eval_streaming(
            EvalRequest::streaming("e2e-v2", scenarios.clone()),
            |_, f| {
                if let Response::Cell(cell) = f {
                    streamed.push(cell.clone());
                }
            },
        )
        .expect("streamed exchange completes");
    assert_eq!(
        outcome,
        yoco_sweep::StreamOutcome::Done {
            position: 0,
            cells: 5,
            hits: 5,
            misses: 0
        }
    );
    let ordered = in_scenario_order(&scenarios, &streamed);
    assert_eq!(
        ordered, warm.cells,
        "streamed and buffered warm cells carry identical outcomes"
    );

    // Status probes expose the topology.
    let status = c.status().expect("coordinator status");
    assert_eq!(status.role, "coordinator");
    assert_eq!(status.workers, 2);
    assert!(status.served >= 3, "all exchanges counted: {status:?}");
    assert_eq!(status.occupancy, 0);
    let worker_status = client(p1).status().expect("worker status");
    assert_eq!(worker_status.role, "serve");
    assert_eq!(worker_status.workers, 0);
    assert!(
        worker_status.served >= 1,
        "the worker served sub-requests: {worker_status:?}"
    );

    // Clean shutdown of all three processes.
    c.shutdown().expect("coordinator shutdown");
    assert!(coord.wait().success());
    for (server, port) in [(w1, p1), (w2, p2)] {
        client(port).shutdown().expect("worker shutdown");
        assert!(server.wait().success());
    }
    for dir in &caches {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn killing_a_worker_mid_stream_requeues_its_cells_onto_the_survivor() {
    let caches = [temp_dir("kill-w2"), temp_dir("kill-solo")];
    // Worker 1 is the stub: it delivers one cell of its shard, then
    // holds the rest until it is killed.
    const STUB_CELLS: usize = 1;
    let mut stub = StubWorker::spawn(STUB_CELLS);
    let (w2, p2) = spawn_server(&caches[0], &[]);
    let (coord, cport) = spawn_coordinator(&[stub.port, p2]);

    // Six unique cheap cells. Both workers are idle (the coordinator has
    // nothing in flight on either), so the round-robin split gives
    // worker 1 (the first configured) positions 0, 2, 4 and worker 2
    // positions 1, 3, 5.
    let batch: Vec<Scenario> = [
        StudyId::Fig9a,
        StudyId::Table2,
        StudyId::Fig7,
        StudyId::Table1,
        StudyId::Breakdown,
        StudyId::Fig6a,
    ]
    .into_iter()
    .map(Scenario::study)
    .collect();
    let mut request = EvalRequest::streaming("e2e-kill", batch.clone());
    request.force = true;

    let mut c = client(cport);
    c.send(&Request::Eval(request)).expect("request sends");
    let (_, first) = c.recv().expect("first frame");
    assert!(
        matches!(first, Response::Accepted { .. }),
        "expected Accepted, got {first:?}"
    );

    // Read cells; once the stub's cell and worker 2's three have
    // arrived (the stub still holds the rest of its shard), kill it.
    let mut cells: Vec<CellOutcome> = Vec::new();
    let mut killed = false;
    let mut cells_at_kill = usize::MAX;
    let done = loop {
        let (_, frame) = c.recv().expect("stream keeps flowing across the kill");
        match frame {
            Response::Cell(cell) => {
                cells.push(cell);
                if !killed && cells.len() == STUB_CELLS + 3 {
                    stub.kill();
                    killed = true;
                    cells_at_kill = cells.len();
                }
            }
            Response::Done { hits, misses, .. } => break (hits, misses),
            other => panic!("unexpected frame mid-stream: {other:?}"),
        }
    };
    assert!(killed, "the kill must happen mid-stream");
    assert!(
        cells_at_kill < batch.len(),
        "worker 1 was killed while cells were outstanding"
    );
    assert_eq!(cells.len(), batch.len(), "every cell still arrived");
    assert_eq!(done, (0, 6), "forced: all computed, none cached");

    // Exactly one outcome per scenario, none failed: the held cells
    // were recomputed by the survivor.
    let ordered = in_scenario_order(&batch, &cells);
    assert_eq!(ordered.len(), 6);
    for cell in &ordered {
        assert_eq!(cell.status, CellStatus::Computed, "{}", cell.id);
        assert!(cell.error.is_none(), "{}", cell.id);
    }
    let mut seen: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
    seen.sort_unstable();
    let mut expected: Vec<&str> = batch.iter().map(|s| s.id.as_str()).collect();
    expected.sort_unstable();
    assert_eq!(seen, expected, "no duplicates from the requeue");

    // The post-kill merged report still byte-diffs clean against a
    // single-box run of the same batch.
    let cluster_report = report_from_outcomes(&batch, &ordered, 0);
    let solo_report = Engine::ephemeral()
        .with_cache(ResultCache::at(&caches[1]))
        .run(&batch);
    assert_eq!(
        cluster_report.canonical_json(),
        solo_report.canonical_json(),
        "kill-mid-stream run must still match the single-box report"
    );

    // The coordinator remains serviceable afterwards (worker 2 carries
    // the whole grid) and its status still answers.
    let status = c.status().expect("status after the kill");
    assert_eq!(status.role, "coordinator");
    assert_eq!(status.served, 1);
    // The stub's held cells reached the survivor through one requeue.
    let (_, metrics) = c.metrics().expect("metrics after the kill");
    assert_eq!(
        metrics.counter("cluster_requeues_total"),
        Some((3 - STUB_CELLS) as u64)
    );

    c.shutdown().expect("coordinator shutdown");
    assert!(coord.wait().success());
    client(p2).shutdown().expect("worker 2 shutdown");
    assert!(w2.wait().success());
    for dir in &caches {
        let _ = std::fs::remove_dir_all(dir);
    }
}
