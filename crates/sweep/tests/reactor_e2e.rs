//! End-to-end tests of the epoll reactor serve core: pipelined
//! requests multiplexed on one connection, frames split across
//! arbitrary write boundaries, slow-reader disconnects at the 16 MiB
//! output cap, a 1024-connection concurrency smoke (guarded by the
//! process fd limit), byte parity between the single-box runtime and
//! the cluster coordinator's merge, the bound on a request line, and
//! what the reactor reads, drains and answers (a half-closed client
//! included) while a request is held in flight by a [`HeldPool`].
//!
//! Readiness is the server's announce line ("yoco-serve listening on
//! …") or a channel the fixture signals — never a sleep.

mod common;

use common::{client, spawn_coordinator, spawn_server, temp_dir};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yoco_sweep::api::{CellOutcome, EvalRequest, Request, Response};
use yoco_sweep::cluster::WorkerPool;
use yoco_sweep::serve::{listen, serve_reactor, ServeConfig, MAX_LINE_BYTES};
use yoco_sweep::{
    Engine, ResultCache, Runtime, Scenario, ServeClient, StreamOutcome, StudyId, SweepError,
};

fn batch() -> Vec<Scenario> {
    vec![
        Scenario::study(StudyId::Fig9a),
        Scenario::study(StudyId::Table2),
    ]
}

fn request_line(request: &Request) -> String {
    let mut text = serde_json::to_string(request).expect("request serializes");
    text.push('\n');
    text
}

#[test]
fn pipelined_v1_requests_on_one_connection_all_answer() {
    let cache = temp_dir("pipeline-v1");
    let (server, port) = spawn_server(&cache, &["--queue-depth", "8"]);

    // Prime so the pipelined burst below is all warm (and instant).
    let mut c = client(port);
    let (_, cold) = c
        .eval_buffered(EvalRequest::new("p-prime", batch()))
        .expect("prime completes");
    assert!(cold.is_ok(), "{:?}", cold.error);

    // Eight buffered requests in ONE write: the reactor must parse
    // them all out of the shared read buffer and answer each exactly
    // once, in request order.
    let mut burst = String::new();
    for n in 0..8 {
        burst.push_str(&request_line(&Request::Eval(EvalRequest::new(
            format!("p-{n}"),
            batch(),
        ))));
    }
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    stream.write_all(burst.as_bytes()).expect("burst sends");
    stream.flush().expect("burst flushes");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ids = Vec::new();
    for _ in 0..8 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response arrives");
        let Response::Eval(response) = serde_json::from_str(&line).expect("parses") else {
            panic!("expected a buffered Eval response, got {line}");
        };
        assert_eq!(
            (response.hits, response.misses),
            (2, 0),
            "{}: warm burst must be all hits",
            response.id
        );
        ids.push(response.id);
    }
    let expected: Vec<String> = (0..8).map(|n| format!("p-{n}")).collect();
    assert_eq!(
        ids, expected,
        "every pipelined request answered exactly once, in request order"
    );

    c.shutdown().expect("clean shutdown");
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn pipelined_v2_streams_never_interleave_their_frames() {
    let cache = temp_dir("pipeline-v2");
    let (server, port) = spawn_server(&cache, &["--queue-depth", "8"]);

    // Two FORCED streamed requests in one write: both need real
    // compute, so both go through the worker pool — where frames of
    // concurrently-running streams would interleave if the reactor
    // allowed two in-flight lines per connection. A v2 `Cell` carries
    // no request id, so the protocol is only parseable because the
    // reactor serializes: every frame of q-0 strictly precedes every
    // frame of q-1.
    let mut burst = String::new();
    for n in 0..2 {
        let mut request = EvalRequest::streaming(format!("q-{n}"), batch());
        request.force = true;
        burst.push_str(&request_line(&Request::Eval(request)));
    }
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    stream.write_all(burst.as_bytes()).expect("burst sends");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut frames = Vec::new();
    let mut done_seen = 0;
    while done_seen < 2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("frame arrives");
        let frame = serde_json::from_str::<Response>(&line).expect("frame parses");
        if matches!(frame, Response::Done { .. }) {
            done_seen += 1;
        }
        frames.push(frame);
    }
    let shape: Vec<String> = frames
        .iter()
        .map(|f| match f {
            Response::Accepted { id, .. } => format!("accepted:{id}"),
            Response::Cell(_) => "cell".into(),
            Response::Done { id, hits, misses } => {
                assert_eq!((*hits, *misses), (0, 2), "{id}: forced streams recompute");
                format!("done:{id}")
            }
            other => panic!("unexpected frame {other:?}"),
        })
        .collect();
    assert_eq!(
        shape,
        [
            "accepted:q-0",
            "cell",
            "cell",
            "done:q-0",
            "accepted:q-1",
            "cell",
            "cell",
            "done:q-1"
        ],
        "frames of pipelined streams arrive whole, in request order"
    );

    let mut c = client(port);
    c.shutdown().expect("clean shutdown");
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn frames_split_across_arbitrary_write_boundaries_reassemble() {
    let cache = temp_dir("partial");
    let (server, port) = spawn_server(&cache, &[]);

    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Two requests serialized back to back, then written in slow
    // 3-byte chunks: every chunk boundary lands mid-frame somewhere,
    // including across the newline between the two requests.
    let mut wire = request_line(&Request::Ping);
    wire.push_str(&request_line(&Request::Eval(EvalRequest::new(
        "split-1",
        batch(),
    ))));
    for chunk in wire.as_bytes().chunks(3) {
        stream.write_all(chunk).expect("chunk sends");
        stream.flush().expect("chunk flushes");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut line = String::new();
    reader.read_line(&mut line).expect("pong arrives");
    assert_eq!(
        serde_json::from_str::<Response>(&line).expect("parses"),
        Response::Pong
    );
    let mut line = String::new();
    reader.read_line(&mut line).expect("eval response arrives");
    let Response::Eval(response) = serde_json::from_str(&line).expect("parses") else {
        panic!("expected an Eval response, got {line}");
    };
    assert_eq!(response.id, "split-1");
    assert!(response.is_ok(), "{:?}", response.error);

    let bye = request_line(&Request::Shutdown);
    stream.write_all(bye.as_bytes()).expect("shutdown sends");
    let mut line = String::new();
    reader.read_line(&mut line).expect("bye arrives");
    assert_eq!(
        serde_json::from_str::<Response>(&line).expect("parses"),
        Response::Bye
    );
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn slow_reader_overflowing_the_outbuf_is_disconnected() {
    // In-process reactor: a reader that never drains trips the 16 MiB
    // per-connection output cap.
    let cache_dir = temp_dir("slow-reader");
    let (listener, local) = listen("127.0.0.1:0").expect("binds");
    let runtime = Runtime::new(
        Engine::ephemeral().with_cache(ResultCache::at(&cache_dir)),
        ServeConfig {
            queue_depth: 4,
            jobs: 2,
        },
    );
    let reactor = std::thread::spawn(move || serve_reactor(listener, Arc::new(runtime), true));

    // Prime through a well-behaved connection.
    let mut well_behaved = ServeClient::connect(&local.to_string()).expect("connects");
    well_behaved
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    let outcome = well_behaved
        .eval_streaming(EvalRequest::streaming("slow-prime", batch()), |_, _| {})
        .expect("prime completes");
    assert!(matches!(outcome, StreamOutcome::Done { .. }));

    // The slow reader: pour warm requests in at full speed, never
    // read a byte. Responses outweigh requests several-fold, so once
    // the kernel's socket buffers fill, the server's writes hit
    // EAGAIN, about 16 MiB of ~700-byte answers overflow the cap, and
    // the server must cut the connection (a stalled write would
    // otherwise wedge the whole event loop).
    let mut slow = TcpStream::connect(local).expect("connects");
    slow.set_nodelay(true).expect("nodelay");
    slow.set_write_timeout(Some(Duration::from_secs(2)))
        .expect("write timeout");
    let warm = request_line(&Request::Eval(EvalRequest::new("slow", batch())));
    let started = Instant::now();
    let disconnected = loop {
        match slow.write_all(warm.as_bytes()) {
            Ok(()) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Our own send buffer is full (the server stopped
                // draining it); keep pushing until the disconnect.
            }
            // EPIPE / ECONNRESET: the server dropped us.
            Err(_) => break true,
        }
        if started.elapsed() > Duration::from_secs(60) {
            break false;
        }
    };
    assert!(
        disconnected,
        "a reader that never drains must be disconnected"
    );

    // The rest of the server is unaffected: the well-behaved
    // connection still round-trips and can shut the reactor down.
    well_behaved.ping().expect("server is still healthy");
    well_behaved.shutdown().expect("clean shutdown");
    reactor
        .join()
        .expect("reactor thread joins")
        .expect("reactor exits cleanly");
    let _ = std::fs::remove_dir_all(cache_dir);
}

/// The soft "Max open files" rlimit of this process, from
/// `/proc/self/limits` (no libc binding needed for a test guard).
fn max_open_files() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[test]
fn smoke_1024_concurrent_connections_serve_one_warm_batch_each() {
    // Every connection costs the test one client fd and the server one
    // accepted fd (same process tree in CI terms, but the guard only
    // sees this process) — plus harness overhead. Demand comfortable
    // headroom and skip cleanly where the sandbox is tighter.
    const CONNS: usize = 1024;
    match max_open_files() {
        Some(limit) if limit >= 2 * CONNS as u64 + 256 => {}
        limit => {
            eprintln!(
                "skipping {CONNS}-connection smoke: fd limit {limit:?} is too low \
                 (need {})",
                2 * CONNS + 256
            );
            return;
        }
    }
    let cache = temp_dir("smoke-1024");
    let (server, port) = spawn_server(&cache, &["--queue-depth", "2048"]);

    let mut primer = client(port);
    let outcome = primer
        .eval_streaming(EvalRequest::streaming("smoke-prime", batch()), |_, _| {})
        .expect("prime completes");
    assert!(matches!(outcome, StreamOutcome::Done { .. }));

    // All connections are open at once before any request flows — the
    // reactor holds them all on one epoll set.
    let conns: Vec<ServeClient> = (0..CONNS).map(|_| client(port)).collect();
    let handles: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(n, mut c)| {
            std::thread::spawn(move || {
                c.eval_streaming(
                    EvalRequest::streaming(format!("smoke-{n}"), batch()),
                    |_, _| {},
                )
            })
        })
        .collect();
    let mut completed = 0;
    for handle in handles {
        let outcome = handle
            .join()
            .expect("connection thread joins")
            .expect("exchange completes");
        // `position` is the admission queue position at accept time —
        // with 1024 requests legitimately in flight it is usually
        // nonzero; the contract is the evaluated cells.
        match outcome {
            StreamOutcome::Done {
                cells,
                hits,
                misses,
                ..
            } => assert_eq!(
                (cells, hits, misses),
                (2, 2, 0),
                "every connection's batch replays warm"
            ),
            other => panic!("expected a completed stream, got {other:?}"),
        }
        completed += 1;
    }
    assert_eq!(completed, CONNS);

    primer.shutdown().expect("clean shutdown");
    assert!(server.wait().success());
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn warm_v1_bytes_match_between_runtime_and_coordinator() {
    let runtime_cache = temp_dir("parity-runtime");
    let worker_cache = temp_dir("parity-worker");
    let (runtime_server, runtime_port) = spawn_server(&runtime_cache, &[]);
    let (worker_server, worker_port) = spawn_server(&worker_cache, &[]);
    let (coordinator, coordinator_port) = spawn_coordinator(&[worker_port]);

    let warm_line = |port: u16| {
        let mut c = client(port);
        let request = EvalRequest::new("parity-1", batch());
        let (_, cold) = c
            .eval_buffered(request.clone())
            .expect("cold exchange completes");
        assert!(cold.is_ok(), "{:?}", cold.error);
        let (raw, warm) = c.eval_buffered(request).expect("warm exchange completes");
        assert_eq!((warm.hits, warm.misses), (2, 0));
        c.shutdown().expect("clean shutdown");
        raw
    };
    let via_runtime = warm_line(runtime_port);
    let via_coordinator = warm_line(coordinator_port);
    assert_eq!(
        via_runtime, via_coordinator,
        "the coordinator's merged warm v1 response must be byte-identical \
         to the single-box runtime's"
    );

    assert!(runtime_server.wait().success());
    assert!(coordinator.wait().success());
    // The coordinator's Shutdown does not propagate to workers.
    let mut w = client(worker_port);
    w.shutdown().expect("worker shuts down");
    assert!(worker_server.wait().success());
    let _ = std::fs::remove_dir_all(runtime_cache);
    let _ = std::fs::remove_dir_all(worker_cache);
}

#[test]
fn an_overlong_line_is_answered_with_one_error_frame_then_eof() {
    let cache = temp_dir("overlong");
    let (_server, port) = spawn_server(&cache, &[]);
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    // A well-formed line first, whose answer must come before the
    // Error, then one byte more than a line may hold.
    let mut bytes = b"\"Ping\"\n".to_vec();
    bytes.resize(bytes.len() + MAX_LINE_BYTES + 1, b'x');
    stream
        .write_all(&bytes)
        .expect("the server reads up to the bound");
    stream.shutdown(Shutdown::Write).expect("half-closes");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("reads to EOF");
    let frames: Vec<Response> = reply
        .lines()
        .map(|line| serde_json::from_str(line).expect("frame parses"))
        .collect();
    assert!(
        matches!(frames.as_slice(), [Response::Pong, Response::Error(_)]),
        "{reply}"
    );
    client(port)
        .ping()
        .expect("another connection still gets Pong");
    let _ = std::fs::remove_dir_all(cache);
}

/// The peak resident set of process `pid` in KiB (`VmHWM`).
fn peak_rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("status reads");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM present")
}

#[test]
fn a_flood_without_newlines_leaves_the_server_small() {
    let cache = temp_dir("flood");
    let (server, port) = spawn_server(&cache, &[]);
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connects");
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    // 64 MiB with no newline; writes fail once the server hangs up.
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..1024 {
        if stream.write_all(&chunk).is_err() {
            break;
        }
    }
    let peak_kib = peak_rss_kib(server.pid());
    assert!(
        peak_kib < 32 * 1024,
        "yoco-serve peaked at {peak_kib} KiB resident"
    );
    client(port).ping().expect("the server is still healthy");
    let _ = std::fs::remove_dir_all(cache);
}

/// A coordinator's one worker, held: `dispatch` reports on `started`,
/// then blocks until the test drops the sender of `hold`, and fails as a
/// worker that went away, so the request it carried is refused `Busy`.
/// Every dispatch after the release fails at once.
struct HeldPool {
    started: mpsc::Sender<()>,
    hold: Mutex<mpsc::Receiver<()>>,
}

impl WorkerPool for HeldPool {
    fn dispatch(
        &self,
        _addr: &str,
        _request: EvalRequest,
        _on_cell: &mut dyn FnMut(&CellOutcome, &str),
    ) -> io::Result<StreamOutcome> {
        let _ = self.started.send(());
        let _ = self.hold.lock().expect("hold lock").recv();
        Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "held worker released",
        ))
    }
}

/// An in-process coordinator reactor over a [`HeldPool`]: its address,
/// the receiver `dispatch` reports starts on, the sender whose drop
/// releases the hold, and the reactor thread.
fn held_reactor() -> (
    SocketAddr,
    mpsc::Receiver<()>,
    mpsc::Sender<()>,
    JoinHandle<io::Result<()>>,
) {
    let (listener, local) = listen("127.0.0.1:0").expect("binds");
    let (started_tx, started) = mpsc::channel();
    let (hold, hold_rx) = mpsc::channel();
    let pool = HeldPool {
        started: started_tx,
        hold: Mutex::new(hold_rx),
    };
    let runtime = Runtime::with_pool(Box::new(pool), vec!["held".into()], 4);
    let reactor = std::thread::spawn(move || serve_reactor(listener, Arc::new(runtime), true));
    (local, started, hold, reactor)
}

fn eval_line(id: &str) -> String {
    request_line(&Request::Eval(EvalRequest::new(id, batch())))
}

#[test]
fn lines_pipelined_behind_a_held_request_stay_in_the_socket() {
    let (addr, started, hold, reactor) = held_reactor();
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .write_all(eval_line("held").as_bytes())
        .expect("held line sends");
    started.recv().expect("the held request reaches the pool");

    // 4 KiB eval lines behind it, until a write stalls for 500 ms or
    // 64 MiB went out. A reactor that keeps reading holds every line;
    // one that stops leaves them to the socket buffers, which fill.
    let pad = 4096 - eval_line("").len();
    let line = eval_line(&"x".repeat(pad));
    assert_eq!(line.len(), 4096);
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .expect("timeout set");
    let mut sent = 0usize;
    while sent < 64 << 20 && stream.write_all(line.as_bytes()).is_ok() {
        sent += line.len();
    }
    assert!(
        sent < 32 << 20,
        "{} KiB of lines got in behind a held request",
        sent >> 10
    );

    drop(stream);
    drop(hold);
    let mut c = ServeClient::connect(&addr.to_string()).expect("connects");
    c.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    c.shutdown().expect("clean shutdown");
    reactor
        .join()
        .expect("reactor thread joins")
        .expect("reactor exits cleanly");
}

#[test]
fn a_shutdown_drains_a_held_request_and_the_line_read_behind_it() {
    let (addr, started, hold, reactor) = held_reactor();
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    // One write, so one read takes both lines.
    let mut wire = eval_line("held");
    wire.push_str(&request_line(&Request::Ping));
    stream.write_all(wire.as_bytes()).expect("lines send");
    started.recv().expect("the held request reaches the pool");

    let mut c = ServeClient::connect(&addr.to_string()).expect("connects");
    c.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    c.shutdown().expect("Shutdown gets Bye");
    drop(hold);

    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("reads to EOF");
    let frames: Vec<Response> = reply
        .lines()
        .map(|line| serde_json::from_str(line).expect("frame parses"))
        .collect();
    assert!(
        matches!(
            frames.as_slice(),
            [Response::Eval(held), Response::Pong]
                if held.id == "held" && matches!(held.error, Some(SweepError::Busy { .. }))
        ),
        "{reply}"
    );
    reactor
        .join()
        .expect("reactor thread joins")
        .expect("reactor exits cleanly");
}

#[test]
fn a_client_that_half_closes_still_gets_its_reply() {
    let (addr, started, hold, reactor) = held_reactor();
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    stream
        .write_all(eval_line("half").as_bytes())
        .expect("line sends");
    // The FIN: `nc -N` and any client that closes its write side once
    // its request is out still read the reply.
    stream.shutdown(Shutdown::Write).expect("write side closes");
    started.recv().expect("the held request reaches the pool");

    // A ping on a second connection, so the reactor runs a pass after
    // the FIN arrived.
    let mut c = ServeClient::connect(&addr.to_string()).expect("connects");
    c.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    c.ping().expect("ping answers");
    drop(hold);

    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("reads to EOF");
    let frames: Vec<Response> = reply
        .lines()
        .map(|line| serde_json::from_str(line).expect("frame parses"))
        .collect();
    assert!(
        matches!(
            frames.as_slice(),
            [Response::Eval(held)]
                if held.id == "half" && matches!(held.error, Some(SweepError::Busy { .. }))
        ),
        "{reply}"
    );
    c.shutdown().expect("clean shutdown");
    reactor
        .join()
        .expect("reactor thread joins")
        .expect("reactor exits cleanly");
}
