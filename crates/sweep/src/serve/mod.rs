//! The server runtime behind `yoco-serve`: one shared engine and cache
//! for every connection, fronted by admission control. It answers each
//! NDJSON request line with the frames of its reply:
//!
//! * **Admission control** — a [`Gate`] bounds the number of evaluation
//!   requests in flight (`--queue-depth`). Requests beyond the bound are
//!   answered immediately — a `Busy` frame for protocol-v2 clients, a
//!   [`SweepError::Busy`] refusal for v1 clients — instead of queueing
//!   without limit. The `retry_after_ms` hint adapts: it is derived from
//!   an EWMA of observed per-request service time ([`Gate::record_service`]),
//!   with the fixed [`RETRY_QUANTUM_MS`] as the cold-start prior.
//! * **Worker budgeting** — the server's `--jobs` budget is split
//!   evenly across requests in flight at admission time
//!   ([`split_jobs`]), so a request arriving behind a huge batch still
//!   gets its fair share of workers (see `split_jobs` for the
//!   transient-oversubscription caveat). The share is the request's
//!   engine `jobs`, so it also bounds fig6d's Monte-Carlo threads.
//! * **Streaming** — protocol-v2 requests are answered incrementally
//!   (`Accepted` at admission, one `Cell` frame per scenario in
//!   completion order via [`Engine::run_with`], then `Done`), so large
//!   grids report progress instead of going silent.
//! * **One form per cell** — a finished cell crosses this server only
//!   as its `{"Cell":…}` line, which v2 streams as it stands and the one
//!   v1 writer (`eval_line`) splices, whatever the line's source.
//! * **Warm-path memoization** — a bounded in-memory memo holds each
//!   completed cell's line, keyed by the cell's
//!   canonical wire text (its scenario as `serde_json::to_string` writes
//!   it), so a warm repeat of any batch whose cells were all served
//!   before skips both the per-cell cache re-reads and the
//!   re-serialization that bounded throughput before. A line whose every
//!   cell is spelled exactly as the serializer spells it is answered on
//!   the reactor thread from its text alone ([`Runtime::try_handle_warm`]);
//!   any other spelling decodes on a worker and still hits.
//! * **Observability** — a `"Status"` control line answers a
//!   [`StatusReport`] (occupancy, queue depth, jobs, service counters)
//!   without touching the gate, so an operator or a load balancer can
//!   probe a fully busy server.
//! * **One server type** — a single-box server and a cluster
//!   coordinator are both a [`Runtime`], differing only in the backend
//!   that answers admitted requests: the engine and warm memo, or the
//!   fan-out over worker hosts ([`Runtime::coordinator`]). Every
//!   evaluation request runs the same sequence: admit, `Accepted` (v2),
//!   one backend call, commit, terminal frame. The commit — counters,
//!   stage samples, and span records in this server's own metrics
//!   registry — lands before the terminal frame leaves.
//!
//! Frames leave through the [`FrameSink`] trait, so the whole dispatch
//! ([`Runtime::handle_line`]) is testable in process — `Vec<Response>`
//! is a sink — while the binaries serve TCP through the event-driven
//! epoll reactor ([`reactor::serve_reactor`]).

use crate::api::{
    CellOutcome, CellStatus, EvalRequest, EvalResponse, Request, Response, StatusReport,
    SweepError, API_V1, API_V2,
};
use crate::cluster::{fan_out, TcpPool, WorkerPool};
use crate::engine::Engine;
use crate::executor;
use crate::scenario::Scenario;
use crate::telemetry::{Counter, Hist, Registry};
use serde::Deserialize;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub mod reactor;

pub use reactor::{serve_reactor, MAX_LINE_BYTES};

/// Default bound on concurrently admitted evaluation requests.
pub const DEFAULT_QUEUE_DEPTH: usize = 4;

/// The cold-start prior for the `retry_after_ms` hint: before any
/// request has completed, a rejected client is told to back off roughly
/// one quantum divided by the queue depth — slots drain concurrently, so
/// the deeper the queue, the sooner one is expected to free up. Once
/// requests complete, the observed service-time EWMA replaces this
/// constant as the numerator.
pub const RETRY_QUANTUM_MS: u64 = 250;

/// Smoothing factor of the service-time EWMA: each completed request
/// pulls the estimate a quarter of the way toward its own service time,
/// so the hint tracks load shifts within a few requests without
/// thrashing on one outlier.
pub const SERVICE_EWMA_ALPHA: f64 = 0.25;

/// Bound on memoized warm cells. Insertion past it evicts the oldest
/// entries first (FIFO) — the memo is a pure cache of deterministic
/// results, so eviction can never be wrong, only cold.
const MEMO_CAP: usize = 4096;

/// Sizing of a single-box runtime: admission bound and worker budget.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum evaluation requests in flight at once. `0` rejects every
    /// evaluation — a drain/maintenance mode (control requests still
    /// answer).
    pub queue_depth: usize,
    /// Total worker budget, split across in-flight requests.
    pub jobs: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_depth: DEFAULT_QUEUE_DEPTH,
            jobs: executor::default_jobs(),
        }
    }
}

/// The admission verdict for a rejected request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Suggested client backoff before retrying, in milliseconds.
    pub retry_after_ms: u64,
}

/// Bounded admission: at most `depth` tickets outstanding at once.
///
/// Admission order is arrival order at the lock; there is deliberately
/// no waiting list — a full gate answers [`Busy`] immediately so clients
/// hold the backoff, not the server. Dropped tickets feed the observed
/// service time into an EWMA ([`Gate::record_service`]) that the busy
/// hint is derived from. `occupied` is the one count of admitted
/// requests; `Status` reads its occupancy from here.
#[derive(Debug)]
pub struct Gate {
    depth: usize,
    occupied: Mutex<usize>,
    /// EWMA of observed per-request service time in milliseconds;
    /// `None` until the first request completes (cold-start prior).
    service_ewma_ms: Mutex<Option<f64>>,
    /// Cumulative microseconds tickets have held slots (every ticket,
    /// including memo replays the EWMA skips): slot-seconds / uptime =
    /// achieved concurrency, surfaced as `busy_ms` in `Status`.
    slot_held_us: AtomicU64,
}

impl Gate {
    /// A gate admitting at most `depth` requests at once.
    pub fn new(depth: usize) -> Self {
        Self {
            depth,
            occupied: Mutex::new(0),
            service_ewma_ms: Mutex::new(None),
            slot_held_us: AtomicU64::new(0),
        }
    }

    /// Tries to admit one request. On success the returned [`Ticket`]
    /// holds the slot until dropped; its `position` is the number of
    /// requests already in flight (`0` = running alone). On rejection
    /// the [`Busy`] hint is [`Gate::retry_hint_ms`].
    pub fn try_enter(&self) -> Result<Ticket<'_>, Busy> {
        let mut occupied = self.occupied.lock().expect("gate lock");
        if *occupied >= self.depth {
            return Err(Busy {
                retry_after_ms: self.retry_hint_ms(),
            });
        }
        let position = *occupied;
        *occupied += 1;
        Ok(Ticket {
            gate: self,
            position,
            entered: Instant::now(),
            record: true,
        })
    }

    /// Requests currently admitted.
    pub fn occupancy(&self) -> usize {
        *self.occupied.lock().expect("gate lock")
    }

    /// The configured admission bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Folds one completed request's service time into the EWMA behind
    /// the busy hint. Called by [`Ticket`] on drop; exposed so tests can
    /// drive convergence with synthetic durations.
    pub fn record_service(&self, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1e3;
        let mut ewma = self.service_ewma_ms.lock().expect("gate ewma lock");
        *ewma = Some(match *ewma {
            None => ms,
            Some(prev) => prev + SERVICE_EWMA_ALPHA * (ms - prev),
        });
    }

    /// The current per-request service-time estimate in milliseconds:
    /// the EWMA of completed requests, or the [`RETRY_QUANTUM_MS`] prior
    /// before anything has completed.
    pub fn service_estimate_ms(&self) -> f64 {
        self.service_ewma_ms
            .lock()
            .expect("gate ewma lock")
            .unwrap_or(RETRY_QUANTUM_MS as f64)
    }

    /// The backoff hint for a rejected request: the service-time
    /// estimate divided by the queue depth (slots drain concurrently, so
    /// one is expected to free up after an estimate's worth of work
    /// spread over `depth` lanes), rounded to the nearest millisecond
    /// and floored at 1 ms so the hint is always actionable.
    pub fn retry_hint_ms(&self) -> u64 {
        let per_slot = self.service_estimate_ms() / self.depth.max(1) as f64;
        (per_slot.round() as u64).max(1)
    }

    /// Cumulative milliseconds requests have held admission slots —
    /// every admitted request counts, including the warm replays the
    /// service EWMA deliberately skips, because both occupy a slot.
    pub fn slot_held_ms(&self) -> u64 {
        self.slot_held_us.load(Ordering::Relaxed) / 1_000
    }
}

/// An admitted request's slot; dropping it releases the slot and
/// records the held duration as one service-time observation.
#[derive(Debug)]
pub struct Ticket<'a> {
    gate: &'a Gate,
    position: usize,
    entered: Instant,
    record: bool,
}

impl Ticket<'_> {
    /// In-flight requests ahead of this one at admission time.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Excludes this request from the service-time EWMA. Used by the
    /// warm-memo replay path: memo hits complete in microseconds and
    /// never cause queueing, so folding them in would collapse the
    /// busy hint to nothing while the *slow* requests that actually
    /// occupy slots keep clients waiting.
    pub fn skip_service_record(&mut self) {
        self.record = false;
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let held = self.entered.elapsed();
        if self.record {
            self.gate.record_service(held);
        }
        self.gate.slot_held_us.fetch_add(
            held.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
        *self.gate.occupied.lock().expect("gate lock") -= 1;
    }
}

/// Splits a total worker budget evenly across in-flight requests,
/// never starving a request below one worker.
///
/// Each request's share is fixed at its own admission (a running
/// request's scoped-thread pool cannot be resized), so the budget is an
/// admission-time fairness rule, not a hard global cap: a request
/// admitted alone takes the whole budget, and later arrivals shrink
/// only their own shares — the live worker total can transiently
/// exceed `budget` until earlier requests finish.
pub fn split_jobs(budget: usize, in_flight: usize) -> usize {
    (budget / in_flight.max(1)).max(1)
}

/// Where response frames go: the runtime's only output channel.
///
/// `Send` because streamed `Cell` frames are emitted from the engine's
/// worker threads (serialized through a mutex inside the runtime).
pub trait FrameSink: Send {
    /// Delivers one frame; for socket sinks this is serialize + write +
    /// flush, so a returned error means the client is gone.
    fn send(&mut self, frame: &Response) -> io::Result<()>;

    /// Delivers one already-serialized frame line (no trailing newline).
    /// Every `Cell` frame and every successful v1 reply leaves through
    /// this as the line it already is; the default decodes and falls
    /// back to [`FrameSink::send`] so in-process collector sinks still
    /// see typed frames.
    fn send_raw(&mut self, line: &str) -> io::Result<()> {
        let frame = serde_json::from_str::<Response>(line)
            .map_err(|e| io::Error::other(format!("undecodable raw frame {line:?}: {e}")))?;
        self.send(&frame)
    }
}

/// The in-process collector sink used by tests and embedders.
impl FrameSink for Vec<Response> {
    fn send(&mut self, frame: &Response) -> io::Result<()> {
        self.push(frame.clone());
        Ok(())
    }
}

/// What one handled line was, for the caller's logging and lifecycle
/// (the transport acts on [`Served::Shutdown`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Served {
    /// An evaluation ran to completion (buffered or streamed).
    Eval {
        /// The request id.
        id: String,
        /// Cells in the batch.
        cells: usize,
        /// Cells served from the cache.
        hits: usize,
        /// Cells computed (or failed) fresh.
        misses: usize,
        /// Whether the exchange streamed v2 frames.
        streamed: bool,
    },
    /// An evaluation was refused at admission (queue full) — retrying
    /// after the hinted backoff can succeed.
    Rejected {
        /// The request id.
        id: String,
        /// The backoff hint sent to the client.
        retry_after_ms: u64,
    },
    /// An evaluation was refused permanently (unsupported protocol
    /// version) — retrying the same request cannot succeed.
    Refused {
        /// The request id.
        id: String,
    },
    /// A liveness check.
    Ping,
    /// A load/counter probe.
    Status,
    /// A telemetry scrape ([`crate::telemetry::MetricsReport`]).
    Metrics,
    /// A shutdown request — the caller should stop accepting and drain.
    Shutdown,
    /// A line that did not decode as a request.
    Malformed,
}

impl Served {
    /// One-line log label, mirroring the pre-runtime server's output.
    pub fn label(&self) -> String {
        match self {
            Served::Eval {
                id,
                cells,
                hits,
                misses,
                streamed,
            } => format!(
                "eval {id}: {cells} cells, {hits} hits, {misses} misses{}",
                if *streamed { ", streamed" } else { "" }
            ),
            Served::Rejected { id, retry_after_ms } => {
                format!("eval {id}: rejected, retry after {retry_after_ms} ms")
            }
            Served::Refused { id } => format!("eval {id}: refused (unsupported version)"),
            Served::Ping => "ping".into(),
            Served::Status => "status".into(),
            Served::Metrics => "metrics".into(),
            Served::Shutdown => "shutdown".into(),
            Served::Malformed => "bad request".into(),
        }
    }
}

/// The warm memo: a cell's canonical wire text ([`memo_key`]) → its
/// [`cell_line`] with status `Hit`, which v2 replays as it stands and
/// [`eval_line`] splices into v1. Keyed per cell rather than per batch
/// so overlapping grids share entries — a batch warmed by *any*
/// combination of earlier requests replays without touching the cache.
/// The key is the scenario's serialization, so it covers every scenario
/// field by construction, the display id that `Cell` frames embed
/// included, and a hit is text byte-equal to a key, which decodes to
/// exactly the scenario that key was written from. Bounded FIFO:
/// inserting past `cap` evicts the oldest keys.
#[derive(Debug)]
struct CellMemo {
    entries: HashMap<Arc<str>, Arc<str>>,
    /// Insertion order of `entries` keys (no duplicates: re-inserting
    /// an existing key replaces the value in place), the FIFO eviction
    /// queue.
    order: VecDeque<Arc<str>>,
    cap: usize,
}

impl CellMemo {
    fn new(cap: usize) -> Self {
        Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// All-or-nothing lookup: the memoized lines of `keys` (cell texts)
    /// in request order, or `None` if any cell is missing (the engine run
    /// then recomputes only what the result cache cannot answer).
    fn lookup_all<'k>(&self, keys: impl IntoIterator<Item = &'k str>) -> Option<Vec<Arc<str>>> {
        keys.into_iter()
            .map(|key| self.entries.get(key).cloned())
            .collect()
    }

    fn insert(&mut self, key: String, line: String) {
        if let Some(slot) = self.entries.get_mut(key.as_str()) {
            *slot = line.into();
            return;
        }
        while self.entries.len() >= self.cap {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
        let key: Arc<str> = key.into();
        self.order.push_back(Arc::clone(&key));
        self.entries.insert(key, line.into());
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A cell's memo key: its scenario's canonical wire text, the bytes
/// `sweep client`, `sweep loadgen` and a coordinator's sub-requests send
/// for it.
fn memo_key(scenario: &Scenario) -> String {
    serde_json::to_string(scenario).expect("scenario serialization is infallible")
}

/// Reads a line as the reactor's warm path does: the `{"Eval":{…}}`
/// envelope's fields by the derived decoder's key rules (any order,
/// unknown keys skipped, the last of a repeated key wins), and each
/// `scenarios` element as its raw text, neither parsed nor checked (the
/// memo lookup checks it, by byte equality with a key). The request
/// comes back with no scenarios. Any other shape is an error, a repeated
/// `scenarios` key included.
fn warm_envelope(line: &str) -> Result<(EvalRequest, Vec<&str>), serde::Error> {
    const TY: &str = "EvalRequest";
    let mut r = serde::Reader::new(line);
    r.skip_ws();
    if r.first_key()?.as_deref() != Some("Eval") {
        return Err(serde::Error::ty("Request", "Eval"));
    }
    let (mut version, mut id, mut force, mut deadline_ms) = (None, None, None, None);
    let mut spans = None;
    let mut key = r.first_key()?;
    while let Some(k) = key {
        match &*k {
            "version" => version = Some(u32::from_json(&mut r)?),
            "id" => id = Some(String::from_json(&mut r)?),
            "scenarios" if spans.is_none() => spans = Some(r.array_spans()?),
            "scenarios" => return Err(serde::Error::custom("repeated `scenarios`")),
            "force" => force = Some(bool::from_json(&mut r)?),
            "deadline_ms" => deadline_ms = Some(Option::<u64>::from_json(&mut r)?),
            _ => r.skip_value()?,
        }
        key = r.next_key()?;
    }
    if r.next_key()?.is_some() {
        return Err(serde::Error::ty("Request", "object with one key"));
    }
    r.end()?;
    // A field added to `EvalRequest` breaks this literal: the envelope
    // must read it before a warm line may skip the decoder.
    let request = EvalRequest {
        version: serde::take_field(version, TY, "version")?,
        id: serde::take_field(id, TY, "id")?,
        scenarios: Vec::new(),
        force: serde::take_field(force, TY, "force")?,
        deadline_ms: serde::take_field(deadline_ms, TY, "deadline_ms")?,
    };
    let spans = spans.ok_or_else(|| serde::Error::missing(TY, "scenarios"))?;
    Ok((request, spans))
}

/// Where a backend hands each finished cell: its position in the batch
/// and its `{"Cell":…}` line ([`cell_line`], or a worker's bytes that
/// [`splices`]), the only form in which a cell crosses this server.
/// Called from several threads at once.
pub(crate) type Emit<'a> = dyn Fn(usize, &str) + Sync + 'a;

/// What one backend call produced.
#[derive(Debug)]
pub(crate) enum Ran {
    /// Every cell went through the emit callback; the batch's cache
    /// split.
    Cells { hits: usize, misses: usize },
    /// Every cell is memoized: the runtime replays the cells' lines
    /// (raw v2 `Cell` lines, or spliced into the v1 line) and nothing is
    /// evaluated.
    Memo(Vec<Arc<str>>),
}

/// The server behind both `yoco-serve` modes: an admission gate, this
/// server's own metrics registry, and one backend answering admitted
/// requests — a single box's shared engine and warm memo
/// ([`Runtime::new`]), or a coordinator's fan-out over worker hosts
/// ([`Runtime::coordinator`]). The transport (the reactor, a test
/// harness) feeds request lines to [`Runtime::handle_line`] with a sink
/// for the reply frames.
///
/// One evaluation request runs these steps, in order:
///
/// 1. admit it and open its span (the `queued` stage);
/// 2. send `Accepted` (v2 only);
/// 3. make one backend call, which hands each finished cell to an emit
///    callback (v2 streams it, v1 buffers it) and returns the totals, or
///    a retryable `Busy`;
/// 4. commit: counters, the `eval` and `flush` samples, span records;
/// 5. send the terminal frame (`Eval` for v1, `Done` for v2, or `Busy`).
///
/// Committing before the terminal frame is what lets a client reacting
/// to it instantly — a `Status` or `Metrics` probe, a span-file reader —
/// see its exchange already counted.
#[derive(Debug)]
pub struct Runtime {
    gate: Gate,
    metrics: Registry,
    backend: Backend,
}

/// What answers a runtime's admitted requests.
#[derive(Debug)]
enum Backend {
    /// A single box.
    Local(Local),
    /// A coordinator: each request fans out over the worker hosts
    /// ([`fan_out`]). It keeps no memo, so every repeat reaches the
    /// workers.
    Cluster {
        pool: Box<dyn WorkerPool + Send + Sync>,
        workers: Vec<String>,
        /// This coordinator's sub-requests in flight on each worker, by
        /// position in `workers`: the load shards are dealt by.
        in_flight: Mutex<Vec<usize>>,
    },
}

impl std::fmt::Debug for dyn WorkerPool + Send + Sync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WorkerPool")
    }
}

impl Runtime {
    /// A single-box runtime over `engine` (whose own `jobs` setting is
    /// overridden per request by the split budget).
    pub fn new(engine: Engine, config: ServeConfig) -> Self {
        Self {
            gate: Gate::new(config.queue_depth),
            metrics: Registry::default(),
            backend: Backend::Local(Local {
                engine,
                jobs_budget: config.jobs.max(1),
                memo: Mutex::new(CellMemo::new(MEMO_CAP)),
            }),
        }
    }

    /// A coordinator fanning requests out over `workers` (`HOST:PORT`,
    /// each a stock `yoco-serve`) through TCP ([`TcpPool`]). It admits
    /// at most `queue_depth` client requests at once; workers keep
    /// their own bounds.
    pub fn coordinator(workers: Vec<String>, queue_depth: usize) -> Self {
        Self::with_pool(Box::new(TcpPool), workers, queue_depth)
    }

    /// A coordinator over an explicit worker pool (tests inject fakes
    /// here).
    pub fn with_pool(
        pool: Box<dyn WorkerPool + Send + Sync>,
        workers: Vec<String>,
        queue_depth: usize,
    ) -> Self {
        Self {
            gate: Gate::new(queue_depth),
            metrics: Registry::default(),
            backend: Backend::Cluster {
                pool,
                in_flight: Mutex::new(vec![0; workers.len()]),
                workers,
            },
        }
    }

    /// This runtime with `metrics` as its registry, such as a traced
    /// one ([`Registry::traced`]); `yoco-serve` builds both modes so.
    pub fn with_registry(self, metrics: Registry) -> Self {
        Self { metrics, ..self }
    }

    /// The admission gate (exposed for observability).
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// This server's metrics registry. The reactor records its own
    /// transport metrics here (loop passes, reads, out-buffer depth,
    /// fd sheds, slow readers), beside the request counts.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The current [`StatusReport`]: role, sizing, occupancy, and
    /// service counters. A coordinator reports its own gate and
    /// counters (`role: "coordinator"`), not an aggregate over workers —
    /// probe each worker for theirs. Control-plane — never touches the
    /// gate.
    pub fn status(&self) -> StatusReport {
        let (role, jobs, workers) = match &self.backend {
            Backend::Local(local) => ("serve", local.jobs_budget, 0),
            Backend::Cluster { workers, .. } => ("coordinator", 0, workers.len()),
        };
        let mut report = StatusReport {
            role: role.into(),
            workers,
            occupancy: self.gate.occupancy(),
            queue_depth: self.gate.depth(),
            jobs,
            service_estimate_ms: self.gate.service_estimate_ms().round() as u64,
            busy_ms: self.gate.slot_held_ms(),
            ..StatusReport::default()
        };
        self.metrics.fill_status(&mut report);
        report
    }

    /// Handles one request line end to end, emitting every reply frame
    /// through `sink`. An `Err` means the sink failed (client gone) —
    /// the protocol itself never errors out of this function.
    pub fn handle_line(&self, line: &str, sink: &mut dyn FrameSink) -> io::Result<Served> {
        self.handle_line_at(line, Instant::now(), sink)
    }

    /// [`Runtime::handle_line`] for a line the transport parsed at
    /// `received`. The reactor stamps each line as it is parsed off the
    /// socket, so a request's `deadline_ms` measures real queueing time
    /// (parse → worker pickup → admission), not just the final dispatch
    /// hop.
    pub fn handle_line_at(
        &self,
        line: &str,
        received: Instant,
        sink: &mut dyn FrameSink,
    ) -> io::Result<Served> {
        let request = match serde_json::from_str::<Request>(line) {
            Ok(request) => request,
            Err(e) => {
                sink.send(&Response::Error(SweepError::schema("request line", e)))?;
                return Ok(Served::Malformed);
            }
        };
        match request {
            Request::Ping => {
                sink.send(&Response::Pong)?;
                Ok(Served::Ping)
            }
            Request::Status => {
                sink.send(&Response::Status(self.status()))?;
                Ok(Served::Status)
            }
            // Control-plane like `Status`: never touches the gate, so a
            // fully busy server can still be scraped mid-run.
            Request::Metrics => {
                sink.send(&Response::Metrics(self.metrics.snapshot()))?;
                Ok(Served::Metrics)
            }
            Request::Shutdown => {
                sink.send(&Response::Bye)?;
                Ok(Served::Shutdown)
            }
            Request::Eval(req) => {
                // Every evaluation request received counts — admitted,
                // rejected, or refused — so `requests_total` reconciles
                // with a load generator's sent count. Warm memo hits skip
                // this dispatch and count in `Runtime::try_handle_warm`.
                self.metrics.add(Counter::Requests, 1);
                if req.version == API_V1 || req.version == API_V2 {
                    return self.serve(req, received, sink, None);
                }
                let speaker = match self.backend {
                    Backend::Local(_) => "server",
                    Backend::Cluster { .. } => "this coordinator",
                };
                sink.send(&Response::Eval(EvalResponse::refusal(
                    req.id.clone(),
                    SweepError::schema(
                        "request envelope",
                        format!(
                            "client speaks version {}, {speaker} speaks {API_V1} (buffered) and \
                             {API_V2} (streamed)",
                            req.version
                        ),
                    ),
                )))?;
                Ok(Served::Refused { id: req.id })
            }
        }
    }

    /// Answers `line` on the calling thread iff it can be served from
    /// its text alone: a v1 or v2 eval request, not forced, to a server
    /// with a cache, whose every `scenarios` element is byte for byte a
    /// memo key — the serializer's spelling of a memoized cell. Only the
    /// envelope (`version`, `id`, `force`, `deadline_ms`) is decoded;
    /// each cell is a raw span of the line, looked up as it stands, so a
    /// hit costs a bracket scan and one hash probe per cell. Admission
    /// still applies, so the answer may be `Busy`. `None` defers to
    /// [`Runtime::handle_line_at`] with no frames emitted: a miss, any
    /// other spelling (whitespace, key order, escapes, number forms,
    /// unknown or repeated keys), `force`, no cache, a control line or
    /// a decode error. The worker then decodes the line in full and
    /// answers it as it always has, from the memo when the decoded
    /// cells are there. A coordinator keeps no memo, so it defers every
    /// line without reading it. The reactor calls this from its event
    /// thread, sparing warm repeats the worker handoff — two context
    /// switches per request, which is most of a warm request's latency
    /// on a loaded box.
    pub fn try_handle_warm(
        &self,
        line: &str,
        received: Instant,
        sink: &mut dyn FrameSink,
    ) -> Option<io::Result<Served>> {
        let Backend::Local(local) = &self.backend else {
            return None;
        };
        // The memo mirrors the result cache, so it is off without one.
        local.engine.cache()?;
        let (req, spans) = warm_envelope(line).ok()?;
        if req.force || (req.version != API_V1 && req.version != API_V2) {
            return None;
        }
        // The memo probe comes before admission: it holds no slot, and
        // on a miss the line is re-dispatched untouched (the worker
        // repeats the admission verdict, so rejection bytes are
        // identical either way).
        let cells = local.memo.lock().expect("memo lock").lookup_all(spans)?;
        // This request is handled here for good — it never reaches
        // `Runtime::handle_line_at` — so it joins `requests_total` now.
        self.metrics.add(Counter::Requests, 1);
        Some(self.serve(req, received, sink, Some(cells)))
    }

    /// Deadline-aware admission: a request whose `deadline_ms` budget
    /// was already spent between receipt (`received`, stamped by the
    /// transport when the line was parsed) and now is answered [`Busy`]
    /// without occupying a slot — by its own declaration the client has
    /// stopped waiting, so evaluating would burn a slot on an abandoned
    /// request. The hint still carries the current estimate, so a
    /// retrying client backs off sensibly.
    fn admit(&self, req: &EvalRequest, received: Instant) -> Result<Ticket<'_>, Busy> {
        let expired = req
            .deadline_ms
            .is_some_and(|ms| received.elapsed() >= Duration::from_millis(ms));
        if expired {
            self.metrics.add(Counter::DeadlineDrops, 1);
            return Err(Busy {
                retry_after_ms: self.gate.retry_hint_ms(),
            });
        }
        self.gate.try_enter()
    }

    /// Runs steps 1–5 (see [`Runtime`]) for one counted v1/v2 request.
    /// `warm` holds the batch's memoized lines when the reactor already
    /// found them all ([`Runtime::try_handle_warm`]).
    fn serve(
        &self,
        req: EvalRequest,
        received: Instant,
        sink: &mut dyn FrameSink,
        warm: Option<Vec<Arc<str>>>,
    ) -> io::Result<Served> {
        let streamed = req.version == API_V2;
        let mut ticket = match self.admit(&req, received) {
            Ok(ticket) => ticket,
            Err(busy) => return self.reject(sink, req.id, streamed, busy),
        };
        let queued = received.elapsed();
        let span = self
            .metrics
            .span(&req.id, || batch_name(&req, warm.as_deref()));
        let span = span.as_ref();
        self.metrics.observe(Hist::Queued, queued, span);
        if streamed {
            sink.send(&Response::Accepted {
                id: req.id.clone(),
                position: ticket.position(),
            })?;
        }

        // Cell lines arrive on several threads (engine workers, dispatch
        // threads). v2 forwards each through the latch, which serializes
        // the sends and, past the first transport error, stops writing
        // but lets the backend finish (caches still fill, so the
        // client's retry is warm); v1 keeps them for its one line.
        let eval_started = Instant::now();
        let latch = LatchSink::new(sink);
        let lines = Mutex::new(Vec::new());
        let ran = self.call_backend(&req, warm, span.map(|s| s.span.as_str()), &|i, line| {
            if streamed {
                latch.send_raw(line);
            } else {
                lines.lock().expect("lines lock").push((i, line.to_owned()));
            }
        });
        let (sink, error) = latch.finish();
        if let Some(e) = error {
            return Err(e);
        }
        let flush_started = Instant::now();
        if !matches!(ran, Ok(Ran::Memo(_))) {
            self.metrics
                .observe(Hist::Eval, flush_started - eval_started, span);
        }
        let done = |hits, misses| {
            let id = req.id.clone();
            serde_json::to_string(&Response::Done { id, hits, misses })
                .expect("frame serialization is infallible")
        };
        let (hits, misses, terminal) = match ran {
            // A refusal's duration (refused connections, workers
            // answering Busy) is not service time; keep it out of the
            // retry-hint EWMA.
            Err(busy) => {
                ticket.skip_service_record();
                return self.reject(sink, req.id, streamed, busy);
            }
            Ok(Ran::Cells { hits, misses }) if streamed => (hits, misses, done(hits, misses)),
            Ok(Ran::Cells { hits, misses }) => {
                let mut lines = lines.into_inner().expect("lines lock");
                lines.sort_unstable_by_key(|&(i, _)| i);
                let cells = lines.iter().map(|(_, line)| line.as_str());
                (hits, misses, eval_line(&req.id, cells, hits, misses))
            }
            // Memo replays finish in microseconds and never queue
            // anyone; folding them into the service-time EWMA would
            // collapse the busy hint while slow requests hold slots.
            Ok(Ran::Memo(lines)) => {
                ticket.skip_service_record();
                self.metrics.add(Counter::MemoServed, 1);
                let n = lines.len();
                if !streamed {
                    (n, 0, eval_line(&req.id, lines.iter().map(|l| &**l), n, 0))
                } else {
                    for line in &lines {
                        sink.send_raw(line)?;
                    }
                    (n, 0, done(n, 0))
                }
            }
        };

        // The slot is freed and the exchange counted before the terminal
        // frame leaves: a client reacting to it instantly must see its
        // slot available and its request counted.
        drop(ticket);
        let cells = hits + misses;
        self.metrics.add(Counter::Served, 1);
        self.metrics.add(Counter::Cells, cells as u64);
        self.metrics.add(Counter::CacheHits, hits as u64);
        self.metrics.add(Counter::CacheMisses, misses as u64);
        self.metrics
            .observe(Hist::Flush, flush_started.elapsed(), span);
        sink.send_raw(&terminal)?;
        Ok(Served::Eval {
            id: req.id,
            cells,
            hits,
            misses,
            streamed,
        })
    }

    /// Step 3, the backend call. A single box replays `warm`, or else
    /// runs [`Local::run`]. A coordinator fans the batch out.
    fn call_backend(
        &self,
        req: &EvalRequest,
        warm: Option<Vec<Arc<str>>>,
        span: Option<&str>,
        emit: &Emit,
    ) -> Result<Ran, Busy> {
        match &self.backend {
            Backend::Local(local) => Ok(match warm {
                Some(lines) => Ran::Memo(lines),
                None => local.run(req, self.gate.occupancy(), emit),
            }),
            Backend::Cluster {
                pool,
                workers,
                in_flight,
            } => fan_out(&**pool, workers, in_flight, req, span, &self.metrics, emit),
        }
    }

    /// Refuses an evaluation request with a retryable `Busy`: a `Busy`
    /// frame for v2, a typed refusal inside the buffered envelope for
    /// v1 — counted before the frame leaves.
    fn reject(
        &self,
        sink: &mut dyn FrameSink,
        id: String,
        streamed: bool,
        busy: Busy,
    ) -> io::Result<Served> {
        self.metrics.add(Counter::Rejected, 1);
        let retry_after_ms = busy.retry_after_ms;
        sink.send(&if streamed {
            Response::Busy {
                id: id.clone(),
                retry_after_ms,
            }
        } else {
            Response::Eval(EvalResponse::refusal(
                id.clone(),
                SweepError::Busy { retry_after_ms },
            ))
        })?;
        Ok(Served::Rejected { id, retry_after_ms })
    }
}

/// A single box's backend: the shared engine and cache, the worker
/// budget split across requests in flight, and the warm memo.
#[derive(Debug)]
struct Local {
    engine: Engine,
    jobs_budget: usize,
    memo: Mutex<CellMemo>,
}

impl Local {
    /// A decoded request after admission. The memo answers it when it
    /// applies: the memo mirrors the result cache, so it is only
    /// consulted when a cache is attached (without one, a repeat
    /// request genuinely recomputes and must report misses), never
    /// under `force`, and only when *every* cell of the batch is
    /// memoized (cells memoized by any earlier batch count — the keys
    /// are per cell, so overlapping grids share). Otherwise the engine
    /// runs the batch. Each cell's key is serialized once, for this
    /// lookup and for the inserts after the run.
    fn run(&self, req: &EvalRequest, in_flight: usize, emit: &Emit) -> Ran {
        let keys: Option<Vec<String>> = self
            .engine
            .cache()
            .is_some()
            .then(|| req.scenarios.iter().map(memo_key).collect());
        if let Some(keys) = keys.as_ref().filter(|_| !req.force) {
            let memo = self.memo.lock().expect("memo lock");
            if let Some(lines) = memo.lookup_all(keys.iter().map(String::as_str)) {
                return Ran::Memo(lines);
            }
        }
        self.evaluate(req, keys, in_flight, emit)
    }

    /// A memo miss: the engine runs the batch (cache hits still count
    /// as hits) under the request's `force` flag, on its share of the
    /// worker budget split across the `in_flight` admitted requests.
    /// The finished cells then refresh the memo under their `keys`: a
    /// cache hit's emitted line already says `Hit` and goes in as it
    /// stands, and only a computed cell is written again. Failed cells
    /// are never memoized (a retry should re-attempt them, and a replay
    /// must not resurrect stale failures), and without a cache (no
    /// keys) the memo stays off entirely.
    fn evaluate(
        &self,
        req: &EvalRequest,
        keys: Option<Vec<String>>,
        in_flight: usize,
        emit: &Emit,
    ) -> Ran {
        let hit_lines = Mutex::new(vec![None; req.scenarios.len()]);
        let report = self
            .engine
            .clone()
            .jobs(split_jobs(self.jobs_budget, in_flight))
            .force(req.force)
            .run_with(&req.scenarios, |i, cell| {
                let line = cell_line(CellOutcome::from_cell(cell));
                emit(i, &line);
                if cell.cached {
                    hit_lines.lock().expect("hit lines lock")[i] = Some(line);
                }
            });
        if let Some(keys) = keys {
            let hit_lines = hit_lines.into_inner().expect("hit lines lock");
            let mut memo = self.memo.lock().expect("memo lock");
            for ((cell, key), hit_line) in report.cells.iter().zip(keys).zip(hit_lines) {
                if cell.error.is_none() {
                    let line = hit_line.unwrap_or_else(|| {
                        let mut outcome = CellOutcome::from_cell(cell);
                        outcome.status = CellStatus::Hit;
                        cell_line(outcome)
                    });
                    memo.insert(key, line);
                }
            }
        }
        Ran::Cells {
            hits: report.hits,
            misses: report.misses,
        }
    }
}

/// How a traced request's span records name its batch: by its first
/// cell's id (requests built from the named-grid CLI are homogeneous,
/// so one id names the whole batch) and its cell count. The batch is
/// `warm`'s lines when the reactor found them, the first id read back
/// from the first line, else the request's decoded scenarios.
fn batch_name(req: &EvalRequest, warm: Option<&[Arc<str>]>) -> (String, usize) {
    let (first, cells) = match warm {
        Some(lines) => {
            let first = lines
                .first()
                .and_then(|line| match serde_json::from_str(line) {
                    Ok(Response::Cell(cell)) => Some(cell.id),
                    _ => None,
                });
            (first, lines.len())
        }
        None => (
            req.scenarios.first().map(|s| s.id.clone()),
            req.scenarios.len(),
        ),
    };
    (first.unwrap_or_else(|| "empty".into()), cells)
}

/// A finished cell's `{"Cell":…}` line, serialized on the engine thread
/// that computed the cell, or for the memo.
pub(crate) fn cell_line(cell: CellOutcome) -> String {
    serde_json::to_string(&Response::Cell(cell)).expect("frame serialization is infallible")
}

/// The envelope [`cell_line`] writes around a cell's outcome object.
const CELL_OPEN: &str = r#"{"Cell":"#;

/// Whether a `Cell` line from outside this process can be passed on as
/// it stands: one object inside exactly the envelope [`cell_line`]
/// writes, so [`eval_line`] splices that object and nothing else.
pub(crate) fn splices(line: &str) -> bool {
    let outcome = line
        .strip_prefix(CELL_OPEN)
        .and_then(|l| l.strip_suffix('}'));
    outcome.is_some_and(|o| {
        let mut r = serde::Reader::new(o);
        o.ends_with('}') && r.skip_value().is_ok() && r.end().is_ok()
    })
}

/// The one writer of every successful v1 reply: the `Eval` line around
/// `cell_lines`, the batch's `Cell` lines in request order, each spliced
/// in without its envelope. Byte-identical to serializing the equivalent
/// [`Response::Eval`] (unit tests pin this for the engine, the memo and
/// the coordinator), so no source is distinguishable on the wire.
fn eval_line<'a>(
    id: &str,
    cell_lines: impl Iterator<Item = &'a str> + Clone,
    hits: usize,
    misses: usize,
) -> String {
    use std::fmt::Write as _;
    let id_json = serde_json::to_string(id).expect("string serialization is infallible");
    let outcomes = cell_lines.map(|line| &line[CELL_OPEN.len()..line.len() - 1]);
    let cells_len: usize = outcomes.clone().map(|o| o.len() + 1).sum();
    // The envelope around the id and the cells is under 128 bytes, so
    // the line is built without a reallocation.
    let mut line = String::with_capacity(cells_len + id_json.len() + 128);
    let _ = write!(
        line,
        "{{\"Eval\":{{\"version\":{API_V1},\"id\":{id_json},\"cells\":["
    );
    for (i, outcome) in outcomes.enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(outcome);
    }
    let _ = write!(
        line,
        "],\"hits\":{hits},\"misses\":{misses},\"error\":null}}}}"
    );
    line
}

/// A shared-by-reference adapter over a [`FrameSink`] for streamed
/// responses: frames are emitted from several threads (engine workers,
/// cluster dispatch threads), so sends are serialized through a mutex,
/// and the *first* transport error is latched instead of propagated —
/// later sends become no-ops so the producing computation can finish
/// (its results still land in caches), and the caller surfaces the
/// latched error once the stream is over via [`LatchSink::finish`].
struct LatchSink<'a> {
    inner: Mutex<(&'a mut dyn FrameSink, Option<io::Error>)>,
}

impl<'a> LatchSink<'a> {
    fn new(sink: &'a mut dyn FrameSink) -> Self {
        Self {
            inner: Mutex::new((sink, None)),
        }
    }

    /// Forwards one frame line (no-op once an error is latched).
    fn send_raw(&self, line: &str) {
        let mut guard = self.inner.lock().expect("sink lock");
        if guard.1.is_none() {
            if let Err(e) = guard.0.send_raw(line) {
                guard.1 = Some(e);
            }
        }
    }

    /// Hands the sink back along with the first error, if any.
    fn finish(self) -> (&'a mut dyn FrameSink, Option<io::Error>) {
        self.inner.into_inner().expect("sink lock")
    }
}

/// Binds `addr`, returning the listener and its resolved local address
/// (callers bind port `0` and announce the ephemeral port).
pub fn listen(addr: &str) -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    Ok((listener, local))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::CellStatus;
    use crate::cache::ResultCache;
    use crate::scenario::{Scenario, StudyId};
    use crate::telemetry::MetricsReport;

    /// What an endpoint reports about itself: its `Status` and its
    /// `Metrics` snapshot.
    pub(crate) type Snapshot<'a> = dyn Fn() -> (StatusReport, MetricsReport) + Sync + 'a;

    /// A sink that snapshots the endpoint the moment each terminal
    /// frame (`Eval`, `Done`, `Busy`) arrives — what a client reacting
    /// to the frame instantly would see.
    pub(crate) struct TerminalProbe<'a> {
        snapshot: &'a Snapshot<'a>,
        pub(crate) seen: Vec<(Response, StatusReport, MetricsReport)>,
    }

    impl<'a> TerminalProbe<'a> {
        pub(crate) fn new(snapshot: &'a Snapshot<'a>) -> Self {
            Self {
                snapshot,
                seen: Vec::new(),
            }
        }
    }

    impl FrameSink for TerminalProbe<'_> {
        fn send(&mut self, frame: &Response) -> io::Result<()> {
            if matches!(
                frame,
                Response::Eval(_) | Response::Done { .. } | Response::Busy { .. }
            ) {
                let (status, metrics) = (self.snapshot)();
                self.seen.push((frame.clone(), status, metrics));
            }
            Ok(())
        }
    }

    fn tiny_batch() -> Vec<Scenario> {
        vec![
            Scenario::study(StudyId::Fig9a),
            Scenario::study(StudyId::Table2),
        ]
    }

    fn runtime(depth: usize) -> Runtime {
        Runtime::new(
            Engine::ephemeral(),
            ServeConfig {
                queue_depth: depth,
                jobs: 4,
            },
        )
    }

    fn line(request: &Request) -> String {
        serde_json::to_string(request).expect("request serializes")
    }

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "yoco-serve-runtime-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::at(dir)
    }

    #[test]
    fn gate_admits_to_depth_rejects_beyond_and_releases_on_drop() {
        let gate = Gate::new(2);
        assert_eq!(gate.occupancy(), 0);
        let t1 = gate.try_enter().expect("slot 1");
        assert_eq!(t1.position(), 0);
        let t2 = gate.try_enter().expect("slot 2");
        assert_eq!(t2.position(), 1);
        assert_eq!(gate.occupancy(), 2);

        let busy = gate.try_enter().expect_err("gate is full");
        assert_eq!(
            busy.retry_after_ms,
            RETRY_QUANTUM_MS / 2,
            "cold gate: the prior quantum over two concurrently draining slots"
        );

        drop(t1);
        assert_eq!(gate.occupancy(), 1);
        let t3 = gate.try_enter().expect("freed slot is reusable");
        assert_eq!(t3.position(), 1, "one request still ahead");
        drop(t2);
        drop(t3);
        assert_eq!(gate.occupancy(), 0);
    }

    #[test]
    fn zero_depth_gate_rejects_everything_with_a_floor_hint() {
        let gate = Gate::new(0);
        let busy = gate.try_enter().expect_err("depth 0 admits nothing");
        assert_eq!(busy.retry_after_ms, RETRY_QUANTUM_MS);
    }

    #[test]
    fn retry_hint_converges_to_the_observed_service_time() {
        let gate = Gate::new(2);
        // Cold start: the fixed quantum is the prior.
        assert_eq!(gate.retry_hint_ms(), RETRY_QUANTUM_MS / 2);

        // A steady stream of 1-second requests pulls the EWMA to 1000 ms
        // within a few observations (alpha 0.25: ~3% of the gap left
        // after 12 steps), so the hint converges to 1000 / depth.
        for _ in 0..64 {
            gate.record_service(Duration::from_millis(1000));
        }
        let estimate = gate.service_estimate_ms();
        assert!(
            (estimate - 1000.0).abs() < 1.0,
            "EWMA should converge to the observed 1000 ms, got {estimate}"
        );
        assert_eq!(gate.retry_hint_ms(), 500, "estimate over two slots");

        // Load drops to 10 ms requests: the hint follows back down.
        for _ in 0..64 {
            gate.record_service(Duration::from_millis(10));
        }
        assert_eq!(gate.retry_hint_ms(), 5);

        // The hint is floored at 1 ms even for microsecond services.
        for _ in 0..64 {
            gate.record_service(Duration::from_micros(5));
        }
        assert_eq!(gate.retry_hint_ms(), 1);
    }

    #[test]
    fn dropping_a_ticket_feeds_the_service_ewma() {
        let gate = Gate::new(1);
        assert!(
            gate.service_ewma_ms.lock().unwrap().is_none(),
            "no observations before the first drop"
        );
        drop(gate.try_enter().expect("slot"));
        let observed = gate
            .service_ewma_ms
            .lock()
            .unwrap()
            .expect("one observation");
        assert!(
            observed < RETRY_QUANTUM_MS as f64,
            "an instant request must pull the estimate below the prior"
        );
        assert!(gate.retry_hint_ms() >= 1);
    }

    #[test]
    fn jobs_budget_splits_evenly_with_a_floor_of_one() {
        assert_eq!(split_jobs(8, 0), 8, "idle server: full budget");
        assert_eq!(split_jobs(8, 1), 8);
        assert_eq!(split_jobs(8, 2), 4);
        assert_eq!(split_jobs(8, 3), 2);
        assert_eq!(split_jobs(8, 4), 2);
        assert_eq!(split_jobs(8, 8), 1);
        assert_eq!(split_jobs(8, 100), 1, "never starved below one worker");
        assert_eq!(split_jobs(1, 5), 1);
    }

    #[test]
    fn v2_exchange_streams_accepted_cells_done_in_order() {
        let rt = runtime(2);
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("s-1", tiny_batch()))),
                &mut frames,
            )
            .expect("sink never fails");
        assert_eq!(
            served,
            Served::Eval {
                id: "s-1".into(),
                cells: 2,
                hits: 0,
                misses: 2,
                streamed: true,
            }
        );
        assert_eq!(frames.len(), 4, "accepted + 2 cells + done: {frames:?}");
        assert_eq!(
            frames[0],
            Response::Accepted {
                id: "s-1".into(),
                position: 0
            }
        );
        let mut cell_ids: Vec<&str> = frames[1..3]
            .iter()
            .map(|f| match f {
                Response::Cell(c) => {
                    assert_eq!(c.status, CellStatus::Computed);
                    assert!(c.metrics.is_some());
                    c.id.as_str()
                }
                other => panic!("expected Cell frames in the middle, got {other:?}"),
            })
            .collect();
        cell_ids.sort_unstable();
        assert_eq!(cell_ids, ["study/fig9a", "study/table2"]);
        assert_eq!(
            frames[3],
            Response::Done {
                id: "s-1".into(),
                hits: 0,
                misses: 2
            }
        );
        assert_eq!(rt.gate().occupancy(), 0, "ticket released after Done");
    }

    #[test]
    fn streamed_cells_carry_the_same_payloads_as_the_buffered_response() {
        let rt = runtime(2);
        let mut streamed: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("s-2", tiny_batch()))),
            &mut streamed,
        )
        .unwrap();
        let mut buffered: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("b-2", tiny_batch()))),
            &mut buffered,
        )
        .unwrap();
        let Some(Response::Eval(buffered)) = buffered.first() else {
            panic!("expected one buffered Eval response, got {buffered:?}");
        };
        let mut streamed_cells: Vec<&CellOutcome> = streamed
            .iter()
            .filter_map(|f| match f {
                Response::Cell(c) => Some(c),
                _ => None,
            })
            .collect();
        streamed_cells.sort_by(|a, b| a.id.cmp(&b.id));
        let mut buffered_cells: Vec<&CellOutcome> = buffered.cells.iter().collect();
        buffered_cells.sort_by(|a, b| a.id.cmp(&b.id));
        assert_eq!(streamed_cells, buffered_cells);
    }

    #[test]
    fn full_gate_rejects_v2_with_busy_and_v1_with_a_typed_refusal() {
        let rt = runtime(1);
        let _held = rt.gate().try_enter().expect("hold the only slot");

        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("s-3", tiny_batch()))),
                &mut frames,
            )
            .unwrap();
        assert_eq!(
            served,
            Served::Rejected {
                id: "s-3".into(),
                retry_after_ms: RETRY_QUANTUM_MS
            }
        );
        assert_eq!(
            frames,
            vec![Response::Busy {
                id: "s-3".into(),
                retry_after_ms: RETRY_QUANTUM_MS
            }]
        );

        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("b-3", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        let Some(Response::Eval(refusal)) = frames.first() else {
            panic!("expected a v1 refusal, got {frames:?}");
        };
        assert_eq!(refusal.id, "b-3");
        assert!(refusal.cells.is_empty());
        assert_eq!(refusal.error.as_ref().unwrap().category(), "busy");

        let status = rt.status();
        assert_eq!(status.rejected, 2, "both rejections counted");
        assert_eq!(status.served, 0);
    }

    #[test]
    fn unknown_versions_get_a_buffered_schema_refusal() {
        let rt = runtime(2);
        let mut req = EvalRequest::new("v-9", tiny_batch());
        req.version = 9;
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(&line(&Request::Eval(req)), &mut frames)
            .unwrap();
        assert_eq!(
            served,
            Served::Refused { id: "v-9".into() },
            "a version refusal is permanent, not a retryable rejection"
        );
        let Some(Response::Eval(refusal)) = frames.first() else {
            panic!("expected a refusal, got {frames:?}");
        };
        assert_eq!(refusal.id, "v-9");
        assert_eq!(
            refusal.error.as_ref().unwrap().category(),
            "schema-mismatch"
        );
        assert_eq!(rt.gate().occupancy(), 0, "no slot consumed");
    }

    #[test]
    fn control_lines_bypass_the_gate() {
        let rt = runtime(0); // full drain mode: every eval rejected…
        let mut frames: Vec<Response> = Vec::new();
        assert_eq!(
            rt.handle_line("\"Ping\"", &mut frames).unwrap(),
            Served::Ping
        );
        assert_eq!(
            rt.handle_line("\"Status\"", &mut frames).unwrap(),
            Served::Status
        );
        assert_eq!(
            rt.handle_line("\"Shutdown\"", &mut frames).unwrap(),
            Served::Shutdown
        );
        assert_eq!(
            rt.handle_line("not json", &mut frames).unwrap(),
            Served::Malformed
        );
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0], Response::Pong);
        let Response::Status(status) = &frames[1] else {
            panic!("expected a Status report, got {:?}", frames[1]);
        };
        assert_eq!(status.role, "serve");
        assert_eq!(status.queue_depth, 0);
        assert_eq!(frames[2], Response::Bye);
        assert!(matches!(frames[3], Response::Error(_)));
        // …while evals are rejected, not hung.
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("d-1", tiny_batch()))),
                &mut frames,
            )
            .unwrap();
        assert!(matches!(served, Served::Rejected { .. }));
    }

    #[test]
    fn status_counters_track_served_cells_and_hit_miss_split() {
        let cache = temp_cache("status");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("c-1", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("c-2", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        let status = rt.status();
        assert_eq!(status.served, 2);
        assert_eq!(status.cells, 4);
        assert_eq!(status.hits, 2, "second request warm");
        assert_eq!(status.misses, 2, "first request cold");
        assert_eq!(status.occupancy, 0);
        assert_eq!(status.queue_depth, 2);
        assert_eq!(status.jobs, 2);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn warm_memo_replays_batches_without_touching_the_cache() {
        let cache = temp_cache("memo");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        // Cold run populates cache and memo.
        let mut cold: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("m-1", tiny_batch()))),
            &mut cold,
        )
        .unwrap();

        // Deleting the cache directory proves the warm replay reads the
        // memo, not the disk.
        std::fs::remove_dir_all(cache.dir()).expect("cache dir removable");

        let mut warm: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("m-2", tiny_batch()))),
                &mut warm,
            )
            .unwrap();
        assert_eq!(
            served,
            Served::Eval {
                id: "m-2".into(),
                cells: 2,
                hits: 2,
                misses: 0,
                streamed: true,
            }
        );
        // Payloads are identical to the cold run's, statuses are Hit,
        // and frames arrive in scenario order (the memo replays in
        // request order).
        let warm_cells: Vec<&CellOutcome> = warm
            .iter()
            .filter_map(|f| match f {
                Response::Cell(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(warm_cells.len(), 2);
        let ids: Vec<&str> = warm_cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["study/fig9a", "study/table2"]);
        for cell in &warm_cells {
            assert_eq!(cell.status, CellStatus::Hit);
            let cold_match = cold.iter().find_map(|f| match f {
                Response::Cell(c) if c.id == cell.id => Some(c),
                _ => None,
            });
            assert_eq!(cold_match.unwrap().metrics, cell.metrics, "{}", cell.id);
        }

        // The buffered path serves the same memo, byte-for-byte stable
        // across repeats.
        let mut v1a: Vec<Response> = Vec::new();
        let mut v1b: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("m-3", tiny_batch()))),
            &mut v1a,
        )
        .unwrap();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("m-3", tiny_batch()))),
            &mut v1b,
        )
        .unwrap();
        let (a, b) = (
            serde_json::to_string(&v1a[0]).unwrap(),
            serde_json::to_string(&v1b[0]).unwrap(),
        );
        assert_eq!(a, b, "memoized v1 responses are byte-stable");
        assert!(a.contains("\"hits\":2,\"misses\":0"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn memo_replays_do_not_pollute_the_service_time_ewma() {
        let cache = temp_cache("memo-ewma");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 1,
                jobs: 2,
            },
        );
        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("e-1", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        let after_cold = rt.gate().service_estimate_ms();
        // A burst of instant memo replays must not drag the estimate
        // toward zero — the busy hint has to reflect the requests that
        // actually occupy slots.
        for n in 0..32 {
            rt.handle_line(
                &line(&Request::Eval(EvalRequest::streaming(
                    format!("e-w{n}"),
                    tiny_batch(),
                ))),
                &mut frames,
            )
            .unwrap();
        }
        assert_eq!(
            rt.gate().service_estimate_ms(),
            after_cold,
            "memo-served requests are excluded from the EWMA"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn memo_is_off_without_a_cache_and_under_force() {
        // No cache: a repeat request genuinely recomputes (misses), as
        // the warm path must mirror the cache semantics exactly.
        let rt = runtime(2);
        let mut frames: Vec<Response> = Vec::new();
        for id in ["n-1", "n-2"] {
            let served = rt
                .handle_line(
                    &line(&Request::Eval(EvalRequest::streaming(id, tiny_batch()))),
                    &mut frames,
                )
                .unwrap();
            assert_eq!(
                served,
                Served::Eval {
                    id: id.into(),
                    cells: 2,
                    hits: 0,
                    misses: 2,
                    streamed: true,
                },
                "without a cache every run recomputes"
            );
        }

        // With a cache but force=true: the memo is bypassed and the run
        // recomputes (refreshing cache and memo).
        let cache = temp_cache("memo-force");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("f-1", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        let mut forced = EvalRequest::streaming("f-2", tiny_batch());
        forced.force = true;
        let served = rt
            .handle_line(&line(&Request::Eval(forced)), &mut frames)
            .unwrap();
        assert_eq!(
            served,
            Served::Eval {
                id: "f-2".into(),
                cells: 2,
                hits: 0,
                misses: 2,
                streamed: true,
            },
            "force recomputes even with a warm memo"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn expired_deadlines_answer_busy_without_occupying_a_slot() {
        let rt = runtime(2);
        let stale = Instant::now()
            .checked_sub(Duration::from_millis(50))
            .expect("clock has history");

        // v2: the Busy frame, not a slot.
        let request = EvalRequest::streaming("d-1", tiny_batch()).with_deadline(10);
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line_at(&line(&Request::Eval(request)), stale, &mut frames)
            .unwrap();
        assert!(
            matches!(served, Served::Rejected { ref id, .. } if id == "d-1"),
            "expired v2 deadline must reject, got {served:?}"
        );
        assert!(
            matches!(frames.first(), Some(Response::Busy { id, .. }) if id == "d-1"),
            "expected a Busy frame, got {frames:?}"
        );
        assert_eq!(rt.gate().occupancy(), 0, "no slot was occupied");

        // v1: the same refusal comes back buffered and typed.
        let request = EvalRequest::new("d-2", tiny_batch()).with_deadline(10);
        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line_at(&line(&Request::Eval(request)), stale, &mut frames)
            .unwrap();
        let Some(Response::Eval(refusal)) = frames.first() else {
            panic!("expected a v1 refusal, got {frames:?}");
        };
        assert_eq!(refusal.error.as_ref().unwrap().category(), "busy");

        // An unexpired deadline admits and evaluates normally.
        let request = EvalRequest::streaming("d-3", tiny_batch()).with_deadline(60_000);
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(&line(&Request::Eval(request)), &mut frames)
            .unwrap();
        assert_eq!(
            served,
            Served::Eval {
                id: "d-3".into(),
                cells: 2,
                hits: 0,
                misses: 2,
                streamed: true,
            }
        );
        assert_eq!(rt.status().rejected, 2);
    }

    /// A sink capturing raw wire lines: typed frames serialize exactly
    /// as the reactor's connection sink does, raw lines pass through
    /// untouched.
    #[derive(Default)]
    pub(crate) struct RawLines(pub(crate) Vec<String>);

    impl FrameSink for RawLines {
        fn send(&mut self, frame: &Response) -> io::Result<()> {
            self.0
                .push(serde_json::to_string(frame).expect("frame serializes"));
            Ok(())
        }

        fn send_raw(&mut self, line: &str) -> io::Result<()> {
            self.0.push(line.to_string());
            Ok(())
        }
    }

    #[test]
    fn a_traced_warm_hit_names_its_batch_by_its_first_line() {
        let cache = temp_cache("traced-warm");
        let spans =
            std::env::temp_dir().join(format!("yoco-serve-traced-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spans);
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        )
        .with_registry(Registry::traced(&spans).expect("trace dir opens"));
        let cold = line(&Request::Eval(EvalRequest::new("t-cold", tiny_batch())));
        rt.handle_line(&cold, &mut RawLines::default()).unwrap();
        let warm = line(&Request::Eval(EvalRequest::new("t-warm", tiny_batch())));
        let served = rt.try_handle_warm(&warm, Instant::now(), &mut RawLines::default());
        assert!(matches!(served, Some(Ok(Served::Eval { hits: 2, .. }))));

        let records = crate::telemetry::trace::read_spans(&spans).expect("spans parse");
        let named: Vec<(&str, &str, &str, usize)> = records
            .iter()
            .map(|r| (r.id.as_str(), r.stage.as_str(), r.grid.as_str(), r.cells))
            .collect();
        let fig9a = "study/fig9a";
        assert_eq!(
            named,
            [
                ("t-cold", "queued", fig9a, 2),
                ("t-cold", "eval", fig9a, 2),
                ("t-cold", "flush", fig9a, 2),
                ("t-warm", "queued", fig9a, 2),
                ("t-warm", "flush", fig9a, 2),
            ]
        );
        let _ = std::fs::remove_dir_all(cache.dir());
        let _ = std::fs::remove_dir_all(spans);
    }

    #[test]
    fn warm_buffered_line_is_byte_identical_to_serde_serialization() {
        let cache = temp_cache("memo-bytes");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        let mut cold = RawLines::default();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("b-cold", tiny_batch()))),
            &mut cold,
        )
        .unwrap();

        // The id exercises JSON string escaping in the spliced line.
        let id = "b-warm \"quoted\" \\ ünïcode";
        let mut warm = RawLines::default();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new(id, tiny_batch()))),
            &mut warm,
        )
        .unwrap();
        assert_eq!(warm.0.len(), 1, "one buffered response line");
        let spliced = &warm.0[0];

        // Parse the spliced line and push it back through serde: the
        // bytes must survive the round trip unchanged, proving the
        // splice is indistinguishable from full serialization.
        let parsed: Response = serde_json::from_str(spliced).expect("warm line parses");
        let Response::Eval(response) = parsed else {
            panic!("expected a buffered Eval response");
        };
        assert_eq!(response.id, id);
        assert_eq!((response.hits, response.misses), (2, 0));
        assert_eq!(response.cells.len(), 2);
        let rebuilt =
            serde_json::to_string(&Response::Eval(response)).expect("response serializes");
        assert_eq!(
            *spliced, rebuilt,
            "spliced warm line must match serde byte-for-byte"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn engine_v1_replies_are_the_serializers_bytes() {
        use crate::scenario::{AcceleratorKind, DesignPoint, WorkloadSpec};
        // The `api` doctest's invalid cell: design overrides only apply
        // to the YOCO chip, so this one comes back `Failed`.
        let isaac = Scenario::gemm(
            AcceleratorKind::Isaac,
            DesignPoint {
                tiles: Some(2),
                ..Default::default()
            },
            WorkloadSpec::Zoo {
                model: "resnet18".into(),
            },
        );
        let mut failing = tiny_batch();
        failing.push(isaac);
        let cases = [
            ("e-failed", failing, 1),
            ("e-esc \"quoted\" \\ ünïcode", tiny_batch(), 0),
            ("e-empty", Vec::new(), 0),
        ];
        // No cache, so every batch is cold and the engine answers it.
        let rt = runtime(2);
        for (id, batch, failed) in cases {
            let n = batch.len();
            let mut lines = RawLines::default();
            rt.handle_line(
                &line(&Request::Eval(EvalRequest::new(id, batch))),
                &mut lines,
            )
            .unwrap();
            let [reply] = &lines.0[..] else {
                panic!("one v1 line for {id}, got {:?}", lines.0);
            };
            let Ok(Response::Eval(decoded)) = serde_json::from_str::<Response>(reply) else {
                panic!("{id}: the reply does not read back as an Eval: {reply}");
            };
            assert_eq!(decoded.id, id);
            assert_eq!((decoded.hits, decoded.misses), (0, n), "{reply}");
            assert_eq!(decoded.cells.len(), n, "{reply}");
            let failures = decoded
                .cells
                .iter()
                .filter(|c| c.status == CellStatus::Failed)
                .count();
            assert_eq!(failures, failed, "{reply}");
            let rebuilt = serde_json::to_string(&Response::Eval(decoded)).unwrap();
            assert_eq!(*reply, rebuilt, "{id}");
        }
    }

    #[test]
    fn malformed_request_lines_get_pinned_reply_bytes() {
        let rt = runtime(2);
        let cases = [
            (
                r#"{"Eval":{"version":1,"id":"t","scenarios":["#,
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"unexpected input None at byte 43"}}}"#,
            ),
            (
                r#""Ping" x"#,
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"trailing characters at byte 7"}}}"#,
            ),
            (
                r#""Pingg""#,
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"unknown variant `Pingg` for Request"}}}"#,
            ),
            (
                r#"{"Eval":{}}"#,
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"missing field `version` while deserializing EvalRequest"}}}"#,
            ),
            (
                r#"{"Eval":{"version":1,"id":"f","scenarios":[],"force":"yes"}}"#,
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"invalid type for bool: expected boolean"}}}"#,
            ),
            (
                "{}",
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"empty enum object"}}}"#,
            ),
            (
                r#"{"Eval":{"version":1},"Ping":null}"#,
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"missing field `id` while deserializing EvalRequest"}}}"#,
            ),
            // A two-key enum object is read by its first key.
            (r#"{"Ping":null,"Eval":{}}"#, r#""Pong""#),
            (
                r#""P\qng""#,
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"bad escape Some(113)"}}}"#,
            ),
            (
                r#""\ud800""#,
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"unpaired surrogate escape"}}}"#,
            ),
            (
                r#"{"Eval":{"version":4294967296,"id":"v","scenarios":[],"force":false}}"#,
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"invalid type for u32: expected unsigned integer in range"}}}"#,
            ),
            (
                "[1]",
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"invalid type for Request: expected string or object"}}}"#,
            ),
        ];
        for (request, reply) in cases {
            let mut lines = RawLines::default();
            rt.handle_line(request, &mut lines).unwrap();
            assert_eq!(lines.0, [reply], "reply to {request}");
        }
    }

    /// Looks `keys` up as the warm path does, by text.
    fn lookup(memo: &CellMemo, keys: &[String]) -> Option<Vec<Arc<str>>> {
        memo.lookup_all(keys.iter().map(String::as_str))
    }

    #[test]
    fn cell_memo_evicts_oldest_entries_at_cap() {
        let mut memo = CellMemo::new(2);
        let scenarios = [
            Scenario::study(StudyId::Fig9a),
            Scenario::study(StudyId::Table2),
            Scenario::study(StudyId::Fig7),
        ];
        let keys: Vec<String> = scenarios.iter().map(memo_key).collect();
        for (s, key) in scenarios.iter().zip(&keys) {
            memo.insert(key.clone(), format!("frame-{}", s.id));
        }
        assert_eq!(memo.len(), 2, "cap bounds the entry count");
        assert!(
            lookup(&memo, &keys[1..]).is_some(),
            "the two newest entries survive"
        );
        assert!(
            lookup(&memo, &keys[..1]).is_none(),
            "the oldest entry was evicted first"
        );

        // Re-inserting a live key replaces in place: nothing else is
        // evicted and the count stays at cap.
        memo.insert(keys[1].clone(), "frame-refreshed".into());
        assert_eq!(memo.len(), 2);
        let cells = lookup(&memo, &keys[1..2]).expect("refreshed key still present");
        assert_eq!(&*cells[0], "frame-refreshed");
        assert!(
            lookup(&memo, &keys[2..]).is_some(),
            "replacing a live key must not evict its neighbour"
        );
    }

    #[test]
    fn every_scenario_field_moves_the_memo_key() {
        use crate::scenario::{AcceleratorKind, DesignPoint, ScenarioKind, WorkloadSpec};
        use yoco::pipeline::AttentionDims;
        use yoco_arch::workload::LayerKind;
        let fc = |name: &str, m, k, n, kind| WorkloadSpec::Gemm {
            name: name.into(),
            m,
            k,
            n,
            kind,
        };
        let gemm = |accelerator, design, workload| ScenarioKind::Gemm {
            accelerator,
            design,
            workload,
        };
        let attention = |model: &str, dims, design| ScenarioKind::Attention {
            model: model.into(),
            dims,
            design,
        };
        let (yoco, paper, linear) = (
            AcceleratorKind::Yoco,
            DesignPoint::paper(),
            LayerKind::Linear,
        );
        let dims = AttentionDims {
            seq: 128,
            d_model: 768,
            heads: 12,
        };
        let zoo = |model: &str| WorkloadSpec::Zoo {
            model: model.into(),
        };
        // A GEMM, an attention and a study scenario, then one variant
        // per field, each differing from its base in that field alone.
        let mut kinds = vec![
            gemm(yoco, paper, fc("fc", 8, 8, 8, linear)),
            gemm(AcceleratorKind::Isaac, paper, fc("fc", 8, 8, 8, linear)),
            gemm(yoco, paper, fc("fc2", 8, 8, 8, linear)),
            gemm(yoco, paper, fc("fc", 9, 8, 8, linear)),
            gemm(yoco, paper, fc("fc", 8, 9, 8, linear)),
            gemm(yoco, paper, fc("fc", 8, 8, 9, linear)),
            gemm(yoco, paper, fc("fc", 8, 8, 8, LayerKind::Convolution)),
            gemm(yoco, paper, zoo("resnet18")),
            gemm(yoco, paper, zoo("vgg16")),
            attention("bert", dims, paper),
            attention("gpt2", dims, paper),
            attention("bert", AttentionDims { seq: 256, ..dims }, paper),
            attention(
                "bert",
                AttentionDims {
                    d_model: 512,
                    ..dims
                },
                paper,
            ),
            attention("bert", AttentionDims { heads: 8, ..dims }, paper),
            ScenarioKind::Study {
                study: StudyId::Fig9a,
            },
            ScenarioKind::Study {
                study: StudyId::Table2,
            },
        ];
        let knobs: [fn(&mut DesignPoint); 6] = [
            |d| d.ima_stack = Some(2),
            |d| d.ima_width = Some(2),
            |d| d.dimas_per_tile = Some(2),
            |d| d.simas_per_tile = Some(2),
            |d| d.tiles = Some(2),
            |d| d.activity = Some(0.5),
        ];
        for knob in knobs {
            let mut design = paper;
            knob(&mut design);
            kinds.push(gemm(yoco, design, fc("fc", 8, 8, 8, linear)));
            kinds.push(attention("bert", dims, design));
        }
        let mut scenarios: Vec<Scenario> = kinds
            .into_iter()
            .map(|kind| Scenario {
                id: "cell".into(),
                kind,
            })
            .collect();
        scenarios.push(Scenario {
            id: "relabelled".into(),
            ..scenarios[0].clone()
        });
        let keys: std::collections::HashSet<String> = scenarios.iter().map(memo_key).collect();
        assert_eq!(keys.len(), scenarios.len());
    }

    #[test]
    fn a_span_one_byte_off_a_key_is_a_miss_not_another_cells_frame() {
        let (fig9a, table2) = (
            Scenario::study(StudyId::Fig9a),
            Scenario::study(StudyId::Table2),
        );
        let mut memo = CellMemo::new(4);
        let key = memo_key(&table2);
        memo.insert(key.clone(), "frame-table2".into());
        assert!(
            lookup(&memo, &[memo_key(&fig9a)]).is_none(),
            "Fig9a's text must not answer Table2's cell"
        );
        // Every one-byte edit of the key: each byte changed, each byte
        // dropped, and one more byte at each end.
        let mut near: Vec<String> = Vec::new();
        for at in 0..key.len() {
            let mut changed = key.clone().into_bytes();
            changed[at] ^= 0x01;
            near.extend(String::from_utf8(changed).ok());
            let mut dropped = key.clone();
            dropped.remove(at);
            near.push(dropped);
        }
        near.push(format!(" {key}"));
        near.push(format!("{key} "));
        for span in &near {
            assert!(
                lookup(&memo, std::slice::from_ref(span)).is_none(),
                "{span}"
            );
        }
        let cells = lookup(&memo, &[key]).expect("the key itself hits");
        assert_eq!(&*cells[0], "frame-table2");
    }

    #[test]
    fn a_line_nested_past_the_depth_cap_gets_one_error_frame() {
        // Under `MAX_LINE_BYTES`, and deep enough to overflow any stack
        // a recursive parser would run it on.
        let line = format!(r#"{{"Eval":{}"#, "[".repeat(300_000));
        let cache = temp_cache("deep");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        let mut lines = RawLines::default();
        assert!(rt
            .try_handle_warm(&line, Instant::now(), &mut lines)
            .is_none());
        assert!(lines.0.is_empty(), "nothing answered inline");
        assert_eq!(
            rt.handle_line(&line, &mut lines).unwrap(),
            Served::Malformed
        );
        assert_eq!(
            lines.0,
            [
                r#"{"Error":{"SchemaMismatch":{"context":"request line","reason":"recursion limit exceeded at byte 136"}}}"#
            ]
        );
        let mut frames: Vec<Response> = Vec::new();
        assert_eq!(
            rt.handle_line("\"Ping\"", &mut frames).unwrap(),
            Served::Ping
        );
        assert_eq!(frames, [Response::Pong]);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn relabelled_cells_answer_with_the_requested_id() {
        let cache = temp_cache("memo-relabel");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("l-1", tiny_batch()))),
            &mut frames,
        )
        .unwrap();

        // The warm batch again, Table2 under a new display id: same
        // content, so the result cache answers it, but no cell may carry
        // the old label.
        let mut relabelled = tiny_batch();
        relabelled[1].id = "relabelled/table2".into();
        let want = ["relabelled/table2", "study/fig9a"];

        let mut v1: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("l-2", relabelled.clone()))),
            &mut v1,
        )
        .unwrap();
        let [Response::Eval(response)] = &v1[..] else {
            panic!("expected one buffered response, got {v1:?}");
        };
        assert_eq!((response.hits, response.misses), (2, 0));
        let mut ids: Vec<&str> = response.cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        assert_eq!(ids, want, "v1");

        let mut v2: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("l-3", relabelled))),
            &mut v2,
        )
        .unwrap();
        let mut ids: Vec<&str> = v2
            .iter()
            .filter_map(|f| match f {
                Response::Cell(c) => Some(c.id.as_str()),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, want, "v2");
        let Some(Response::Done { hits, misses, .. }) = v2.last() else {
            panic!("expected v2 to end Done, got {v2:?}");
        };
        assert_eq!((*hits, *misses), (2, 0), "v2");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn overlapping_batches_share_per_cell_memo_entries() {
        let cache = temp_cache("memo-overlap");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        // Batch A computes {Fig9a, Table2} and memoizes each cell.
        let mut cold: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("o-1", tiny_batch()))),
            &mut cold,
        )
        .unwrap();

        // Deleting the cache dir proves the overlap is served from the
        // memo, not the disk.
        std::fs::remove_dir_all(cache.dir()).expect("cache dir removable");

        // Batch B is a different batch that overlaps A in Table2 only.
        // Under per-batch keying this would be a full recompute; with
        // per-cell keys the shared cell replays warm.
        let sub = vec![Scenario::study(StudyId::Table2)];
        let mut warm: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("o-2", sub.clone()))),
                &mut warm,
            )
            .unwrap();
        assert_eq!(
            served,
            Served::Eval {
                id: "o-2".into(),
                cells: 1,
                hits: 1,
                misses: 0,
                streamed: true,
            },
            "the overlapping cell must come out of the memo"
        );
        let Some(Response::Cell(cell)) = warm.iter().find(|f| matches!(f, Response::Cell(_)))
        else {
            panic!("expected a Cell frame, got {warm:?}");
        };
        let cold_match = cold.iter().find_map(|f| match f {
            Response::Cell(c) if c.id == cell.id => Some(c),
            _ => None,
        });
        assert_eq!(
            cold_match.unwrap().metrics,
            cell.metrics,
            "the shared cell replays batch A's payload"
        );

        // The buffered protocol shares the same per-cell entries.
        let mut v1: Vec<Response> = Vec::new();
        rt.handle_line(&line(&Request::Eval(EvalRequest::new("o-3", sub))), &mut v1)
            .unwrap();
        let Some(Response::Eval(response)) = v1.first() else {
            panic!("expected a buffered response, got {v1:?}");
        };
        assert_eq!(response.hits, 1);
        assert_eq!(response.misses, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn terminal_frames_leave_after_the_exchange_is_counted() {
        let cache = temp_cache("commit");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 1,
                jobs: 2,
            },
        );
        let snapshot = || (rt.status(), rt.metrics().snapshot());
        let v1 = |id: &str| line(&Request::Eval(EvalRequest::new(id, tiny_batch())));
        let v2 = |id: &str| line(&Request::Eval(EvalRequest::streaming(id, tiny_batch())));
        let mut forced = EvalRequest::new("cold-v1", tiny_batch());
        forced.force = true;
        // Cold v2 and v1 run the engine; the warm pairs replay the memo,
        // first after admission on a worker, then inline on the reactor
        // thread.
        let exchanges = [
            (v2("cold-v2"), false),
            (line(&Request::Eval(forced)), false),
            (v2("warm-v2"), false),
            (v1("warm-v1"), false),
            (v2("inline-v2"), true),
            (v1("inline-v1"), true),
        ];
        for (n, (request, inline)) in (1u64..).zip(&exchanges) {
            let mut probe = TerminalProbe::new(&snapshot);
            if *inline {
                rt.try_handle_warm(request, Instant::now(), &mut probe)
                    .expect("memoized batch answers inline")
                    .unwrap();
            } else {
                rt.handle_line(request, &mut probe).unwrap();
            }
            let [(frame, status, metrics)] = &probe.seen[..] else {
                panic!("one terminal frame, got {:?}", probe.seen);
            };
            assert_eq!(status.served, n, "served counted before {frame:?}");
            assert_eq!(status.cells, 2 * n, "cells counted before {frame:?}");
            assert_eq!(status.occupancy, 0, "slot freed before {frame:?}");
            assert_eq!(metrics.counter("requests_total"), Some(n));
            assert_eq!(metrics.counter("requests_served_total"), Some(n));
            assert_eq!(metrics.hist("flush_us").unwrap().count, n);
        }

        // A rejection is counted before its Busy frame.
        let _held = rt.gate().try_enter().expect("hold the only slot");
        let mut probe = TerminalProbe::new(&snapshot);
        rt.handle_line(&v2("busy-v2"), &mut probe).unwrap();
        let [(Response::Busy { .. }, status, metrics)] = &probe.seen[..] else {
            panic!("one Busy frame, got {:?}", probe.seen);
        };
        assert_eq!(status.rejected, 1);
        assert_eq!(metrics.counter("requests_total"), Some(7));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn each_runtime_scrapes_its_own_metrics() {
        let runtimes = [runtime(2), runtime(2)];
        for (n, rt) in runtimes.iter().enumerate() {
            let mut frames: Vec<Response> = Vec::new();
            rt.handle_line(
                &line(&Request::Eval(EvalRequest::new(
                    format!("own-{n}"),
                    tiny_batch(),
                ))),
                &mut frames,
            )
            .unwrap();
        }
        for rt in &runtimes {
            let mut frames: Vec<Response> = Vec::new();
            rt.handle_line("\"Metrics\"", &mut frames).unwrap();
            let [Response::Metrics(report)] = &frames[..] else {
                panic!("expected one Metrics frame, got {frames:?}");
            };
            assert_eq!(report.counter("requests_total"), Some(1));
            assert_eq!(report.counter("cells_total"), Some(2));
            assert_eq!(rt.status().served, 1);
        }
    }

    #[test]
    fn raw_frames_decode_through_the_default_sink_path() {
        let mut frames: Vec<Response> = Vec::new();
        let sink: &mut dyn FrameSink = &mut frames;
        sink.send_raw("\"Pong\"").unwrap();
        assert!(sink.send_raw("not a frame").is_err());
        assert_eq!(frames, vec![Response::Pong]);
    }
}

/// Ignored-by-default timing probes for the warm fast path. Run with
/// `cargo test -p yoco-sweep --release -- --ignored microbench` when
/// chasing a warm-throughput regression. For each `warm-serve` request
/// shape (the fig8 and fig9a v1 lines and an 8-cell `dse-full` v2
/// subset) it times the two halves of the `Value` path, text → `Value`
/// and `Value` → `Request`, against the typed decode that
/// `serde_json::from_str` runs on a worker and a `skip_value` walk of
/// the line (the lexer alone), and then the two steps of the reactor's
/// warm path: the span scan (the envelope decoded, each cell's text
/// found) and the text lookup of those spans in the memo.
#[cfg(test)]
mod microbench {
    use super::*;
    use crate::api::{EvalRequest, Request};
    use crate::grids;
    use serde::Deserialize;
    use std::hint::black_box;
    use std::time::Instant;

    const ROUNDS: u32 = 10;
    const ITERS: u32 = 200;

    /// Prints the fastest of `ROUNDS` round means, which a noisy
    /// neighbour on a shared host moves least.
    fn time(label: &str, what: &str, mut f: impl FnMut()) {
        let best = (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..ITERS {
                    f();
                }
                t.elapsed() / ITERS
            })
            .min()
            .expect("at least one round");
        eprintln!("{label} {what}: {best:?}/iter");
    }

    #[test]
    #[ignore]
    fn warm_path_piece_timings() {
        let fig8 = grids::resolve("fig8").expect("grid");
        let dse = grids::resolve("dse-full").expect("grid");
        let subset = dse.iter().step_by(dse.len() / 8).take(8).cloned().collect();
        let shapes = [
            ("fig8", EvalRequest::new("bench", fig8.clone())),
            (
                "fig9a",
                EvalRequest::new("bench", grids::resolve("fig9a").expect("grid")),
            ),
            ("dse-full/8", EvalRequest::streaming("bench", subset)),
        ];
        for (label, req) in shapes {
            let scenarios = req.scenarios.clone();
            let request = Request::Eval(req);
            let line = serde_json::to_string(&request).unwrap();
            eprintln!("{label} request line bytes: {}", line.len());
            let tree = serde_json::parse_value(&line).unwrap();
            let typed = || {
                let mut r = serde::Reader::new(&line);
                let decoded = Request::from_json(&mut r).expect("typed decode");
                r.end().expect("one value");
                decoded
            };
            assert_eq!(typed(), request);
            assert_eq!(serde_json::from_value::<Request>(&tree).unwrap(), request);
            time(label, "text -> Value", || {
                black_box(serde_json::parse_value(&line).unwrap());
            });
            time(label, "Value -> Request", || {
                black_box(serde_json::from_value::<Request>(&tree).unwrap());
            });
            time(label, "typed decode", || {
                black_box(typed());
            });
            // The lexer alone: a walk that checks the line and builds
            // nothing.
            time(label, "skip_value walk", || {
                let mut r = serde::Reader::new(black_box(&line));
                r.skip_value().expect("valid line");
                r.end().expect("one value");
            });
            time(label, "span scan", || {
                black_box(warm_envelope(black_box(&line)).expect("warm line"));
            });
            let mut memo = CellMemo::new(MEMO_CAP);
            for s in &scenarios {
                memo.insert(memo_key(s), String::new());
            }
            let (_, spans) = warm_envelope(&line).expect("warm line");
            time(label, "text lookup", || {
                black_box(
                    memo.lookup_all(spans.iter().copied())
                        .expect("all memoized"),
                );
            });
        }
    }
}
