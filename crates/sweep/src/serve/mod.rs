//! The server runtime behind `yoco-serve`: one shared engine and cache
//! for every connection, fronted by admission control.
//!
//! The PR-2 frontend ran one engine per connection and accepted
//! unbounded work; this module is the piece that turns the NDJSON
//! protocol into a real service:
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
//!   transient-oversubscription caveat).
//! * **Streaming** — protocol-v2 requests are answered incrementally
//!   (`Accepted` at admission, one `Cell` frame per scenario in
//!   completion order via [`Engine::run_with`], then `Done`), so large
//!   grids report progress instead of going silent.
//! * **Warm-path memoization** — a bounded in-memory memo keyed by the
//!   request's scenario list holds the pre-serialized `Cell` frame bytes
//!   (and the matching buffered cells) of completed batches, so a warm
//!   repeat skips both the per-cell cache re-reads and the per-request
//!   re-serialization that bounded throughput before.
//! * **Observability** — a `"Status"` control line answers a
//!   [`StatusReport`] (occupancy, queue depth, jobs, service counters)
//!   without touching the gate, so load balancers — including the
//!   [`crate::cluster`] coordinator — can probe a fully busy server.
//! * **One lifecycle** — the runtime and the cluster coordinator answer
//!   every evaluation request through the same sequence: admit,
//!   `Accepted` (v2), one backend call, commit, terminal frame. The
//!   commit — counters, stage samples, and span records in this
//!   server's own metrics registry — lands before the terminal frame
//!   leaves.
//!
//! Frames leave through the [`FrameSink`] trait, so the whole dispatch
//! ([`Runtime::handle_line`]) is testable in process — `Vec<Response>`
//! is a sink — while the binaries serve TCP through the event-driven
//! epoll reactor ([`reactor::serve_reactor`], generic over
//! [`LineHandler`] so the cluster coordinator reuses it unchanged).

use crate::api::{
    CellOutcome, CellStatus, EvalRequest, EvalResponse, Request, Response, StatusReport,
    SweepError, API_V1, API_V2,
};
use crate::engine::{Engine, SweepReport};
use crate::executor;
use crate::scenario::Scenario;
use crate::telemetry::{trace, Registry};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub mod reactor;

pub use reactor::{serve_reactor, ReactorConfig, DEFAULT_OUTBUF_CAP};

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

/// Sizing of the runtime: admission bound and worker budget.
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
    /// The warm-path memo and the cluster coordinator forward frames as
    /// raw bytes through this, skipping re-serialization; the default
    /// decodes and falls back to [`FrameSink::send`] so in-process
    /// collector sinks still see typed frames.
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

/// One memoized cell (status already rewritten to `Hit`), held as its
/// two pre-serialized wire forms: the v2 `Cell` frame line and the
/// standalone outcome object spliced into buffered v1 `cells` arrays.
#[derive(Debug)]
struct MemoCell {
    line: String,
    outcome_json: String,
}

impl MemoCell {
    fn new(outcome: CellOutcome) -> Self {
        let line = serde_json::to_string(&Response::Cell(outcome.clone()))
            .expect("frame serialization is infallible");
        let outcome_json =
            serde_json::to_string(&outcome).expect("frame serialization is infallible");
        Self { line, outcome_json }
    }
}

/// The per-cell warm memo: scenario content (plus display id, which
/// appears verbatim in frames) → pre-serialized `Cell` frame. Keyed
/// per cell rather than per batch so overlapping grids share entries —
/// a batch warmed by *any* combination of earlier requests replays
/// without touching the cache. Bounded FIFO: inserting past `cap`
/// evicts the oldest keys.
#[derive(Debug)]
struct CellMemo {
    entries: HashMap<String, Arc<MemoCell>>,
    /// Insertion order of `entries` keys (no duplicates: re-inserting
    /// an existing key replaces the value in place), the FIFO eviction
    /// queue.
    order: VecDeque<String>,
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

    /// The memo key of one scenario. [`Scenario::cache_key`] hashes
    /// normalized content only — the display id is deliberately not
    /// part of it — but `Cell` frames embed the id, so two scenarios
    /// with identical content and different labels must not share a
    /// memoized frame.
    fn key(scenario: &Scenario) -> String {
        format!("{}\u{1f}{}", scenario.id, scenario.cache_key())
    }

    /// All-or-nothing lookup: the memoized cells of `scenarios` in
    /// request order, or `None` if any cell is missing (the engine run
    /// then recomputes only what the result cache cannot answer).
    fn lookup_all(&self, scenarios: &[Scenario]) -> Option<Vec<Arc<MemoCell>>> {
        scenarios
            .iter()
            .map(|s| self.entries.get(&Self::key(s)).cloned())
            .collect()
    }

    fn insert(&mut self, key: String, cell: MemoCell) {
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = Arc::new(cell);
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
        self.order.push_back(key.clone());
        self.entries.insert(key, Arc::new(cell));
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One fully-memoized batch: the shared per-cell entries in request
/// order plus the pre-assembled v1 `cells` array fragment, so a
/// buffered warm response splices cached bytes instead of cloning and
/// re-serializing every outcome.
#[derive(Debug)]
pub(crate) struct BatchEntry {
    cells: Vec<Arc<MemoCell>>,
    /// `[<outcome>,<outcome>,…]` — byte-identical to serde's
    /// serialization of the response's `cells` vector.
    cells_json: String,
}

impl BatchEntry {
    fn assemble(cells: Vec<Arc<MemoCell>>) -> Self {
        let mut cells_json = String::with_capacity(
            2 + cells
                .iter()
                .map(|c| c.outcome_json.len() + 1)
                .sum::<usize>(),
        );
        cells_json.push('[');
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                cells_json.push(',');
            }
            cells_json.push_str(&cell.outcome_json);
        }
        cells_json.push(']');
        Self { cells, cells_json }
    }
}

/// The batch-level front of the warm memo: one fingerprint of the
/// request's scenario list (a single serialize + hash) instead of a
/// per-cell key computation per request — on a warm repeat the key
/// derivation was most of the server's CPU. Entries are assembled from
/// [`CellMemo`] hits, whose values are deterministic, so a batch entry
/// can never go stale — only cold. Bounded FIFO like the cell memo.
#[derive(Debug)]
struct BatchMemo {
    entries: HashMap<u64, Arc<BatchEntry>>,
    order: VecDeque<u64>,
    cap: usize,
}

impl BatchMemo {
    fn new(cap: usize) -> Self {
        Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// The batch fingerprint: every scenario hashed structurally, in
    /// order ([`hash_scenario`]). Structural rather than serialized —
    /// formatting 40 scenarios' floats back into JSON costs more than
    /// the whole warm lookup it would key. Identical batches collide
    /// (which is the point); normalized-equal but differently-spelled
    /// batches get separate entries that share the underlying
    /// [`MemoCell`]s.
    fn key(scenarios: &[Scenario]) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        scenarios.len().hash(&mut h);
        for scenario in scenarios {
            hash_scenario(scenario, &mut h);
        }
        h.finish()
    }

    fn lookup(&self, key: u64) -> Option<Arc<BatchEntry>> {
        self.entries.get(&key).cloned()
    }

    fn insert(&mut self, key: u64, entry: Arc<BatchEntry>) {
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = entry;
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
        self.order.push_back(key);
        self.entries.insert(key, entry);
    }
}

/// Bound on memoized batch entries ([`BatchMemo`]). Smaller than
/// [`MEMO_CAP`]: entries are per distinct request shape, not per cell.
const MEMO_BATCH_CAP: usize = 256;

/// Feeds one scenario into `h` structurally: strings as bytes, enums
/// as discriminants, floats by bit pattern — no text formatting. Every
/// field that distinguishes two scenarios on the wire must be hashed
/// here; an omission would let [`BatchMemo`] answer one batch with
/// another's cells. So every struct and struct variant is destructured
/// in full, without `..`: a new field breaks the build here instead of
/// silently aliasing batches.
fn hash_scenario(s: &Scenario, h: &mut impl Hasher) {
    use crate::scenario::{ScenarioKind, WorkloadSpec};
    use std::mem::discriminant;
    use yoco::pipeline::AttentionDims;
    let Scenario { id, kind } = s;
    id.hash(h);
    discriminant(kind).hash(h);
    match kind {
        ScenarioKind::Gemm {
            accelerator,
            design,
            workload,
        } => {
            discriminant(accelerator).hash(h);
            hash_design(design, h);
            discriminant(workload).hash(h);
            match workload {
                WorkloadSpec::Zoo { model } => model.hash(h),
                WorkloadSpec::Gemm {
                    name,
                    m,
                    k,
                    n,
                    kind,
                } => {
                    name.hash(h);
                    (m, k, n).hash(h);
                    discriminant(kind).hash(h);
                }
            }
        }
        ScenarioKind::Attention {
            model,
            dims:
                AttentionDims {
                    seq,
                    d_model,
                    heads,
                },
            design,
        } => {
            model.hash(h);
            (seq, d_model, heads).hash(h);
            hash_design(design, h);
        }
        ScenarioKind::Study { study } => discriminant(study).hash(h),
    }
}

/// The [`hash_scenario`] leaf for design points: `Option` knobs hash
/// directly, the float knob hashes by bit pattern.
fn hash_design(d: &crate::scenario::DesignPoint, h: &mut impl Hasher) {
    let crate::scenario::DesignPoint {
        ima_stack,
        ima_width,
        dimas_per_tile,
        simas_per_tile,
        tiles,
        activity,
    } = d;
    (ima_stack, ima_width, dimas_per_tile, simas_per_tile, tiles).hash(h);
    activity.map(f64::to_bits).hash(h);
}

/// The request lifecycle both endpoints share — the single-box
/// [`Runtime`] and the cluster
/// [`Coordinator`](crate::cluster::Coordinator) — together with the
/// admission gate and the metrics registry it commits to. One
/// evaluation request runs these steps, in order ([`Lifecycle::serve`]):
///
/// 1. admit it and open its span (the `queued` stage);
/// 2. send `Accepted` (v2 only);
/// 3. make one backend call — the engine plus the warm memo, or the
///    cluster fan-out — which hands each finished cell to an emit
///    callback (v2 streams it, v1 buffers it) and returns the totals;
/// 4. commit: counters, the `eval` and `flush` samples, span records;
/// 5. send the terminal frame (`Eval` for v1, `Done` for v2).
///
/// Committing before the terminal frame is what lets a client reacting
/// to it instantly — a `Status` or `Metrics` probe, a span-file reader —
/// see its exchange already counted.
#[derive(Debug)]
pub(crate) struct Lifecycle {
    pub(crate) gate: Gate,
    pub(crate) metrics: Registry,
    /// Names the endpoint in version refusals.
    speaker: &'static str,
}

/// Where a backend hands each finished cell: its position in the batch,
/// its outcome, and its frame line when the backend already holds one
/// (a worker's forwarded bytes). Called from several threads at once.
pub(crate) type Emit<'a> = dyn Fn(usize, CellOutcome, Option<&str>) + Sync + 'a;

/// What one backend call produced.
pub(crate) enum Ran {
    /// Every cell went through the emit callback; the batch's cache
    /// split.
    Cells { hits: usize, misses: usize },
    /// Every cell is memoized: the lifecycle replays the batch's
    /// pre-serialized frames (raw v2 `Cell` lines, or the spliced v1
    /// line) and nothing is evaluated.
    Memo(Arc<BatchEntry>),
}

impl Lifecycle {
    pub(crate) fn new(queue_depth: usize, speaker: &'static str) -> Self {
        Self {
            gate: Gate::new(queue_depth),
            metrics: Registry::default(),
            speaker,
        }
    }

    /// The gate and registry view of a [`StatusReport`]; the endpoint
    /// adds its role and sizing.
    pub(crate) fn status(&self) -> StatusReport {
        let mut report = StatusReport {
            occupancy: self.gate.occupancy(),
            queue_depth: self.gate.depth(),
            service_estimate_ms: self.gate.service_estimate_ms().round() as u64,
            busy_ms: self.gate.slot_held_ms(),
            ..StatusReport::default()
        };
        self.metrics.fill_status(&mut report);
        report
    }

    /// Decodes one request line and answers what is the same at both
    /// endpoints: control frames (`Ping`/`Status`/`Metrics`/`Shutdown`),
    /// malformed lines, and unsupported versions. A v1/v2 evaluation
    /// request is counted and handed to `eval`.
    pub(crate) fn dispatch(
        &self,
        line: &str,
        sink: &mut dyn FrameSink,
        status: impl FnOnce() -> StatusReport,
        eval: impl FnOnce(EvalRequest, &mut dyn FrameSink) -> io::Result<Served>,
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
                sink.send(&Response::Status(status()))?;
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
                self.metrics.note_request();
                if req.version == API_V1 || req.version == API_V2 {
                    return eval(req, sink);
                }
                sink.send(&Response::Eval(EvalResponse::refusal(
                    req.id.clone(),
                    SweepError::schema(
                        "request envelope",
                        format!(
                            "client speaks version {}, {} speaks {API_V1} (buffered) and \
                             {API_V2} (streamed)",
                            req.version, self.speaker
                        ),
                    ),
                )))?;
                Ok(Served::Refused { id: req.id })
            }
        }
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
            self.metrics.note_deadline_drop();
            return Err(Busy {
                retry_after_ms: self.gate.retry_hint_ms(),
            });
        }
        self.gate.try_enter()
    }

    /// Runs steps 1–5 (see [`Lifecycle`]) for one counted v1/v2
    /// request. `prepare` runs after admission, before `Accepted`; its
    /// `Err` refuses the request (the coordinator: no worker answered
    /// its probe). `run` is the backend call; its `Err` refuses the
    /// request after `Accepted` (the coordinator: every worker busy).
    pub(crate) fn serve<T>(
        &self,
        req: EvalRequest,
        received: Instant,
        sink: &mut dyn FrameSink,
        prepare: impl FnOnce() -> Result<T, Busy>,
        run: impl FnOnce(T, &EvalRequest, Option<&str>, &Emit<'_>) -> Result<Ran, Busy>,
    ) -> io::Result<Served> {
        let streamed = req.version == API_V2;
        let mut ticket = match self.admit(&req, received) {
            Ok(ticket) => ticket,
            Err(busy) => return self.reject(sink, req.id, streamed, busy),
        };
        let queued = received.elapsed();
        self.metrics.observe_queue_wait(queued);
        let span = trace::span_for_request(&req.id);
        record_stage(span.as_deref(), &req, "queued", queued);
        let prepared = match prepare() {
            Ok(prepared) => prepared,
            Err(busy) => {
                // A refusal's duration (probe timeouts) is not service
                // time; keep it out of the retry-hint EWMA.
                ticket.skip_service_record();
                return self.reject(sink, req.id, streamed, busy);
            }
        };
        if streamed {
            sink.send(&Response::Accepted {
                id: req.id.clone(),
                position: ticket.position(),
            })?;
        }

        // Cells arrive on several threads (engine workers, dispatch
        // threads). v2 forwards each through the latch, which serializes
        // the sends and, past the first transport error, stops writing
        // but lets the backend finish (caches still fill, so the
        // client's retry is warm); v1 buffers them for its one line.
        let eval_started = Instant::now();
        let latch = LatchSink::new(sink);
        let buffered = Mutex::new(Vec::new());
        let ran = run(prepared, &req, span.as_deref(), &|i, cell, line| {
            if !streamed {
                buffered.lock().expect("buffer lock").push((i, cell));
            } else if let Some(line) = line {
                latch.send_raw(line);
            } else {
                latch.send(&Response::Cell(cell));
            }
        });
        let (sink, error) = latch.finish();
        if let Some(e) = error {
            return Err(e);
        }
        let flush_started = Instant::now();
        if !matches!(ran, Ok(Ran::Memo(_))) {
            let evaled = flush_started - eval_started;
            self.metrics.observe_eval(evaled);
            record_stage(span.as_deref(), &req, "eval", evaled);
        }
        let done = |hits, misses| {
            frame_line(&Response::Done {
                id: req.id.clone(),
                hits,
                misses,
            })
        };
        let (hits, misses, terminal) = match ran {
            Err(busy) => {
                ticket.skip_service_record();
                return self.reject(sink, req.id, streamed, busy);
            }
            Ok(Ran::Cells { hits, misses }) if streamed => (hits, misses, done(hits, misses)?),
            Ok(Ran::Cells { hits, misses }) => {
                let cells = buffered.into_inner().expect("buffer lock");
                (hits, misses, buffered_line(&req.id, cells, hits, misses)?)
            }
            // Memo replays finish in microseconds and never queue
            // anyone; folding them into the service-time EWMA would
            // collapse the busy hint while slow requests hold slots.
            Ok(Ran::Memo(entry)) => {
                ticket.skip_service_record();
                self.metrics.note_memo_served();
                let n = entry.cells.len();
                if !streamed {
                    (n, 0, warm_eval_line(&req.id, &entry))
                } else {
                    for cell in &entry.cells {
                        sink.send_raw(&cell.line)?;
                    }
                    (n, 0, done(n, 0)?)
                }
            }
        };

        // The slot is freed and the exchange counted before the terminal
        // frame leaves: a client reacting to it instantly must see its
        // slot available and its request counted.
        drop(ticket);
        let cells = hits + misses;
        self.metrics
            .note_served(cells as u64, hits as u64, misses as u64);
        let flushed = flush_started.elapsed();
        self.metrics.observe_flush(flushed);
        record_stage(span.as_deref(), &req, "flush", flushed);
        sink.send_raw(&terminal)?;
        Ok(Served::Eval {
            id: req.id,
            cells,
            hits,
            misses,
            streamed,
        })
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
        self.metrics.note_rejected();
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

/// Appends one stage record for a traced request. Records aggregate
/// under the batch's first scenario id (requests built from the
/// named-grid CLI are homogeneous, so one id names the whole batch).
fn record_stage(span: Option<&str>, req: &EvalRequest, stage: &str, dur: Duration) {
    if let Some(span) = span {
        let grid = req.scenarios.first().map_or("empty", |s| s.id.as_str());
        trace::record(span, &req.id, grid, stage, dur, req.scenarios.len());
    }
}

/// The v1 response line over the cells a backend emitted, in any order.
fn buffered_line(
    id: &str,
    mut cells: Vec<(usize, CellOutcome)>,
    hits: usize,
    misses: usize,
) -> io::Result<String> {
    cells.sort_unstable_by_key(|&(i, _)| i);
    frame_line(&Response::Eval(EvalResponse {
        version: API_V1,
        id: id.to_owned(),
        cells: cells.into_iter().map(|(_, cell)| cell).collect(),
        hits,
        misses,
        error: None,
    }))
}

/// One frame's wire line.
fn frame_line(frame: &Response) -> io::Result<String> {
    serde_json::to_string(frame).map_err(|e| io::Error::other(e.to_string()))
}

/// The shared server runtime: one engine + cache + admission gate,
/// shared by every connection, answering through the request lifecycle
/// it shares with the cluster coordinator. The transport (TCP, a test
/// harness) feeds request lines to [`Runtime::handle_line`] with a sink
/// for the reply frames.
#[derive(Debug)]
pub struct Runtime {
    engine: Engine,
    lifecycle: Lifecycle,
    jobs_budget: usize,
    memo: Mutex<CellMemo>,
    batch_memo: Mutex<BatchMemo>,
}

impl Runtime {
    /// A runtime over `engine` (whose own `jobs` setting is overridden
    /// per request by the split budget).
    pub fn new(engine: Engine, config: ServeConfig) -> Self {
        Self {
            engine,
            lifecycle: Lifecycle::new(config.queue_depth, "server"),
            jobs_budget: config.jobs.max(1),
            memo: Mutex::new(CellMemo::new(MEMO_CAP)),
            batch_memo: Mutex::new(BatchMemo::new(MEMO_BATCH_CAP)),
        }
    }

    /// The admission gate (exposed for observability).
    pub fn gate(&self) -> &Gate {
        &self.lifecycle.gate
    }

    /// The engine policy requests run under.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The current [`StatusReport`]: occupancy, sizing, and service
    /// counters. Control-plane — never touches the gate.
    pub fn status(&self) -> StatusReport {
        StatusReport {
            role: "serve".into(),
            jobs: self.jobs_budget,
            ..self.lifecycle.status()
        }
    }

    /// Handles one request line end to end, emitting every reply frame
    /// through `sink`. An `Err` means the sink failed (client gone) —
    /// the protocol itself never errors out of this function.
    pub fn handle_line(&self, line: &str, sink: &mut dyn FrameSink) -> io::Result<Served> {
        self.handle_line_at(line, Instant::now(), sink)
    }

    /// Answers `line` on the calling thread iff it can be served
    /// without compute: an eval request whose every cell is memoized
    /// (or that the gate rejects outright). `None` defers to
    /// [`LineHandler::handle_line_at`] with no frames emitted. The reactor
    /// calls this from its event thread, sparing warm repeats the
    /// worker handoff — two context switches per request, which is
    /// most of a warm request's latency on a loaded box.
    pub fn try_handle_warm(
        &self,
        line: &str,
        received: Instant,
        sink: &mut dyn FrameSink,
    ) -> Option<io::Result<Served>> {
        let Ok(Request::Eval(req)) = serde_json::from_str::<Request>(line) else {
            return None;
        };
        if req.version != API_V1 && req.version != API_V2 {
            return None;
        }
        // The memo probe comes before admission: it holds no slot, and
        // on a miss the line is re-dispatched untouched (the worker
        // repeats the admission verdict, so rejection bytes are
        // identical either way).
        let entry = self.memo_lookup(&req)?;
        // This request is handled here for good — it never reaches
        // `Lifecycle::dispatch` — so it joins `requests_total` now.
        self.lifecycle.metrics.note_request();
        Some(self.serve(req, received, sink, Some(entry)))
    }

    /// The runtime's pass through the lifecycle. Its backend is the
    /// warm memo — `warm` when the reactor already found the batch
    /// memoized, else a lookup after admission — or, on a miss, the
    /// engine, whose finished cells then refresh the memo.
    fn serve(
        &self,
        req: EvalRequest,
        received: Instant,
        sink: &mut dyn FrameSink,
        warm: Option<Arc<BatchEntry>>,
    ) -> io::Result<Served> {
        self.lifecycle.serve(
            req,
            received,
            sink,
            || Ok(()),
            |(), req, _, emit| {
                Ok(match warm.or_else(|| self.memo_lookup(req)) {
                    Some(entry) => Ran::Memo(entry),
                    None => self.evaluate(req, emit),
                })
            },
        )
    }

    /// A memo miss: the engine runs the batch (cache hits still count
    /// as hits) and its finished cells refresh the memo.
    fn evaluate(&self, req: &EvalRequest, emit: &Emit) -> Ran {
        let report = self
            .request_engine(req.force)
            .run_with(&req.scenarios, |i, cell| {
                emit(i, CellOutcome::from_cell(cell), None);
            });
        self.memo_store(&report);
        Ran::Cells {
            hits: report.hits,
            misses: report.misses,
        }
    }

    /// The memoized cells answering a request, if the warm path
    /// applies: the memo mirrors the result cache, so it is only
    /// consulted when a cache is attached (without one, a repeat
    /// request genuinely recomputes and must report misses), never
    /// under `force`, and only when *every* cell of the batch is
    /// memoized (cells memoized by any earlier batch count — the keys
    /// are per cell, so overlapping grids share).
    fn memo_lookup(&self, req: &EvalRequest) -> Option<Arc<BatchEntry>> {
        if req.force || self.engine.cache().is_none() {
            return None;
        }
        // Batch fingerprint first: a repeat of a known request shape
        // answers with one hash and one map probe, skipping the
        // per-cell key derivation below entirely.
        let key = BatchMemo::key(&req.scenarios);
        if let Some(entry) = self.batch_memo.lock().expect("batch memo lock").lookup(key) {
            return Some(entry);
        }
        let cells = self
            .memo
            .lock()
            .expect("memo lock")
            .lookup_all(&req.scenarios)?;
        let entry = Arc::new(BatchEntry::assemble(cells));
        self.batch_memo
            .lock()
            .expect("batch memo lock")
            .insert(key, Arc::clone(&entry));
        Some(entry)
    }

    /// Memoizes a completed batch's cells for warm repeats. Failed
    /// cells are never memoized (a retry should re-attempt them, and a
    /// replay must not resurrect stale failures), and without a cache
    /// the memo stays off entirely.
    fn memo_store(&self, report: &SweepReport) {
        if self.engine.cache().is_none() {
            return;
        }
        let mut memo = self.memo.lock().expect("memo lock");
        for cell in report.cells.iter().filter(|c| c.error.is_none()) {
            let mut outcome = CellOutcome::from_cell(cell);
            outcome.status = CellStatus::Hit;
            memo.insert(CellMemo::key(&cell.scenario), MemoCell::new(outcome));
        }
    }

    /// The engine policy for one admitted request: the shared engine
    /// with its share of the worker budget (split across everything in
    /// flight at admission time) and the request's `force` flag.
    fn request_engine(&self, force: bool) -> Engine {
        let share = split_jobs(self.jobs_budget, self.gate().occupancy());
        self.engine.clone().jobs(share).force(force)
    }
}

/// Assembles the buffered v1 warm response line around a batch's
/// pre-serialized `cells` fragment — splicing cached bytes instead of
/// cloning and re-serializing every outcome. Byte-identical to
/// serializing the equivalent [`Response::Eval`] (a unit test pins
/// this): the fast path must not be distinguishable on the wire.
fn warm_eval_line(id: &str, entry: &BatchEntry) -> String {
    use std::fmt::Write as _;
    let id_json = serde_json::to_string(id).expect("string serialization is infallible");
    let n = entry.cells.len();
    let mut line = String::with_capacity(entry.cells_json.len() + id_json.len() + 64);
    let _ = write!(
        line,
        "{{\"Eval\":{{\"version\":{API_V1},\"id\":{id_json},\"cells\":{cells},\"hits\":{n},\"misses\":0,\"error\":null}}}}",
        cells = entry.cells_json,
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

    fn dispatch(&self, send: impl FnOnce(&mut dyn FrameSink) -> io::Result<()>) {
        let mut guard = self.inner.lock().expect("sink lock");
        if guard.1.is_some() {
            return;
        }
        if let Err(e) = send(guard.0) {
            guard.1 = Some(e);
        }
    }

    /// Sends one typed frame (no-op once an error is latched).
    fn send(&self, frame: &Response) {
        self.dispatch(|sink| sink.send(frame));
    }

    /// Forwards one already-serialized frame line (no-op once an error
    /// is latched).
    fn send_raw(&self, line: &str) {
        self.dispatch(|sink| sink.send_raw(line));
    }

    /// Hands the sink back along with the first error, if any.
    fn finish(self) -> (&'a mut dyn FrameSink, Option<io::Error>) {
        self.inner.into_inner().expect("sink lock")
    }
}

/// One NDJSON dispatch endpoint: request line in, frames out. Both the
/// single-box [`Runtime`] and the cluster
/// [`Coordinator`](crate::cluster::Coordinator) implement this, so the
/// epoll reactor ([`reactor::serve_reactor`]) serves either without
/// change.
pub trait LineHandler: Send + Sync {
    /// Handles one request line end to end (see
    /// [`Runtime::handle_line`]). `received` is when the transport
    /// parsed the line off the wire: the reactor stamps each line as it
    /// is parsed off the socket, so a request's `deadline_ms` measures
    /// real queueing time (parse → worker pickup → admission), not just
    /// the final dispatch hop.
    fn handle_line_at(
        &self,
        line: &str,
        received: Instant,
        sink: &mut dyn FrameSink,
    ) -> io::Result<Served>;

    /// [`LineHandler::handle_line_at`] with receipt = now, for callers
    /// that dispatch synchronously with the read (in-process tests and
    /// one-shot drivers).
    fn handle_line(&self, line: &str, sink: &mut dyn FrameSink) -> io::Result<Served> {
        self.handle_line_at(line, Instant::now(), sink)
    }

    /// Answers `line` on the calling thread when that cannot involve
    /// compute, or returns `None` (emitting nothing) to defer it to
    /// [`LineHandler::handle_line_at`]. The reactor probes this from
    /// its event thread before paying the worker handoff; the default
    /// defers everything.
    fn try_handle_warm(
        &self,
        _line: &str,
        _received: Instant,
        _sink: &mut dyn FrameSink,
    ) -> Option<io::Result<Served>> {
        None
    }

    /// This server's metrics registry. The reactor records its own
    /// transport metrics here (loop passes, reads, out-buffer depth,
    /// fd sheds, slow readers), beside the endpoint's request counts.
    fn metrics(&self) -> &Registry;
}

impl LineHandler for Runtime {
    fn handle_line_at(
        &self,
        line: &str,
        received: Instant,
        sink: &mut dyn FrameSink,
    ) -> io::Result<Served> {
        self.lifecycle.dispatch(
            line,
            sink,
            || self.status(),
            |req, sink| self.serve(req, received, sink, None),
        )
    }

    fn try_handle_warm(
        &self,
        line: &str,
        received: Instant,
        sink: &mut dyn FrameSink,
    ) -> Option<io::Result<Served>> {
        Runtime::try_handle_warm(self, line, received, sink)
    }

    fn metrics(&self) -> &Registry {
        &self.lifecycle.metrics
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
    struct RawLines(Vec<String>);

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
    fn cell_memo_evicts_oldest_entries_at_cap() {
        let mut memo = CellMemo::new(2);
        let scenarios = [
            Scenario::study(StudyId::Fig9a),
            Scenario::study(StudyId::Table2),
            Scenario::study(StudyId::Fig7),
        ];
        for s in &scenarios {
            memo.insert(
                CellMemo::key(s),
                MemoCell {
                    line: format!("frame-{}", s.id),
                    outcome_json: format!("outcome-{}", s.id),
                },
            );
        }
        assert_eq!(memo.len(), 2, "cap bounds the entry count");
        assert!(
            memo.lookup_all(&scenarios[1..]).is_some(),
            "the two newest entries survive"
        );
        assert!(
            memo.lookup_all(&scenarios[..1]).is_none(),
            "the oldest entry was evicted first"
        );

        // Re-inserting a live key replaces in place: nothing else is
        // evicted and the count stays at cap.
        memo.insert(
            CellMemo::key(&scenarios[1]),
            MemoCell {
                line: "frame-refreshed".into(),
                outcome_json: "outcome-refreshed".into(),
            },
        );
        assert_eq!(memo.len(), 2);
        let cells = memo
            .lookup_all(&scenarios[1..2])
            .expect("refreshed key still present");
        assert_eq!(cells[0].line, "frame-refreshed");
        assert!(
            memo.lookup_all(&scenarios[2..]).is_some(),
            "replacing a live key must not evict its neighbour"
        );
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
/// chasing a warm-throughput regression: the request parse dominates, and
/// the batch fingerprint must stay orders of magnitude below it.
#[cfg(test)]
mod microbench {
    use super::*;
    use crate::api::{EvalRequest, Request};
    use crate::grids;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn warm_path_piece_timings() {
        let scenarios = grids::resolve("fig8").expect("grid");
        let req = EvalRequest::new("bench", scenarios.clone());
        let line = serde_json::to_string(&Request::Eval(req)).unwrap();
        eprintln!("request line bytes: {}", line.len());
        let n = 2000;
        let t = Instant::now();
        for _ in 0..n {
            let _ = serde_json::from_str::<Request>(&line).unwrap();
        }
        eprintln!("parse request: {:?}/iter", t.elapsed() / n);
        let t = Instant::now();
        for _ in 0..n {
            let _ = BatchMemo::key(&scenarios);
        }
        eprintln!("batch key: {:?}/iter", t.elapsed() / n);
        let t = Instant::now();
        for _ in 0..n {
            let c = scenarios.iter().map(CellMemo::key).collect::<Vec<_>>();
            std::hint::black_box(c);
        }
        eprintln!("per-cell keys: {:?}/iter", t.elapsed() / n);
    }
}
