//! The versioned wire format: [`EvalRequest`] in, response frames out.
//!
//! Every exchange is NDJSON: one [`Request`] line in, one or more
//! [`Response`] frame lines out. The request's `version` field selects
//! the exchange shape:
//!
//! * **v1 (buffered)** — one [`EvalResponse`] line once the whole batch
//!   is done:
//!
//! ```text
//! → {"Eval":{"version":1,"id":"r-1","scenarios":[...],"force":false}}
//! ← {"Eval":{"version":1,"id":"r-1","cells":[...],"hits":2,"misses":1,"error":null}}
//! ```
//!
//! * **v2 (streamed)** — an `Accepted` frame at admission, one `Cell`
//!   frame per scenario *in completion order*, then a `Done` summary;
//!   or a single `Busy` frame when the admission queue is full:
//!
//! ```text
//! → {"Eval":{"version":2,"id":"r-2","scenarios":[...],"force":false}}
//! ← {"Accepted":{"id":"r-2","position":0}}
//! ← {"Cell":{"id":"study/table2", ...}}
//! ← {"Cell":{"id":"study/fig9a", ...}}
//! ← {"Done":{"id":"r-2","hits":0,"misses":2}}
//! ```
//!
//! Control lines (`"Ping"`/`"Pong"`, `"Shutdown"`/`"Bye"`,
//! `"Status"`/`{"Status":…}`, `{"Error":…}`) are version-independent and
//! byte-identical under both protocols. The [`StatusReport`] answered to
//! `"Status"` is the load-balancing input of the cluster coordinator:
//! occupancy, queue depth, worker budget, and service counters.
//!
//! Responses deliberately exclude wall-clock timing: re-submitting the
//! same request against a warm cache returns byte-identical bytes, which
//! is what makes the protocol testable end-to-end.

use crate::api::{Metrics, SweepError};
use crate::engine::{CellResult, SweepReport};
use crate::scenario::Scenario;
use crate::telemetry::MetricsReport;
use serde::{Deserialize, Serialize};

/// Protocol v1: buffered single-line exchanges.
pub const API_V1: u32 = 1;
/// Protocol v2: streamed `Accepted`/`Cell`/`Done` exchanges with
/// admission control (`Busy`).
pub const API_V2: u32 = 2;
/// The newest wire-protocol schema version the server speaks. Bump on
/// any incompatible change to the envelopes, [`Scenario`], or
/// [`Metrics`].
pub const API_VERSION: u32 = API_V2;

/// A batch of scenarios to evaluate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRequest {
    /// Protocol version the client speaks: [`API_V1`] for a buffered
    /// single-response exchange, [`API_V2`] for a streamed one.
    pub version: u32,
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: String,
    /// The cells to evaluate, in response order.
    pub scenarios: Vec<Scenario>,
    /// Recompute every cell, refreshing (but not consulting) the cache.
    pub force: bool,
    /// The client's patience budget in milliseconds, measured from the
    /// server's receipt of the request line. A request still queued
    /// (unadmitted) past its deadline is answered `Busy` instead of
    /// occupying an admission slot — the client already gave up, so
    /// evaluating for it would only delay live requests. `None` (the
    /// wire default, so old clients are unaffected) never expires.
    pub deadline_ms: Option<u64>,
}

impl EvalRequest {
    /// A protocol-v1 request with caching enabled: the conservative
    /// default, answered by one buffered [`EvalResponse`] line.
    pub fn new(id: impl Into<String>, scenarios: Vec<Scenario>) -> Self {
        Self {
            version: API_V1,
            id: id.into(),
            scenarios,
            force: false,
            deadline_ms: None,
        }
    }

    /// A protocol-v2 request: answered by a streamed
    /// `Accepted` → `Cell`… → `Done` frame sequence (or one `Busy`
    /// frame when the server's admission queue is full).
    pub fn streaming(id: impl Into<String>, scenarios: Vec<Scenario>) -> Self {
        Self {
            version: API_V2,
            ..Self::new(id, scenarios)
        }
    }

    /// Sets the patience budget: give up (answer `Busy`) if not
    /// admitted within `ms` of the server receiving the line.
    pub fn with_deadline(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }
}

/// How one cell of a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// Served from the result cache.
    Hit,
    /// Computed by the executor (and cached, when a cache is attached).
    Computed,
    /// Evaluation failed; see the cell's `error`.
    Failed,
}

/// One scenario's outcome on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// The scenario's display id.
    pub id: String,
    /// Content-addressed cache key of the cell.
    pub key: String,
    /// How the cell was produced.
    pub status: CellStatus,
    /// The typed payload (`None` exactly when `status` is `Failed`).
    pub metrics: Option<Metrics>,
    /// The failure, if any.
    pub error: Option<SweepError>,
}

impl CellOutcome {
    /// The wire form of one engine cell — the same mapping whether the
    /// cell travels buffered inside an [`EvalResponse`] or streamed as a
    /// `Cell` frame.
    pub fn from_cell(cell: &CellResult) -> Self {
        Self {
            id: cell.scenario.id.clone(),
            key: cell.key.clone(),
            status: match (&cell.error, cell.cached) {
                (Some(_), _) => CellStatus::Failed,
                (None, true) => CellStatus::Hit,
                (None, false) => CellStatus::Computed,
            },
            metrics: cell.metrics.clone(),
            error: cell.error.clone(),
        }
    }
}

/// The response to an [`EvalRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResponse {
    /// Protocol version of this response shape (always [`API_V1`] —
    /// v2 exchanges stream frames instead of returning this envelope).
    pub version: u32,
    /// The request id, echoed.
    pub id: String,
    /// Per-cell outcomes, in request order.
    pub cells: Vec<CellOutcome>,
    /// Cells served from the cache.
    pub hits: usize,
    /// Cells computed (or failed) fresh.
    pub misses: usize,
    /// Request-level failure (bad version, malformed batch). When set,
    /// `cells` is empty.
    pub error: Option<SweepError>,
}

impl EvalResponse {
    /// Builds the response for a completed engine run.
    pub fn from_report(id: impl Into<String>, report: &SweepReport) -> Self {
        Self {
            version: API_V1,
            id: id.into(),
            cells: report.cells.iter().map(CellOutcome::from_cell).collect(),
            hits: report.hits,
            misses: report.misses,
            error: None,
        }
    }

    /// A request-level refusal (nothing was evaluated).
    pub fn refusal(id: impl Into<String>, error: SweepError) -> Self {
        Self {
            version: API_V1,
            id: id.into(),
            cells: Vec::new(),
            hits: 0,
            misses: 0,
            error: Some(error),
        }
    }

    /// Whether the whole batch succeeded (no request- or cell-level
    /// failures).
    pub fn is_ok(&self) -> bool {
        self.error.is_none() && self.cells.iter().all(|c| c.error.is_none())
    }
}

/// One client line: what the server is asked to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Evaluate a batch.
    Eval(EvalRequest),
    /// Liveness check.
    Ping,
    /// Occupancy/queue/counter snapshot — the load-balancing probe.
    Status,
    /// Full telemetry scrape: every counter, gauge, and histogram of
    /// the answering server's registry. Like `Status` it bypasses
    /// admission control, so a saturated server still answers mid-run
    /// scrapes.
    Metrics,
    /// Stop accepting connections and exit after responding.
    Shutdown,
}

/// A point-in-time snapshot of a server's load and service counters,
/// answered to [`Request::Status`]. Control-plane only: it bypasses
/// admission control, so a fully busy server still answers, which is
/// what makes it usable as a load probe (`sweep client status`). The
/// cluster coordinator does not probe its workers: it deals shards by
/// its own count of sub-requests in flight on each.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusReport {
    /// What is answering: `"serve"` (a worker runtime) or
    /// `"coordinator"` (a cluster fan-out front).
    pub role: String,
    /// Configured downstream worker hosts (0 for a single-box runtime).
    pub workers: usize,
    /// Evaluation requests currently admitted.
    pub occupancy: usize,
    /// The admission bound (`--queue-depth`).
    pub queue_depth: usize,
    /// The worker-thread budget (`--jobs`; 0 when not applicable).
    pub jobs: usize,
    /// Evaluation requests completed since startup.
    pub served: u64,
    /// Cells delivered across all completed requests.
    pub cells: u64,
    /// Cells served from the cache (or response memo).
    pub hits: u64,
    /// Cells computed (or failed) fresh.
    pub misses: u64,
    /// Evaluation requests rejected at admission (Busy).
    pub rejected: u64,
    /// The server's per-request service-time estimate (the EWMA behind
    /// `retry_after_ms` hints), rounded to whole milliseconds. Integer
    /// so the report stays `Eq` (it is compared in tests).
    pub service_estimate_ms: u64,
    /// Cumulative milliseconds requests have held admission slots since
    /// startup. Divided by uptime this is the achieved server-side
    /// concurrency — the open-loop load generator reads it to tell
    /// "slots saturated" from "arrivals too slow".
    pub busy_ms: u64,
    /// Connections shed at accept because the process hit its fd limit
    /// (EMFILE/ENFILE) — previously a log-only warning, invisible to
    /// probes.
    pub fd_sheds: u64,
    /// Connections dropped for reading too slowly (output buffer
    /// overflow) — likewise promoted from a log-only warning.
    pub slow_reader_disconnects: u64,
}

/// One server line: a buffered v1 answer, a streamed v2 frame, or a
/// version-independent control reply. Clients can decode every line the
/// server will ever send as this one enum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The buffered outcome of a protocol-v1 batch.
    Eval(EvalResponse),
    /// v2: the request cleared admission control. `position` is the
    /// number of requests already in flight when this one was admitted
    /// (`0` = it runs alone).
    Accepted {
        /// The request id, echoed.
        id: String,
        /// In-flight requests ahead of this one at admission.
        position: usize,
    },
    /// v2: one scenario finished; frames arrive in completion order.
    Cell(CellOutcome),
    /// v2: the batch is complete; no further frames follow for this
    /// request.
    Done {
        /// The request id, echoed.
        id: String,
        /// Cells served from the cache.
        hits: usize,
        /// Cells computed (or failed) fresh.
        misses: usize,
    },
    /// v2: the admission queue was full; nothing was evaluated. (v1
    /// requests are refused with a [`SweepError::Busy`] inside an
    /// [`EvalResponse`] instead.)
    Busy {
        /// The request id, echoed.
        id: String,
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Status`]: load and service counters.
    Status(StatusReport),
    /// Answer to [`Request::Metrics`]: the full telemetry snapshot.
    Metrics(MetricsReport),
    /// Answer to [`Request::Shutdown`]; the server exits after sending.
    Bye,
    /// The line could not be decoded as a [`Request`] at all.
    Error(SweepError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::scenario::{Scenario, StudyId};
    use crate::serve::{Runtime, ServeConfig};

    fn tiny_request(id: &str) -> Request {
        Request::Eval(EvalRequest::new(
            id,
            vec![
                Scenario::study(StudyId::Fig9a),
                Scenario::study(StudyId::Table2),
            ],
        ))
    }

    /// The protocol's reference endpoint: an uncached serve runtime.
    fn runtime() -> Runtime {
        Runtime::new(Engine::ephemeral(), ServeConfig::default())
    }

    /// Sends one request line and collects every reply frame.
    fn exchange(runtime: &Runtime, line: &str) -> Vec<Response> {
        let mut frames: Vec<Response> = Vec::new();
        runtime
            .handle_line(line, &mut frames)
            .expect("in-process sink never fails");
        frames
    }

    fn one_frame(runtime: &Runtime, request: &Request) -> Response {
        let line = serde_json::to_string(request).expect("request serializes");
        let mut frames = exchange(runtime, &line);
        assert_eq!(frames.len(), 1, "one buffered frame: {frames:?}");
        frames.remove(0)
    }

    #[test]
    fn eval_round_trip_and_statuses() {
        let resp = one_frame(&runtime(), &tiny_request("r-1"));
        let Response::Eval(resp) = resp else {
            panic!("expected an Eval response, got {resp:?}");
        };
        assert_eq!(resp.id, "r-1");
        assert_eq!(resp.version, API_V1);
        assert!(resp.is_ok());
        assert_eq!(resp.cells.len(), 2);
        assert!(resp
            .cells
            .iter()
            .all(|c| c.status == CellStatus::Computed && c.metrics.is_some()));
        // And the whole response survives the wire.
        let text = serde_json::to_string(&resp).unwrap();
        let back: EvalResponse = serde_json::from_str(&text).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn version_mismatch_is_refused_with_the_id_echoed() {
        for version in [0, 99] {
            let mut req = EvalRequest::new("r-2", vec![Scenario::study(StudyId::Fig9a)]);
            req.version = version;
            let resp = one_frame(&runtime(), &Request::Eval(req));
            let Response::Eval(resp) = resp else {
                panic!("expected an Eval refusal, got {resp:?}");
            };
            assert_eq!(resp.id, "r-2");
            assert!(resp.cells.is_empty());
            assert!(!resp.is_ok());
            assert_eq!(resp.error.unwrap().category(), "schema-mismatch");
        }
    }

    #[test]
    fn streaming_constructor_speaks_v2_and_v2_frames_round_trip() {
        let req = EvalRequest::streaming("r-s", vec![Scenario::study(StudyId::Fig9a)]);
        assert_eq!(req.version, API_V2);
        assert_eq!(API_VERSION, API_V2);

        let frames = vec![
            Response::Accepted {
                id: "r-s".into(),
                position: 1,
            },
            Response::Cell(CellOutcome {
                id: "study/fig9a".into(),
                key: "0123456789abcdef".into(),
                status: CellStatus::Computed,
                metrics: None,
                error: None,
            }),
            Response::Done {
                id: "r-s".into(),
                hits: 0,
                misses: 1,
            },
            Response::Busy {
                id: "r-s".into(),
                retry_after_ms: 500,
            },
        ];
        for frame in frames {
            let text = serde_json::to_string(&frame).unwrap();
            let back: Response = serde_json::from_str(&text).unwrap();
            assert_eq!(frame, back);
        }
    }

    #[test]
    fn malformed_lines_and_control_requests() {
        let rt = runtime();
        assert!(matches!(
            exchange(&rt, "this is not json")[..],
            [Response::Error(SweepError::SchemaMismatch { .. })]
        ));
        assert_eq!(exchange(&rt, "\"Ping\""), [Response::Pong]);
        assert_eq!(exchange(&rt, "\"Shutdown\""), [Response::Bye]);
        let [Response::Status(status)] = &exchange(&rt, "\"Status\"")[..] else {
            panic!("Status must answer a report");
        };
        assert_eq!(status.role, "serve");
        // The report survives the wire like every other frame.
        let text = serde_json::to_string(&Response::Status(status.clone())).unwrap();
        let back: Response = serde_json::from_str(&text).unwrap();
        assert_eq!(back, Response::Status(status.clone()));
    }

    #[test]
    fn metrics_scrape_answers_and_round_trips() {
        // One eval makes the scrape histogram-bearing; the registry
        // belongs to this runtime, so the counts are absolute.
        let rt = runtime();
        let _ = one_frame(&rt, &tiny_request("r-m"));
        let Response::Metrics(report) = one_frame(&rt, &Request::Metrics) else {
            panic!("Metrics must answer a report");
        };
        assert_eq!(report.schema, crate::telemetry::METRICS_SCHEMA);
        assert_eq!(report.counter("requests_total"), Some(1));
        assert_eq!(report.hist("eval_us").map(|h| h.count), Some(1));
        let text = serde_json::to_string(&Response::Metrics(report.clone())).unwrap();
        let back: Response = serde_json::from_str(&text).unwrap();
        assert_eq!(back, Response::Metrics(report));
    }

    #[test]
    fn failed_cells_are_reported_per_cell_not_per_request() {
        let req = EvalRequest::new(
            "r-3",
            vec![
                Scenario::study(StudyId::Fig9a),
                Scenario::gemm(
                    crate::scenario::AcceleratorKind::Yoco,
                    crate::scenario::DesignPoint::paper(),
                    crate::scenario::WorkloadSpec::Zoo {
                        model: "no-such-model".into(),
                    },
                ),
            ],
        );
        let Response::Eval(resp) = one_frame(&runtime(), &Request::Eval(req)) else {
            panic!("expected Eval");
        };
        assert!(resp.error.is_none(), "request level is fine");
        assert!(!resp.is_ok(), "but a cell failed");
        assert_eq!(resp.cells[0].status, CellStatus::Computed);
        assert_eq!(resp.cells[1].status, CellStatus::Failed);
        assert!(resp.cells[1].metrics.is_none());
        assert_eq!(
            resp.cells[1].error.as_ref().unwrap().category(),
            "workload-resolution"
        );
    }
}
