//! # yoco-sweep — the scenario-driven experiment engine
//!
//! One execution path for every figure, table, ad-hoc comparison, and
//! service request in the workspace:
//!
//! * [`api`] — **the crate's primary interface**: the [`SweepError`]
//!   error enum, typed [`Metrics`] payloads, the validating
//!   [`ScenarioBuilder`], the versioned [`EvalRequest`]/[`EvalResponse`]
//!   wire format spoken by the `yoco-serve` binary, and [`Shard`]
//!   descriptors for splitting grids across hosts;
//! * [`scenario`] — serde-backed [`Scenario`] descriptors: accelerator
//!   choice, design-point overrides, workload selection, and named
//!   studies, composable into grids ([`grids`], [`figures`]);
//! * [`engine`] — the [`Engine`]: parallel execution over self-scheduling
//!   scoped threads with deterministic, order-independent assembly, and
//!   per-cell completion callbacks ([`Engine::run_with`]) for streaming
//!   frontends;
//! * [`serve`] — the server [`Runtime`] behind both `yoco-serve` modes:
//!   an admission [`serve::Gate`] (`--queue-depth`, adaptive
//!   `retry_after_ms` hints), streamed protocol-v2 responses, and the
//!   `Status` observability frame in front of one backend — a single
//!   box's shared engine + cache, with a worker budget split across
//!   in-flight requests and warm-response memoization, or a
//!   coordinator's fan-out;
//! * [`cluster`] — the multi-host shard fan-out behind a coordinator
//!   [`Runtime`] ([`Runtime::coordinator`]): one client request
//!   partitioned round-robin over worker hosts (each a stock
//!   `yoco-serve`), streamed `Cell` frames merged back into one v1/v2
//!   exchange, unfinished shards requeued on worker loss;
//! * [`client`] — the matching blocking client ([`ServeClient`]), used
//!   by `sweep client`, the cluster coordinator's dispatch path, and the
//!   service-level tests;
//! * [`loadgen`] — open-loop load generation against any of the above:
//!   deterministic Poisson/bursty/fixed arrival schedules, weighted
//!   grid × protocol × cache-temperature mixes, a multi-connection
//!   driver that charges coordinated omission to the tail, and the
//!   p50/p99/p999 + Busy-rate trajectory persisted in
//!   `results/loadgen_history.json`;
//! * [`telemetry`] — server-side observability: each server's own
//!   metrics [`telemetry::Registry`] (counters, gauges, and the shared
//!   log-linear [`LatencyHistogram`]), owned by its [`Runtime`] and
//!   exposed through the gate-bypassing `Metrics` control frame and
//!   Prometheus-style text, plus request-scoped stage tracing
//!   (`--trace-dir`) aggregated by `sweep trace report`;
//! * [`cache`] — a content-addressed result cache under `results/cache/`,
//!   keyed by a stable hash of the scenario plus the evaluator version
//!   ([`hash`]), with age/size garbage collection ([`cache::GcBudget`]);
//! * [`figures`] / [`studies`] — the Fig 1(c)/6–10 / Table I–II
//!   computations, expressed as grids and cacheable study cells;
//! * [`root`] — workspace-root discovery shared with `yoco-bench`'s
//!   output writer.
//!
//! ## Quickstart
//!
//! ```
//! use yoco_sweep::{figures, Engine};
//!
//! // Pure in-memory evaluation over `Engine::ephemeral()`:
//! let table = figures::fig8_table();
//! assert_eq!(table.rows.len(), 10);
//!
//! // The same grid, explicitly parallel and uncached:
//! let engine = Engine::ephemeral().jobs(4);
//! let (parallel_table, report) = figures::fig8_table_with(&engine).unwrap();
//! assert_eq!(parallel_table, table);
//! assert_eq!(report.cells.len(), 40);
//! ```
//!
//! For request/response evaluation — the path `yoco-serve` exposes over
//! a socket — see the [`api`] module docs.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod engine;
pub mod eval;
pub mod executor;
pub mod figures;
pub mod grids;
pub mod hash;
pub mod loadgen;
pub mod root;
pub mod scenario;
pub mod serve;
pub mod studies;
pub mod telemetry;

pub use api::{
    EvalRequest, EvalResponse, Metrics, ScenarioBuilder, Shard, StatusReport, SweepError,
    API_VERSION,
};
pub use cache::{CacheStats, GcBudget, GcOutcome, ResultCache};
pub use client::{RetryPolicy, ServeClient, StreamOutcome};
pub use engine::{CellResult, Engine, SweepReport};
pub use eval::{AttentionMetrics, GemmMetrics};
pub use grids::{DseGrid, GridSpec, DSE_AXES, DSE_GRIDS, DSE_WORKLOADS};
pub use loadgen::{ArrivalKind, LatencyHistogram, LoadgenRecord, Mix};
pub use scenario::{AcceleratorKind, DesignPoint, Scenario, ScenarioKind, StudyId, WorkloadSpec};
pub use serve::{Runtime, ServeConfig};
pub use studies::StudyMetrics;
pub use telemetry::{HistSnapshot, MetricsReport, SpanRecord};
