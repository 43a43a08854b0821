//! Multi-host shard fan-out: the cluster coordinator behind
//! `yoco-serve --coordinator`.
//!
//! One box stopped being the ceiling in PR 4; this module fans a single
//! [`EvalRequest`](crate::api::EvalRequest) out over a configured set of
//! worker hosts — each just a stock `yoco-serve` runtime — and merges
//! the workers' streamed `Cell` frames back into one ordinary v1/v2
//! exchange, the shape distributed DAQ systems use (many producers
//! streaming frames into one coordinator that orders, merges, and
//! survives producer loss):
//!
//! ```text
//!                       ┌──────────────┐   Status / EvalRequest (v2)
//!   client ──(v1/v2)──▶ │ coordinator  │ ─────────────┬──────────────┐
//!                       │   Runtime    │              ▼              ▼
//!                       └──────┬───────┘        ┌──────────┐   ┌──────────┐
//!                              │  merged Cell   │ worker A │   │ worker B │
//!                              ◀── frames ──────│ Runtime  │   │ Runtime  │
//!                                               └──────────┘   └──────────┘
//! ```
//!
//! The coordinator is an ordinary [`Runtime`](crate::serve::Runtime)
//! built by [`Runtime::coordinator`](crate::serve::Runtime::coordinator):
//! its admission gate, metrics registry, NDJSON dispatch, and reactor
//! are the single box's, and only its backend differs — this module's
//! fan-out instead of the engine. It keeps no warm memo, so every
//! request reaches the workers.
//!
//! * **Partitioning** reuses the `--shard i/n` round-robin rule
//!   ([`Shard::select_indices`](crate::api::Shard::select_indices)): the
//!   grid is split across the selected workers exactly as a manual
//!   multi-host sharded run would split it.
//! * **Selection** is occupancy-aware: the coordinator probes every
//!   configured worker with the `Status` control frame and dispatches to
//!   live workers least-loaded first (`select_workers`).
//! * **Fault tolerance**: a worker lost mid-stream (connection drop) or
//!   refusing admission (`Busy`) has its *unfinished* cells requeued
//!   onto the surviving workers — excluding the failed host — round
//!   after round until the batch completes or no workers remain
//!   ([`fan_out`]).
//! * **Determinism**: workers share the evaluator and cache-key code,
//!   so a cluster run and a single-box run of the same grid produce
//!   identical canonical reports ([`report_from_outcomes`] feeds the
//!   same [`SweepReport::canonical_json`](crate::engine::SweepReport)
//!   path), and warm v1 responses are byte-identical to a single box's.
//!
//! The transport is abstracted behind [`WorkerPool`] — TCP in
//! production ([`TcpPool`]), in-process fakes in the unit tests — so the
//! requeue logic is covered without sockets.

mod coordinator;
mod pool;

pub(crate) use coordinator::fan_out_request;
pub use coordinator::{fan_out, report_from_outcomes, FanoutOutcome, FanoutResult};
pub use pool::{ShardOutcome, TcpPool, WorkerPool};
