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
//!                       ┌──────────────┐   v2 sub-requests (one per shard)
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
//!   grid is split across the live workers exactly as a manual
//!   multi-host sharded run would split it.
//! * **Selection** needs no probe: the coordinator counts its own
//!   sub-requests in flight on each worker and deals shards
//!   least-loaded first, configured order breaking ties. Dispatch is its
//!   only contact with workers.
//! * **Fault tolerance**: a worker that refuses the connection, is lost
//!   mid-stream (connection drop), or refuses admission (`Busy`) has its
//!   *unfinished* cells requeued onto the surviving workers — excluding
//!   the failed host — round after round until the batch completes or
//!   no workers remain (`fan_out`). A request no worker delivered a
//!   cell of answers a retryable `Busy`.
//! * **Worker bytes pass on**: a worker's `Cell` line is decoded only to
//!   claim its scenario; v2 and v1 clients get the worker's bytes, as an
//!   event builder assembles raw fragments instead of re-encoding them.
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

pub(crate) use coordinator::fan_out;
pub use coordinator::report_from_outcomes;
pub use pool::{TcpPool, WorkerPool};
