//! # yoco-loadgen — open-loop load generation for the serve runtime
//!
//! Everything `sweep loadgen` runs on: deterministic arrival schedules
//! ([`arrivals`]), weighted request mixes over named grids
//! ([`mix`]), the open-loop multi-connection driver ([`driver`]), and
//! latency aggregation plus the persisted trajectory history
//! ([`report`]).
//!
//! ## Open loop vs closed loop
//!
//! The loadgen is an **open loop**: the arrival schedule is fixed up
//! front and requests fire at their scheduled instants regardless of
//! completions, with latency measured from the scheduled instant. A
//! closed loop (each connection sends the next request only when the
//! previous one returns) politely stops offering load when the server
//! stalls, so overload never shows (coordinated omission). In the open
//! loop it shows where it belongs: in the p99/p999 tail and the `Busy`
//! rate, not as a quietly reduced request count.
//!
//! An offered rate above capacity turns each connection into a closed
//! loop: every arrival is already due when the previous request
//! returns, so the connection issues back to back. `achieved_rps` is
//! then the server's capacity at that connection count, and the
//! latency percentiles measure the backlog of overdue arrivals, not
//! service time. That saturated run is how warm throughput is measured
//! (`--arrivals fixed --rate` far above capacity).
//!
//! ```no_run
//! use std::time::Duration;
//! use yoco_sweep::loadgen::{arrivals, driver, mix, ArrivalKind, Issuer, TcpIssuer};
//!
//! let duration = Duration::from_secs(10);
//! let plan = arrivals::schedule(ArrivalKind::Poisson, 200.0, duration, 42);
//! let mix = mix::Mix::parse("fig9a=9,fig9a:v1=1").unwrap();
//! let assignment = mix.assign(plan.len(), 42);
//! let issuers: Vec<Box<dyn Issuer>> = (0..8)
//!     .map(|_| {
//!         Box::new(TcpIssuer::connect("127.0.0.1:7177", None).unwrap()) as Box<dyn Issuer>
//!     })
//!     .collect();
//! let summary = driver::run(&plan, &assignment, mix.entries(), issuers, duration);
//! println!("p99 {:.2} ms", summary.latency.quantile_ms(0.99));
//! ```

pub mod arrivals;
pub mod driver;
pub mod mix;
pub mod report;

pub use arrivals::{offered_count, schedule, ArrivalKind};
pub use driver::{run, Issuer, TcpIssuer};
pub use mix::{Mix, MixEntry};
pub use report::{
    append_history, gate, read_history, render_table, EntryRecord, EntrySummary, LatencyHistogram,
    LoadgenHistory, LoadgenRecord, Outcome, RunShape, Summary, LOADGEN_HISTORY_SCHEMA,
    LOADGEN_SCHEMA,
};
