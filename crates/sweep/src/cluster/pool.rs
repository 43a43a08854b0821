//! The coordinator's view of worker hosts: probe, select, dispatch.
//!
//! [`WorkerPool`] abstracts the transport so the fan-out/requeue logic
//! in [`super::fan_out`] is testable with in-process fakes; [`TcpPool`]
//! is the production implementation, one [`ServeClient`] connection per
//! dispatched sub-request.

use crate::api::{CellOutcome, EvalRequest, Response, StatusReport};
use crate::client::{ServeClient, StreamOutcome};
use std::io;
use std::time::Duration;

/// How one dispatched sub-request ended on a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The worker streamed every cell and closed with `Done`.
    Done {
        /// Cells the worker served from its cache.
        hits: usize,
        /// Cells the worker computed (or failed) fresh.
        misses: usize,
    },
    /// The worker's admission queue was full; nothing was evaluated.
    Busy {
        /// The worker's suggested backoff, in milliseconds.
        retry_after_ms: u64,
    },
}

/// The transport to worker hosts. `dispatch` must call `on_cell` once
/// per `Cell` frame *as it arrives* (decoded frame plus the raw line,
/// so the coordinator can forward worker bytes verbatim), and an `Err`
/// means the worker is gone mid-shard — the caller requeues whatever
/// `on_cell` has not delivered.
pub trait WorkerPool: Sync {
    /// Probes one worker's `Status` (liveness + load).
    fn status(&self, addr: &str) -> io::Result<StatusReport>;

    /// Runs one streamed sub-request on one worker.
    fn dispatch(
        &self,
        addr: &str,
        request: EvalRequest,
        on_cell: &mut dyn FnMut(CellOutcome, &str),
    ) -> io::Result<ShardOutcome>;
}

/// Bound on establishing any connection to a worker. Kept short: a
/// host that blackholes SYNs (powered off, firewalled) must cost a
/// bounded wait at selection, not the OS default of minutes —
/// "unreachable workers are skipped" only holds if unreachability is
/// detected quickly.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on the `Status` probe's answer. Also short: probes run while
/// the coordinator holds the client's admission slot, so a
/// hung-but-accepting worker must not stall every request.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on every read during a dispatched sub-request. Generous: a
/// shard can hold multi-second Monte-Carlo studies, and a silent worker
/// only stalls its own shard (then requeues).
const READ_TIMEOUT: Duration = Duration::from_secs(600);

/// The production pool: one TCP connection per probe/dispatch.
#[derive(Debug, Clone, Copy)]
pub struct TcpPool;

fn connect(addr: &str, read_timeout: Duration) -> io::Result<ServeClient> {
    let mut client = ServeClient::connect_timeout(addr, CONNECT_TIMEOUT)?;
    client.set_read_timeout(Some(read_timeout))?;
    Ok(client)
}

impl WorkerPool for TcpPool {
    fn status(&self, addr: &str) -> io::Result<StatusReport> {
        connect(addr, PROBE_TIMEOUT)?.status()
    }

    fn dispatch(
        &self,
        addr: &str,
        request: EvalRequest,
        on_cell: &mut dyn FnMut(CellOutcome, &str),
    ) -> io::Result<ShardOutcome> {
        let mut client = connect(addr, READ_TIMEOUT)?;
        let outcome = client.eval_streaming(request, |raw, frame| {
            if let Response::Cell(cell) = frame {
                on_cell(cell.clone(), raw);
            }
        })?;
        Ok(match outcome {
            StreamOutcome::Done { hits, misses, .. } => ShardOutcome::Done { hits, misses },
            StreamOutcome::Busy { retry_after_ms } => ShardOutcome::Busy { retry_after_ms },
        })
    }
}

/// Probes every configured worker — concurrently, so a cluster with
/// several dead hosts costs one probe timeout, not their sum — and
/// returns the live ones, least-loaded first (stable on ties, so the
/// configured order is the tiebreak). Unreachable workers are skipped
/// for this request — they rejoin automatically on the next probe,
/// since selection runs per request. A worker that answers its probe
/// but then refuses admission is handled later by the fan-out's
/// requeue path, not here.
pub(crate) fn select_workers(pool: &dyn WorkerPool, workers: &[String]) -> Vec<String> {
    let occupancies: Vec<Option<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter()
            .map(|addr| scope.spawn(move || pool.status(addr).ok().map(|s| s.occupancy)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    let mut live: Vec<(usize, String)> = workers
        .iter()
        .zip(occupancies)
        .filter_map(|(addr, occupancy)| occupancy.map(|o| (o, addr.clone())))
        .collect();
    live.sort_by_key(|(occupancy, _)| *occupancy);
    live.into_iter().map(|(_, addr)| addr).collect()
}
