//! The coordinator's one contact with worker hosts: dispatch.
//!
//! [`WorkerPool`] abstracts the transport so the fan-out/requeue logic
//! in [`super::fan_out`] is testable with in-process fakes; [`TcpPool`]
//! is the production implementation, one [`ServeClient`] connection per
//! dispatched sub-request. Nothing probes a worker: what a dispatch
//! sees — a refused connection, a dropped stream, a `Busy` answer — is
//! the liveness signal.

use crate::api::{CellOutcome, EvalRequest, Response};
use crate::client::{ServeClient, StreamOutcome};
use std::io;
use std::time::Duration;

/// The transport to worker hosts. `dispatch` must call `on_cell` once
/// per `Cell` frame *as it arrives*, with the decoded cell (which only
/// claims its scenario) and the worker's line (which travels on), and
/// an `Err` means the worker is unreachable or gone mid-shard — the
/// caller requeues whatever `on_cell` has not delivered.
pub trait WorkerPool: Sync {
    /// Runs one streamed sub-request on one worker.
    fn dispatch(
        &self,
        addr: &str,
        request: EvalRequest,
        on_cell: &mut dyn FnMut(&CellOutcome, &str),
    ) -> io::Result<StreamOutcome>;
}

/// Bound on connecting to a worker. Kept short: a host that blackholes
/// SYNs (powered off, firewalled) must cost its shard a bounded wait
/// before the requeue, not the OS default of minutes.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on every read during a dispatched sub-request. Generous: a
/// shard can hold multi-second Monte-Carlo studies, and a silent worker
/// only stalls its own shard (then requeues).
const READ_TIMEOUT: Duration = Duration::from_secs(600);

/// The production pool: one TCP connection per dispatch.
#[derive(Debug, Clone, Copy)]
pub struct TcpPool;

impl WorkerPool for TcpPool {
    fn dispatch(
        &self,
        addr: &str,
        request: EvalRequest,
        on_cell: &mut dyn FnMut(&CellOutcome, &str),
    ) -> io::Result<StreamOutcome> {
        let mut client = ServeClient::connect_timeout(addr, CONNECT_TIMEOUT)?;
        client.set_read_timeout(Some(READ_TIMEOUT))?;
        client.eval_streaming(request, |raw, frame| {
            if let Response::Cell(cell) = frame {
                on_cell(cell, raw);
            }
        })
    }
}
