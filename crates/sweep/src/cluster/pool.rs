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
        ServeClient::connect(addr)?.eval_streaming(request, |raw, frame| {
            if let Response::Cell(cell) = frame {
                on_cell(cell, raw);
            }
        })
    }
}
