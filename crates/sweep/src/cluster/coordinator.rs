//! The fan-out core and the protocol-speaking [`Coordinator`].
//!
//! [`fan_out`] is a pure orchestration function over a [`WorkerPool`]:
//! partition → dispatch → merge → requeue, no sockets, no protocol —
//! which is what makes the requeue semantics unit-testable. The
//! [`Coordinator`] makes it the backend of the request lifecycle the
//! single-box [`Runtime`](crate::serve::Runtime) also runs — one
//! admission gate, metrics registry, and NDJSON dispatch shape — so
//! both plug into the shared epoll reactor
//! ([`serve_reactor`](crate::serve::serve_reactor)) unchanged.

use crate::api::{CellOutcome, CellStatus, EvalRequest, Response, Shard, StatusReport, SweepError};
use crate::cluster::pool::{select_workers, ShardOutcome, TcpPool, WorkerPool};
use crate::engine::{CellResult, SweepReport};
use crate::scenario::Scenario;
use crate::serve::{
    Busy, Emit, FrameSink, Gate, Lifecycle, LineHandler, Ran, Served, DEFAULT_QUEUE_DEPTH,
    RETRY_QUANTUM_MS,
};
use crate::telemetry::Registry;
use std::io;
use std::sync::Mutex;
use std::time::Instant;

/// How a fan-out ended.
#[derive(Debug)]
pub enum FanoutResult {
    /// The batch ran (possibly with synthesized `Failed` cells if no
    /// live worker could complete some scenarios).
    Ran(FanoutOutcome),
    /// Every live worker refused admission before any cell was
    /// produced; the whole request should be answered `Busy`.
    AllBusy {
        /// The largest backoff hint any worker suggested.
        retry_after_ms: u64,
    },
}

/// The merged result of one fan-out.
#[derive(Debug)]
pub struct FanoutOutcome {
    /// One outcome per input scenario, in scenario order.
    pub cells: Vec<CellOutcome>,
    /// Cells the workers served from their caches.
    pub hits: usize,
    /// Cells computed (or failed) fresh.
    pub misses: usize,
    /// Dispatch rounds taken (1 = no requeue was needed).
    pub rounds: usize,
    /// Workers lost along the way (connection drop, refused admission,
    /// or an incomplete `Done`), in loss order.
    pub dead: Vec<String>,
}

/// Matches an arriving cell frame to this shard's first unclaimed
/// scenario with the same display id *and* content key, claiming it.
/// Matching on the key as well keeps attribution correct when a
/// hand-written batch reuses one display id for different scenario
/// contents (the key is the content hash both sides compute from the
/// same code, so it cannot disagree within one deployment). Frames the
/// shard does not own (a misbehaving worker) claim nothing and are
/// dropped by the caller.
fn claim(
    pending: &mut Vec<usize>,
    scenarios: &[Scenario],
    keys: &[String],
    cell: &CellOutcome,
) -> Option<usize> {
    let pos = pending
        .iter()
        .position(|&i| scenarios[i].id == cell.id && keys[i] == cell.key)?;
    Some(pending.remove(pos))
}

/// Shared merge state: per-scenario outcomes plus the current round's
/// per-shard unclaimed indices. One mutex makes claims atomic (each
/// scenario is claimed — and therefore emitted — exactly once); emits
/// themselves happen outside this lock.
struct FanState {
    outcomes: Vec<Option<CellOutcome>>,
    pending: Vec<Vec<usize>>,
}

/// Fans `scenarios` out over `workers` (already probed and ordered by
/// [`select_workers`]) and merges the streamed cells back, calling
/// `emit(index, cell, raw_line)` exactly once per scenario as its
/// outcome arrives (`index` is the scenario's position; worker frames
/// are forwarded with their original bytes). `emit` runs on the
/// dispatch threads *outside* the merge lock and may be called
/// concurrently — callers serialize their own sink. Requeued cells and
/// per-worker dispatch latency are recorded in `metrics`.
///
/// Partitioning reuses the `--shard i/n` round-robin rule
/// ([`Shard::select_indices`]). A worker lost mid-shard — connection
/// error, `Busy` refusal, or a `Done` that left cells unaccounted —
/// is excluded, and its *unfinished* cells are re-partitioned over the
/// surviving workers in the next round; cells it already delivered are
/// never recomputed or re-emitted. When scenarios remain after the last
/// worker is gone, they are synthesized as `Failed` cells (and emitted)
/// so the batch always completes positionally.
pub fn fan_out(
    pool: &dyn WorkerPool,
    workers: &[String],
    id: &str,
    scenarios: &[Scenario],
    force: bool,
    metrics: &Registry,
    emit: &(dyn Fn(usize, CellOutcome, &str) + Sync),
) -> FanoutResult {
    let state = Mutex::new(FanState {
        outcomes: vec![None; scenarios.len()],
        pending: Vec::new(),
    });
    let keys: Vec<String> = scenarios.iter().map(Scenario::cache_key).collect();
    let mut live: Vec<String> = workers.to_vec();
    let mut dead: Vec<String> = Vec::new();
    let mut rounds = 0usize;
    // Tracks whether *every* dispatch across every round was refused
    // with Busy — only then is the whole request retryable overload
    // rather than a failure.
    let mut all_busy = true;
    let mut busy_hint = 0u64;
    loop {
        let remaining: Vec<usize> = {
            let st = state.lock().expect("fan-out state");
            (0..scenarios.len())
                .filter(|&i| st.outcomes[i].is_none())
                .collect()
        };
        if remaining.is_empty() || live.is_empty() {
            break;
        }
        // Rounds past the first re-dispatch cells a lost worker left
        // unfinished — the requeue volume the metrics surface.
        if rounds > 0 {
            metrics.note_requeued_cells(remaining.len() as u64);
        }
        let shards = live.len().min(remaining.len());
        let parts: Vec<Vec<usize>> = (1..=shards)
            .map(|k| {
                Shard {
                    index: k,
                    count: shards,
                }
                .select_indices(remaining.len())
                .into_iter()
                .map(|p| remaining[p])
                .collect()
            })
            .collect();
        state.lock().expect("fan-out state").pending = parts.clone();
        let results: Vec<io::Result<ShardOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .enumerate()
                .map(|(k, part)| {
                    let addr = live[k].clone();
                    let sub_scenarios: Vec<Scenario> =
                        part.iter().map(|&i| scenarios[i].clone()).collect();
                    let mut sub =
                        EvalRequest::streaming(format!("{id}#r{rounds}w{k}"), sub_scenarios);
                    sub.force = force;
                    let state = &state;
                    let keys = &keys;
                    scope.spawn(move || {
                        let dispatch_started = Instant::now();
                        let result = pool.dispatch(&addr, sub, &mut |cell, raw| {
                            // Claim under the merge lock, emit outside
                            // it: a slow consumer must not block other
                            // workers' arrivals on the merge state
                            // (emit callees do their own serialization).
                            let claimed = {
                                let mut st = state.lock().expect("fan-out state");
                                let idx = claim(&mut st.pending[k], scenarios, keys, &cell);
                                if let Some(idx) = idx {
                                    st.outcomes[idx] = Some(cell.clone());
                                }
                                idx
                            };
                            if let Some(idx) = claimed {
                                emit(idx, cell, raw);
                            }
                        });
                        metrics.observe_dispatch(&addr, dispatch_started.elapsed());
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("dispatch thread"))
                .collect()
        });
        rounds += 1;

        let mut lost = vec![false; shards];
        for (k, result) in results.iter().enumerate() {
            match result {
                Ok(ShardOutcome::Done { .. }) => {
                    all_busy = false;
                    // A Done that left cells unclaimed means the worker
                    // skipped work; trust it no further (this also
                    // guarantees the round loop terminates: a round with
                    // no progress always shrinks `live`).
                    if !state.lock().expect("fan-out state").pending[k].is_empty() {
                        lost[k] = true;
                    }
                }
                Ok(ShardOutcome::Busy { retry_after_ms }) => {
                    lost[k] = true;
                    busy_hint = busy_hint.max(*retry_after_ms);
                }
                Err(_) => {
                    all_busy = false;
                    lost[k] = true;
                }
            }
        }
        for k in (0..shards).rev() {
            if lost[k] {
                dead.push(live.remove(k));
            }
        }
    }

    let st = state.into_inner().expect("fan-out state");
    // Retryable overload: dispatches happened, every single one was a
    // Busy refusal, and no cell ever arrived. (A batch smaller than the
    // worker set reaches untried workers in later rounds, so this is
    // checked after the loop, not per round.)
    if rounds > 0 && all_busy && st.outcomes.iter().all(Option::is_none) {
        return FanoutResult::AllBusy {
            retry_after_ms: busy_hint.max(1),
        };
    }
    let cells: Vec<CellOutcome> = st
        .outcomes
        .into_iter()
        .zip(scenarios)
        .enumerate()
        .map(|(idx, (outcome, scenario))| {
            outcome.unwrap_or_else(|| {
                let cell = CellOutcome {
                    id: scenario.id.clone(),
                    key: scenario.cache_key(),
                    status: CellStatus::Failed,
                    metrics: None,
                    error: Some(SweepError::evaluation(
                        scenario.id.clone(),
                        "cluster: no live worker completed this cell",
                    )),
                };
                let raw = serde_json::to_string(&Response::Cell(cell.clone()))
                    .expect("frame serialization is infallible");
                emit(idx, cell.clone(), &raw);
                cell
            })
        })
        .collect();
    let hits = cells.iter().filter(|c| c.status == CellStatus::Hit).count();
    let misses = cells.len() - hits;
    FanoutResult::Ran(FanoutOutcome {
        cells,
        hits,
        misses,
        rounds,
        dead,
    })
}

/// Assembles a [`SweepReport`] from merged cluster outcomes, the same
/// shape a local [`Engine`](crate::engine::Engine) run produces — so
/// `SweepReport::canonical_json` byte-diffs clean between a cluster run
/// and a single-box run of the same grid.
pub fn report_from_outcomes(
    scenarios: &[Scenario],
    cells: &[CellOutcome],
    elapsed_ms: u64,
) -> SweepReport {
    assert_eq!(
        scenarios.len(),
        cells.len(),
        "one outcome per scenario, in scenario order"
    );
    let cells: Vec<CellResult> = scenarios
        .iter()
        .zip(cells.iter())
        .map(|(scenario, outcome)| CellResult {
            scenario: scenario.clone(),
            key: outcome.key.clone(),
            cached: outcome.status == CellStatus::Hit,
            error: outcome.error.clone(),
            metrics: outcome.metrics.clone(),
        })
        .collect();
    let hits = cells.iter().filter(|c| c.cached).count();
    let misses = cells.len() - hits;
    SweepReport {
        cells,
        hits,
        misses,
        elapsed_ms,
    }
}

/// Sizing and topology of a coordinator.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker host addresses (`HOST:PORT`), each a stock `yoco-serve`.
    pub workers: Vec<String>,
    /// Maximum client evaluation requests in flight at once (the
    /// coordinator's own admission bound; workers keep their own).
    pub queue_depth: usize,
}

impl ClusterConfig {
    /// A config over `workers` with the default queue depth.
    pub fn new(workers: Vec<String>) -> Self {
        Self {
            workers,
            queue_depth: DEFAULT_QUEUE_DEPTH,
        }
    }
}

/// The cluster front: speaks the ordinary v1/v2 NDJSON protocol to
/// clients and fans admitted requests out over the worker hosts,
/// through the same request lifecycle as the single-box runtime. Plugs
/// into [`crate::serve::serve_reactor`] exactly like the runtime.
pub struct Coordinator {
    pool: Box<dyn WorkerPool + Send + Sync>,
    workers: Vec<String>,
    lifecycle: Lifecycle,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("workers", &self.workers)
            .field("queue_depth", &self.gate().depth())
            .finish()
    }
}

impl Coordinator {
    /// A coordinator dispatching over TCP ([`TcpPool`]).
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_pool(Box::new(TcpPool::default()), config)
    }

    /// A coordinator over an explicit pool (tests inject fakes here).
    pub fn with_pool(pool: Box<dyn WorkerPool + Send + Sync>, config: ClusterConfig) -> Self {
        Self {
            pool,
            workers: config.workers,
            lifecycle: Lifecycle::new(config.queue_depth, "this coordinator"),
        }
    }

    /// The coordinator's admission gate (exposed for observability).
    pub fn gate(&self) -> &Gate {
        &self.lifecycle.gate
    }

    /// The configured worker addresses.
    pub fn workers(&self) -> &[String] {
        &self.workers
    }

    /// The coordinator's [`StatusReport`]: its own gate and counters
    /// (`role: "coordinator"`), not an aggregate over workers — probe
    /// each worker for theirs.
    pub fn status(&self) -> StatusReport {
        StatusReport {
            role: "coordinator".into(),
            workers: self.workers.len(),
            ..self.lifecycle.status()
        }
    }

    /// Probes and selects workers for one admitted request. When none
    /// answers — most likely transient (restart, network blip) — the
    /// request gets a retryable `Busy` with the cold-start quantum
    /// rather than a hard failure.
    fn selection(&self) -> Result<Vec<String>, Busy> {
        let selected = select_workers(&*self.pool, &self.workers);
        if selected.is_empty() {
            return Err(Busy {
                retry_after_ms: RETRY_QUANTUM_MS,
            });
        }
        Ok(selected)
    }

    /// The coordinator's backend call: the fan-out, with worker `Cell`
    /// frames emitted with their original bytes. A fan-out every worker
    /// refused becomes a `Busy` for the client.
    fn fan_out_batch(
        &self,
        selected: &[String],
        req: &EvalRequest,
        span: Option<&str>,
        emit: &Emit,
    ) -> Result<Ran, Busy> {
        // Embedding the span after a `#t` marker in the sub-request ids
        // stitches a fan-out trace across hosts: each worker adopts it
        // for its own stage records instead of minting a fresh one.
        let fan_id = match span {
            Some(span) => format!("{}#t{span}", req.id),
            None => req.id.clone(),
        };
        let result = fan_out(
            &*self.pool,
            selected,
            &fan_id,
            &req.scenarios,
            req.force,
            &self.lifecycle.metrics,
            &|i, cell, raw| emit(i, cell, Some(raw)),
        );
        match result {
            FanoutResult::Ran(out) => Ok(Ran::Cells {
                hits: out.hits,
                misses: out.misses,
            }),
            FanoutResult::AllBusy { retry_after_ms } => Err(Busy { retry_after_ms }),
        }
    }
}

/// The coordinator-side mirror of the runtime's dispatch, on the same
/// lifecycle: deadlines measure queueing from when the transport parsed
/// the line, which under the reactor includes worker-pool wait.
impl LineHandler for Coordinator {
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
            |req, sink| {
                self.lifecycle.serve(
                    req,
                    received,
                    sink,
                    || self.selection(),
                    |selected, req, span, emit| self.fan_out_batch(&selected, req, span, emit),
                )
            },
        )
    }

    fn metrics(&self) -> &Registry {
        &self.lifecycle.metrics
    }
}

/// The whole `yoco-serve --coordinator` bring-up: bind, print the
/// ready line (`yoco-serve listening on <local>`) and topology, then
/// serve until `Shutdown` drains it — through the event-driven reactor
/// ([`crate::serve::serve_reactor`]). Returns the bind error, if any.
pub fn serve_coordinator(addr: &str, config: ClusterConfig, quiet: bool) -> io::Result<()> {
    let (listener, local) = crate::serve::listen(addr)?;
    println!("yoco-serve listening on {local}");
    if !quiet {
        println!(
            "coordinator over {} workers: {}",
            config.workers.len(),
            config.workers.join(", ")
        );
        println!("queue depth {}", config.queue_depth);
    }
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let reactor_config = crate::serve::ReactorConfig::for_queue_depth(config.queue_depth);
    let handler: std::sync::Arc<dyn LineHandler> = std::sync::Arc::new(Coordinator::new(config));
    crate::serve::serve_reactor(listener, handler, quiet, reactor_config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Request, API_V1};
    use crate::scenario::StudyId;
    use crate::serve::tests::TerminalProbe;
    use std::collections::HashMap;
    use std::sync::Mutex as StdMutex;

    /// How a fake worker behaves for the whole test.
    #[derive(Debug, Clone, Copy)]
    enum Behavior {
        /// Probes with the given occupancy; completes every dispatched
        /// cell (status `Computed`).
        Healthy { occupancy: usize },
        /// Probes fine, then streams this many cells and drops the
        /// connection.
        DiesAfter(usize),
        /// Probes fine, refuses every dispatch with `Busy`.
        AlwaysBusy { hint: u64 },
        /// Fails the probe (connection refused).
        Unreachable,
    }

    /// An in-process worker pool with scripted per-host behavior and a
    /// dispatch log (who was asked, in order).
    struct FakePool {
        behaviors: HashMap<String, Behavior>,
        dispatched: StdMutex<Vec<String>>,
    }

    impl FakePool {
        fn new(hosts: &[(&str, Behavior)]) -> Self {
            Self {
                behaviors: hosts.iter().map(|(h, b)| ((*h).to_owned(), *b)).collect(),
                dispatched: StdMutex::new(Vec::new()),
            }
        }

        fn dispatch_log(&self) -> Vec<String> {
            self.dispatched.lock().unwrap().clone()
        }

        fn outcome(scenario: &Scenario) -> CellOutcome {
            CellOutcome {
                id: scenario.id.clone(),
                key: scenario.cache_key(),
                status: CellStatus::Computed,
                metrics: None,
                error: None,
            }
        }
    }

    impl WorkerPool for FakePool {
        fn status(&self, addr: &str) -> io::Result<StatusReport> {
            let behavior = self.behaviors.get(addr).copied();
            let occupancy = match behavior {
                Some(Behavior::Healthy { occupancy }) => occupancy,
                Some(Behavior::Unreachable) | None => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        "unreachable",
                    ));
                }
                _ => 0,
            };
            Ok(StatusReport {
                role: "serve".into(),
                occupancy,
                queue_depth: 4,
                jobs: 2,
                ..StatusReport::default()
            })
        }

        fn dispatch(
            &self,
            addr: &str,
            request: EvalRequest,
            on_cell: &mut dyn FnMut(CellOutcome, &str),
        ) -> io::Result<ShardOutcome> {
            self.dispatched.lock().unwrap().push(addr.to_owned());
            match self.behaviors.get(addr).copied() {
                Some(Behavior::Healthy { .. }) => {
                    for s in &request.scenarios {
                        let cell = Self::outcome(s);
                        let raw = serde_json::to_string(&Response::Cell(cell.clone())).unwrap();
                        on_cell(cell, &raw);
                    }
                    Ok(ShardOutcome::Done {
                        hits: 0,
                        misses: request.scenarios.len(),
                    })
                }
                Some(Behavior::DiesAfter(n)) => {
                    for s in request.scenarios.iter().take(n) {
                        let cell = Self::outcome(s);
                        let raw = serde_json::to_string(&Response::Cell(cell.clone())).unwrap();
                        on_cell(cell, &raw);
                    }
                    Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "worker died mid-stream",
                    ))
                }
                Some(Behavior::AlwaysBusy { hint }) => Ok(ShardOutcome::Busy {
                    retry_after_ms: hint,
                }),
                Some(Behavior::Unreachable) | None => Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "unreachable",
                )),
            }
        }
    }

    fn grid(n: usize) -> Vec<Scenario> {
        // Cheap study scenarios with distinct ids, cycled from the
        // catalog; the fakes never evaluate them.
        (0..n)
            .map(|i| {
                let mut s = Scenario::study(StudyId::ALL[i % StudyId::ALL.len()]);
                s.id = format!("cell-{i}");
                s
            })
            .collect()
    }

    fn collect_emit() -> (StdMutex<Vec<CellOutcome>>, StdMutex<Vec<String>>) {
        (StdMutex::new(Vec::new()), StdMutex::new(Vec::new()))
    }

    #[test]
    fn selection_probes_orders_by_occupancy_and_drops_unreachable_hosts() {
        let pool = FakePool::new(&[
            ("w-loaded", Behavior::Healthy { occupancy: 3 }),
            ("w-idle", Behavior::Healthy { occupancy: 0 }),
            ("w-gone", Behavior::Unreachable),
            ("w-mid", Behavior::Healthy { occupancy: 1 }),
        ]);
        let configured: Vec<String> = ["w-loaded", "w-idle", "w-gone", "w-mid"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(
            select_workers(&pool, &configured),
            vec!["w-idle", "w-mid", "w-loaded"],
            "least-loaded first, dead host dropped"
        );
    }

    #[test]
    fn fan_out_completes_on_healthy_workers_in_one_round() {
        let pool = FakePool::new(&[
            ("a", Behavior::Healthy { occupancy: 0 }),
            ("b", Behavior::Healthy { occupancy: 0 }),
        ]);
        let scenarios = grid(5);
        let (cells_seen, raws_seen) = collect_emit();
        let result = fan_out(
            &pool,
            &["a".to_owned(), "b".to_owned()],
            "t-1",
            &scenarios,
            false,
            &Registry::default(),
            &|_, cell, raw| {
                cells_seen.lock().unwrap().push(cell);
                raws_seen.lock().unwrap().push(raw.to_owned());
            },
        );
        let FanoutResult::Ran(out) = result else {
            panic!("expected Ran, got {result:?}");
        };
        assert_eq!(out.rounds, 1);
        assert!(out.dead.is_empty());
        assert_eq!((out.hits, out.misses), (0, 5));
        let ids: Vec<&str> = out.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            ["cell-0", "cell-1", "cell-2", "cell-3", "cell-4"],
            "merged outcomes are in scenario order"
        );
        assert_eq!(cells_seen.lock().unwrap().len(), 5, "one emit per cell");
        assert_eq!(raws_seen.lock().unwrap().len(), 5);
        // Round-robin split: a gets indices 0,2,4; b gets 1,3. Shards
        // dispatch on parallel threads, so log order within a round is
        // unspecified — compare sorted.
        let mut log = pool.dispatch_log();
        log.sort_unstable();
        assert_eq!(log, ["a", "b"]);
    }

    #[test]
    fn fan_out_requeues_a_dead_workers_unfinished_cells_excluding_it() {
        // `a` delivers one of its three cells, then drops; `b` is
        // healthy. The two cells `a` never finished must complete on
        // `b`, and `a` must not be dispatched to again.
        let pool = FakePool::new(&[
            ("a", Behavior::DiesAfter(1)),
            ("b", Behavior::Healthy { occupancy: 0 }),
        ]);
        let scenarios = grid(6);
        let (cells_seen, _raws) = collect_emit();
        let result = fan_out(
            &pool,
            &["a".to_owned(), "b".to_owned()],
            "t-2",
            &scenarios,
            false,
            &Registry::default(),
            &|_, cell, _| cells_seen.lock().unwrap().push(cell),
        );
        let FanoutResult::Ran(out) = result else {
            panic!("expected Ran, got {result:?}");
        };
        assert_eq!(out.rounds, 2, "one requeue round");
        assert_eq!(out.dead, vec!["a".to_owned()]);
        assert_eq!(out.cells.len(), 6);
        assert!(
            out.cells.iter().all(|c| c.status == CellStatus::Computed),
            "every cell completed despite the loss: {:?}",
            out.cells
        );
        // Exactly one emit per scenario — the cell `a` delivered before
        // dying is not re-emitted by the requeue.
        let mut seen: Vec<String> = cells_seen
            .lock()
            .unwrap()
            .iter()
            .map(|c| c.id.clone())
            .collect();
        seen.sort();
        let mut expected: Vec<String> = scenarios.iter().map(|s| s.id.clone()).collect();
        expected.sort();
        assert_eq!(seen, expected);
        // Dispatch log: round 1 fans to a and b (parallel threads, so
        // order within the round is unspecified); round 2 only to b.
        let log = pool.dispatch_log();
        let mut round1 = log[..2].to_vec();
        round1.sort_unstable();
        assert_eq!(round1, ["a", "b"]);
        assert_eq!(log[2..], ["b".to_owned()]);
    }

    #[test]
    fn fan_out_treats_busy_workers_as_lost_for_the_request() {
        let pool = FakePool::new(&[
            ("busy", Behavior::AlwaysBusy { hint: 99 }),
            ("ok", Behavior::Healthy { occupancy: 0 }),
        ]);
        let scenarios = grid(4);
        let result = fan_out(
            &pool,
            &["busy".to_owned(), "ok".to_owned()],
            "t-3",
            &scenarios,
            false,
            &Registry::default(),
            &|_, _, _| {},
        );
        let FanoutResult::Ran(out) = result else {
            panic!("expected Ran, got {result:?}");
        };
        assert_eq!(out.dead, vec!["busy".to_owned()]);
        assert_eq!(out.cells.len(), 4);
        assert!(out.cells.iter().all(|c| c.status == CellStatus::Computed));
        // The busy host is excluded from the requeue round. Round-1
        // dispatches race on parallel threads — compare sorted.
        let log = pool.dispatch_log();
        let mut round1 = log[..2].to_vec();
        round1.sort_unstable();
        assert_eq!(round1, ["busy", "ok"]);
        assert_eq!(log[2..], ["ok".to_owned()]);
    }

    #[test]
    fn fan_out_reports_all_busy_when_every_worker_refuses_upfront() {
        let pool = FakePool::new(&[
            ("b1", Behavior::AlwaysBusy { hint: 40 }),
            ("b2", Behavior::AlwaysBusy { hint: 70 }),
        ]);
        let result = fan_out(
            &pool,
            &["b1".to_owned(), "b2".to_owned()],
            "t-4",
            &grid(3),
            false,
            &Registry::default(),
            &|_, _, _| {},
        );
        let FanoutResult::AllBusy { retry_after_ms } = result else {
            panic!("expected AllBusy, got {result:?}");
        };
        assert_eq!(retry_after_ms, 70, "the largest worker hint wins");
    }

    #[test]
    fn all_busy_is_detected_even_with_fewer_scenarios_than_workers() {
        // A 2-cell batch over 3 busy workers takes two rounds to try
        // everyone (round 1 dispatches 2 shards, round 2 the remaining
        // worker); the overall verdict must still be retryable Busy,
        // not per-cell failure.
        let pool = FakePool::new(&[
            ("b1", Behavior::AlwaysBusy { hint: 10 }),
            ("b2", Behavior::AlwaysBusy { hint: 20 }),
            ("b3", Behavior::AlwaysBusy { hint: 30 }),
        ]);
        let result = fan_out(
            &pool,
            &["b1".to_owned(), "b2".to_owned(), "b3".to_owned()],
            "t-6",
            &grid(2),
            false,
            &Registry::default(),
            &|_, _, _| {},
        );
        let FanoutResult::AllBusy { retry_after_ms } = result else {
            panic!("expected AllBusy, got {result:?}");
        };
        assert_eq!(retry_after_ms, 30);
        assert_eq!(pool.dispatch_log().len(), 3, "every worker was tried");
    }

    #[test]
    fn duplicate_display_ids_are_attributed_by_content_key() {
        // Two different scenarios sharing one display id: the arriving
        // cells must land on the scenario whose content key they carry,
        // not just the first unclaimed index with that id.
        let pool = FakePool::new(&[("w", Behavior::Healthy { occupancy: 0 })]);
        let mut a = Scenario::study(StudyId::Fig9a);
        let mut b = Scenario::study(StudyId::Table2);
        a.id = "dup".into();
        b.id = "dup".into();
        let scenarios = vec![a.clone(), b.clone()];
        let result = fan_out(
            &pool,
            &["w".to_owned()],
            "t-dup",
            &scenarios,
            false,
            &Registry::default(),
            &|_, _, _| {},
        );
        let FanoutResult::Ran(out) = result else {
            panic!("expected Ran, got {result:?}");
        };
        assert_eq!(out.cells.len(), 2);
        assert_eq!(out.cells[0].key, a.cache_key());
        assert_eq!(out.cells[1].key, b.cache_key());
        assert!(out.cells.iter().all(|c| c.status == CellStatus::Computed));
    }

    #[test]
    fn fan_out_synthesizes_failed_cells_when_every_worker_is_lost() {
        let pool = FakePool::new(&[
            ("d1", Behavior::DiesAfter(1)),
            ("d2", Behavior::DiesAfter(0)),
        ]);
        let scenarios = grid(5);
        let (cells_seen, _raws) = collect_emit();
        let result = fan_out(
            &pool,
            &["d1".to_owned(), "d2".to_owned()],
            "t-5",
            &scenarios,
            false,
            &Registry::default(),
            &|_, cell, _| cells_seen.lock().unwrap().push(cell),
        );
        let FanoutResult::Ran(out) = result else {
            panic!("expected Ran, got {result:?}");
        };
        assert_eq!(out.dead.len(), 2, "both workers lost");
        assert_eq!(out.cells.len(), 5, "batch still completes positionally");
        let failed = out
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Failed)
            .count();
        assert_eq!(failed, 4, "the one delivered cell survives");
        for cell in out.cells.iter().filter(|c| c.status == CellStatus::Failed) {
            assert_eq!(cell.error.as_ref().unwrap().category(), "evaluation");
        }
        assert_eq!(
            cells_seen.lock().unwrap().len(),
            5,
            "synthesized failures are emitted too"
        );
    }

    #[test]
    fn report_from_outcomes_matches_the_engine_report_shape() {
        let scenarios = grid(3);
        let outcomes: Vec<CellOutcome> = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| CellOutcome {
                id: s.id.clone(),
                key: s.cache_key(),
                status: if i == 0 {
                    CellStatus::Hit
                } else {
                    CellStatus::Computed
                },
                metrics: None,
                error: None,
            })
            .collect();
        let report = report_from_outcomes(&scenarios, &outcomes, 7);
        assert_eq!((report.hits, report.misses), (1, 2));
        assert_eq!(report.cells.len(), 3);
        assert!(report.cells[0].cached);
        assert!(!report.cells[1].cached);
        assert_eq!(report.cells[1].scenario, scenarios[1]);
        assert_eq!(report.elapsed_ms, 7);
    }

    fn coordinator(pool: FakePool, workers: &[&str], depth: usize) -> Coordinator {
        Coordinator::with_pool(
            Box::new(pool),
            ClusterConfig {
                workers: workers.iter().map(|s| (*s).to_owned()).collect(),
                queue_depth: depth,
            },
        )
    }

    fn line(request: &Request) -> String {
        serde_json::to_string(request).expect("request serializes")
    }

    #[test]
    fn coordinator_streams_a_v2_exchange_end_to_end() {
        let pool = FakePool::new(&[
            ("a", Behavior::Healthy { occupancy: 0 }),
            ("b", Behavior::Healthy { occupancy: 0 }),
        ]);
        let c = coordinator(pool, &["a", "b"], 2);
        let scenarios = grid(4);
        let mut frames: Vec<Response> = Vec::new();
        let served = c
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("cl-1", scenarios))),
                &mut frames,
            )
            .unwrap();
        assert_eq!(
            served,
            Served::Eval {
                id: "cl-1".into(),
                cells: 4,
                hits: 0,
                misses: 4,
                streamed: true,
            }
        );
        assert_eq!(frames.len(), 6, "accepted + 4 cells + done: {frames:?}");
        assert_eq!(
            frames[0],
            Response::Accepted {
                id: "cl-1".into(),
                position: 0
            }
        );
        assert!(frames[1..5].iter().all(|f| matches!(f, Response::Cell(_))));
        assert_eq!(
            frames[5],
            Response::Done {
                id: "cl-1".into(),
                hits: 0,
                misses: 4
            }
        );
        assert_eq!(c.gate().occupancy(), 0, "slot released after Done");
        let status = c.status();
        assert_eq!(status.role, "coordinator");
        assert_eq!(status.workers, 2);
        assert_eq!((status.served, status.cells), (1, 4));
    }

    #[test]
    fn coordinator_buffered_v1_collects_cells_in_request_order() {
        let pool = FakePool::new(&[
            ("a", Behavior::Healthy { occupancy: 0 }),
            ("b", Behavior::Healthy { occupancy: 0 }),
        ]);
        let c = coordinator(pool, &["a", "b"], 2);
        let scenarios = grid(5);
        let mut frames: Vec<Response> = Vec::new();
        c.handle_line(
            &line(&Request::Eval(EvalRequest::new("cl-2", scenarios))),
            &mut frames,
        )
        .unwrap();
        let Some(Response::Eval(response)) = frames.first() else {
            panic!("expected one buffered response, got {frames:?}");
        };
        assert_eq!(response.version, API_V1);
        let ids: Vec<&str> = response.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["cell-0", "cell-1", "cell-2", "cell-3", "cell-4"]);
        assert_eq!((response.hits, response.misses), (0, 5));
    }

    #[test]
    fn coordinator_answers_busy_when_no_worker_is_reachable_and_gates_overload() {
        let pool = FakePool::new(&[("gone", Behavior::Unreachable)]);
        let c = coordinator(pool, &["gone"], 1);
        // v2: an unreachable cluster is (probably) transient — answer
        // retryable Busy, not a hard failure.
        let mut frames: Vec<Response> = Vec::new();
        let served = c
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("cl-3", grid(2)))),
                &mut frames,
            )
            .unwrap();
        assert_eq!(
            served,
            Served::Rejected {
                id: "cl-3".into(),
                retry_after_ms: RETRY_QUANTUM_MS
            }
        );
        assert!(matches!(frames.first(), Some(Response::Busy { .. })));
        assert_eq!(c.gate().occupancy(), 0, "rejection releases the slot");

        // v1 gets the typed Busy refusal in the envelope.
        let mut frames: Vec<Response> = Vec::new();
        c.handle_line(
            &line(&Request::Eval(EvalRequest::new("cl-3b", grid(1)))),
            &mut frames,
        )
        .unwrap();
        let Some(Response::Eval(refusal)) = frames.first() else {
            panic!("expected a v1 refusal, got {frames:?}");
        };
        assert_eq!(refusal.error.as_ref().unwrap().category(), "busy");

        // Gate overload mirrors the single-box behavior.
        let _held = c.gate().try_enter().expect("hold the only slot");
        let mut frames: Vec<Response> = Vec::new();
        let served = c
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("cl-4", grid(1)))),
                &mut frames,
            )
            .unwrap();
        assert!(matches!(served, Served::Rejected { .. }));
        assert!(matches!(frames.first(), Some(Response::Busy { .. })));
        assert_eq!(c.status().rejected, 3, "all three rejections counted");
    }

    #[test]
    fn coordinator_terminal_frames_leave_after_the_exchange_is_counted() {
        let pool = FakePool::new(&[
            ("a", Behavior::Healthy { occupancy: 0 }),
            ("b", Behavior::Healthy { occupancy: 0 }),
        ]);
        let c = coordinator(pool, &["a", "b"], 2);
        let snapshot = || (c.status(), c.metrics().snapshot());
        let requests = [
            EvalRequest::streaming("cl-v2", grid(3)),
            EvalRequest::new("cl-v1", grid(3)),
        ];
        for (n, request) in (1u64..).zip(requests) {
            let mut probe = TerminalProbe::new(&snapshot);
            c.handle_line(&line(&Request::Eval(request)), &mut probe)
                .unwrap();
            let [(frame, status, metrics)] = &probe.seen[..] else {
                panic!("one terminal frame, got {:?}", probe.seen);
            };
            assert_eq!(status.served, n, "served counted before {frame:?}");
            assert_eq!(status.cells, 3 * n, "cells counted before {frame:?}");
            assert_eq!(status.occupancy, 0, "slot freed before {frame:?}");
            assert_eq!(metrics.counter("requests_total"), Some(n));
            assert_eq!(metrics.hist("flush_us").unwrap().count, n);
        }

        // Every worker refusing closes the stream with a counted Busy.
        let busy = coordinator(
            FakePool::new(&[("b1", Behavior::AlwaysBusy { hint: 7 })]),
            &["b1"],
            2,
        );
        let snapshot = || (busy.status(), busy.metrics().snapshot());
        let mut probe = TerminalProbe::new(&snapshot);
        busy.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("cl-busy", grid(2)))),
            &mut probe,
        )
        .unwrap();
        let [(Response::Busy { .. }, status, metrics)] = &probe.seen[..] else {
            panic!("one Busy frame, got {:?}", probe.seen);
        };
        assert_eq!(status.rejected, 1);
        assert_eq!(metrics.counter("requests_rejected_total"), Some(1));
    }

    #[test]
    fn coordinator_turns_all_busy_workers_into_a_client_busy() {
        let pool = FakePool::new(&[
            ("b1", Behavior::AlwaysBusy { hint: 123 }),
            ("b2", Behavior::AlwaysBusy { hint: 45 }),
        ]);
        let c = coordinator(pool, &["b1", "b2"], 2);
        let mut frames: Vec<Response> = Vec::new();
        let served = c
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("cl-5", grid(3)))),
                &mut frames,
            )
            .unwrap();
        assert_eq!(
            served,
            Served::Rejected {
                id: "cl-5".into(),
                retry_after_ms: 123
            }
        );
        // The stream opened with Accepted, then closed with Busy once
        // every worker refused.
        assert_eq!(frames.len(), 2);
        assert!(matches!(frames[0], Response::Accepted { .. }));
        assert_eq!(
            frames[1],
            Response::Busy {
                id: "cl-5".into(),
                retry_after_ms: 123
            }
        );
    }
}
