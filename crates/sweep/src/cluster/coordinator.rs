//! The fan-out: a coordinator's whole backend call.
//!
//! [`fan_out`] is an orchestration function over a [`WorkerPool`]:
//! deal → dispatch → merge → requeue, no sockets, no protocol — which is
//! what makes the requeue semantics unit-testable. It is the whole
//! backend of a coordinator
//! [`Runtime`](crate::serve::Runtime::coordinator): admission, metrics,
//! the NDJSON dispatch and the epoll reactor are the single box's own.
//! Dispatch is its only contact with workers: liveness is what a
//! dispatch sees, and load is the coordinator's own count of
//! sub-requests in flight on each worker.

use crate::api::{CellOutcome, CellStatus, EvalRequest, Shard, SweepError};
use crate::client::StreamOutcome;
use crate::cluster::pool::WorkerPool;
use crate::engine::{CellResult, SweepReport};
use crate::scenario::Scenario;
use crate::serve::{cell_line, splices, Busy, Emit, Ran, RETRY_QUANTUM_MS};
use crate::telemetry::{trace, Counter, Registry};
use std::io;
use std::sync::Mutex;
use std::time::Instant;

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

/// Shared merge state: which scenarios have been delivered, how many of
/// them were cache hits, and the current round's per-shard unclaimed
/// indices. One mutex makes claims atomic (each scenario is claimed —
/// and therefore emitted — exactly once); emits themselves happen
/// outside this lock.
struct FanState {
    delivered: Vec<bool>,
    hits: usize,
    pending: Vec<Vec<usize>>,
}

/// Fans `req`'s batch out over `workers` and merges the streamed cells
/// back, calling `emit(index, line)` exactly once per scenario as its
/// outcome arrives (`index` is the scenario's position). The decoded
/// cell only claims its scenario; the line is the worker's bytes, for
/// v2 and v1 alike, unless they fail [`splices`] and are re-serialized.
/// `emit` runs on the dispatch threads *outside* the merge lock and may
/// be called concurrently — callers serialize their own sink. Requeued
/// cells and per-worker dispatch latency are recorded in `metrics`, and
/// `span` travels to the workers inside the sub-request ids.
///
/// Partitioning reuses the `--shard i/n` round-robin rule
/// ([`Shard::select_indices`]). Shards are dealt to the live workers
/// with the fewest sub-requests in flight — `in_flight`, indexed like
/// `workers` and shared by every request this coordinator runs —
/// configured order breaking ties. A worker that refuses the
/// connection, drops mid-shard, answers `Busy`, or sends a `Done` that
/// leaves cells unaccounted is lost for this request, and its
/// *unfinished* cells are re-partitioned over the surviving workers in
/// the next round; cells it already delivered are never recomputed or
/// re-emitted.
///
/// A request no worker delivered a single cell of answers a retryable
/// [`Busy`] — the largest hint a worker sent, else [`RETRY_QUANTUM_MS`]
/// — since a cluster nobody answers is most likely restarting or
/// overloaded. Otherwise the cells still unfinished once every worker
/// is lost are emitted as `Failed`, so the batch always completes
/// positionally.
pub(crate) fn fan_out(
    pool: &dyn WorkerPool,
    workers: &[String],
    in_flight: &Mutex<Vec<usize>>,
    req: &EvalRequest,
    span: Option<&str>,
    metrics: &Registry,
    emit: &Emit,
) -> Result<Ran, Busy> {
    let scenarios = &req.scenarios;
    let state = Mutex::new(FanState {
        delivered: vec![false; scenarios.len()],
        hits: 0,
        pending: Vec::new(),
    });
    let keys: Vec<String> = scenarios.iter().map(Scenario::cache_key).collect();
    let mut live: Vec<usize> = (0..workers.len()).collect();
    let mut busy_hint: Option<u64> = None;
    for round in 0.. {
        let remaining: Vec<usize> = {
            let st = state.lock().expect("fan-out state");
            (0..scenarios.len()).filter(|&i| !st.delivered[i]).collect()
        };
        if remaining.is_empty() || live.is_empty() {
            break;
        }
        // Rounds past the first re-dispatch cells a lost worker left
        // unfinished — the requeue volume the metrics surface.
        if round > 0 {
            metrics.add(Counter::ClusterRequeues, remaining.len() as u64);
        }
        let shards = live.len().min(remaining.len());
        // Deal the shards to the least-loaded live workers under one
        // lock, so concurrent requests see each other's deals.
        let dealt: Vec<usize> = {
            let mut load = in_flight.lock().expect("worker load");
            live.sort_by_key(|&w| (load[w], w));
            for &w in &live[..shards] {
                load[w] += 1;
            }
            live[..shards].to_vec()
        };
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
        let results: Vec<io::Result<StreamOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .zip(&dealt)
                .enumerate()
                .map(|(k, (part, &w))| {
                    let addr = &workers[w];
                    let sub_scenarios: Vec<Scenario> =
                        part.iter().map(|&i| scenarios[i].clone()).collect();
                    // A traced request's span rides in the sub-request
                    // id, so each worker's stage records stitch to it.
                    let id = trace::sub_request_id(&req.id, span, round, k);
                    let mut sub = EvalRequest::streaming(id, sub_scenarios);
                    sub.force = req.force;
                    let state = &state;
                    let keys = &keys;
                    scope.spawn(move || {
                        let dispatch_started = Instant::now();
                        let result = pool.dispatch(addr, sub, &mut |cell, raw| {
                            // Claim under the merge lock, emit outside
                            // it: a slow consumer must not block other
                            // workers' arrivals on the merge state
                            // (emit callees do their own serialization).
                            let claimed = {
                                let mut st = state.lock().expect("fan-out state");
                                let idx = claim(&mut st.pending[k], scenarios, keys, cell);
                                if let Some(idx) = idx {
                                    st.delivered[idx] = true;
                                    st.hits += usize::from(cell.status == CellStatus::Hit);
                                }
                                idx
                            };
                            match claimed {
                                Some(idx) if splices(raw) => emit(idx, raw),
                                Some(idx) => emit(idx, &cell_line(cell.clone())),
                                None => {}
                            }
                        });
                        in_flight.lock().expect("worker load")[w] -= 1;
                        metrics.observe_dispatch(addr, dispatch_started.elapsed());
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("dispatch thread"))
                .collect()
        });

        let st = state.lock().expect("fan-out state");
        for (k, (result, w)) in results.into_iter().zip(dealt).enumerate() {
            let lost = match result {
                // A Done that left cells unclaimed means the worker
                // skipped work; trust it no further (this also
                // guarantees the round loop terminates: a round with no
                // progress always shrinks `live`).
                Ok(StreamOutcome::Done { .. }) => !st.pending[k].is_empty(),
                Ok(StreamOutcome::Busy { retry_after_ms }) => {
                    busy_hint = busy_hint.max(Some(retry_after_ms));
                    true
                }
                Err(_) => true,
            };
            if lost {
                live.retain(|&l| l != w);
            }
        }
    }

    let st = state.into_inner().expect("fan-out state");
    // Checked after the loop, not per round: a batch smaller than the
    // worker set reaches untried workers in later rounds.
    if !scenarios.is_empty() && !st.delivered.contains(&true) {
        return Err(Busy {
            retry_after_ms: busy_hint.unwrap_or(RETRY_QUANTUM_MS),
        });
    }
    for (idx, scenario) in scenarios.iter().enumerate() {
        if !st.delivered[idx] {
            let cell = CellOutcome {
                id: scenario.id.clone(),
                key: keys[idx].clone(),
                status: CellStatus::Failed,
                metrics: None,
                error: Some(SweepError::evaluation(
                    scenario.id.clone(),
                    "cluster: no live worker completed this cell",
                )),
            };
            emit(idx, &cell_line(cell));
        }
    }
    Ok(Ran::Cells {
        hits: st.hits,
        misses: scenarios.len() - st.hits,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{EvalResponse, Request, Response, API_V1};
    use crate::engine::Engine;
    use crate::scenario::StudyId;
    use crate::serve::tests::{RawLines, TerminalProbe};
    use crate::serve::{Runtime, ServeConfig, Served};
    use crate::telemetry::trace::read_spans;
    use crate::telemetry::SpanRecord;
    use std::collections::HashMap;
    use std::sync::{Arc, Condvar};

    /// How a fake worker behaves for the whole test.
    #[derive(Debug, Clone, Copy)]
    enum Behavior {
        /// Completes every dispatched cell (status `Computed`).
        Healthy,
        /// Like `Healthy`, but spells each frame `{"Cell": {…}}`, with a
        /// space the serializer never writes.
        Respaced,
        /// Like `Healthy`, but only once the test calls
        /// [`FakePool::release`]: until then the sub-request is held in
        /// flight.
        Held,
        /// Streams this many cells, then drops the connection.
        DiesAfter(usize),
        /// Refuses every dispatch with `Busy`.
        AlwaysBusy { hint: u64 },
        /// Refuses the connection.
        Unreachable,
    }

    /// An in-process worker pool with scripted per-host behavior and a
    /// dispatch log (who was asked, in order), shareable so a test can
    /// read it after handing the pool to a coordinator.
    struct FakePool {
        behaviors: HashMap<String, Behavior>,
        dispatched: Arc<Mutex<Vec<String>>>,
        /// Every `Cell` line the workers sent, in sending order.
        sent: Arc<Mutex<Vec<String>>>,
        released: (Mutex<bool>, Condvar),
    }

    impl FakePool {
        fn new(hosts: &[(&str, Behavior)]) -> Self {
            Self {
                behaviors: hosts.iter().map(|(h, b)| ((*h).to_owned(), *b)).collect(),
                dispatched: Arc::new(Mutex::new(Vec::new())),
                sent: Arc::new(Mutex::new(Vec::new())),
                released: (Mutex::new(false), Condvar::new()),
            }
        }

        fn dispatch_log(&self) -> Vec<String> {
            self.dispatched.lock().unwrap().clone()
        }

        /// Lets every `Held` dispatch, current and future, complete.
        fn release(&self) {
            *self.released.0.lock().unwrap() = true;
            self.released.1.notify_all();
        }

        fn complete(
            &self,
            request: &EvalRequest,
            cells: usize,
            respaced: bool,
            on_cell: &mut dyn FnMut(&CellOutcome, &str),
        ) {
            for s in request.scenarios.iter().take(cells) {
                let cell = CellOutcome {
                    id: s.id.clone(),
                    key: s.cache_key(),
                    status: CellStatus::Computed,
                    metrics: None,
                    error: None,
                };
                let raw = if respaced {
                    format!("{{\"Cell\": {}}}", serde_json::to_string(&cell).unwrap())
                } else {
                    serde_json::to_string(&Response::Cell(cell.clone())).unwrap()
                };
                self.sent.lock().unwrap().push(raw.clone());
                on_cell(&cell, &raw);
            }
        }
    }

    impl WorkerPool for FakePool {
        fn dispatch(
            &self,
            addr: &str,
            request: EvalRequest,
            on_cell: &mut dyn FnMut(&CellOutcome, &str),
        ) -> io::Result<StreamOutcome> {
            self.dispatched.lock().unwrap().push(addr.to_owned());
            let n = request.scenarios.len();
            let done = StreamOutcome::Done {
                position: 0,
                cells: n,
                hits: 0,
                misses: n,
            };
            match self.behaviors.get(addr).copied() {
                Some(behavior @ (Behavior::Healthy | Behavior::Respaced)) => {
                    let respaced = matches!(behavior, Behavior::Respaced);
                    self.complete(&request, n, respaced, on_cell);
                    Ok(done)
                }
                Some(Behavior::Held) => {
                    let (released, wake) = &self.released;
                    let _open = wake
                        .wait_while(released.lock().unwrap(), |open| !*open)
                        .unwrap();
                    self.complete(&request, n, false, on_cell);
                    Ok(done)
                }
                Some(Behavior::DiesAfter(cells)) => {
                    self.complete(&request, cells, false, on_cell);
                    Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "worker died mid-stream",
                    ))
                }
                Some(Behavior::AlwaysBusy { hint }) => Ok(StreamOutcome::Busy {
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

    /// A fan-out fixture: the pool, the configured workers, and their
    /// in-flight load, shared by every request a test runs through it.
    struct Fan<'p> {
        pool: &'p FakePool,
        workers: Vec<String>,
        in_flight: Mutex<Vec<usize>>,
    }

    /// What one fan-out answered: the backend's verdict and every emit
    /// as `(index, decoded cell, line)`, sorted by index.
    type Fanned = (Result<Ran, Busy>, Vec<(usize, CellOutcome, String)>);

    impl<'p> Fan<'p> {
        fn new(pool: &'p FakePool, workers: &[&str]) -> Self {
            Self {
                pool,
                workers: workers.iter().map(|s| (*s).to_owned()).collect(),
                in_flight: Mutex::new(vec![0; workers.len()]),
            }
        }

        fn run(&self, id: &str, scenarios: Vec<Scenario>) -> Fanned {
            let emitted = Mutex::new(Vec::new());
            let ran = fan_out(
                self.pool,
                &self.workers,
                &self.in_flight,
                &EvalRequest::streaming(id, scenarios),
                None,
                &Registry::default(),
                &|i, line| {
                    let Ok(Response::Cell(cell)) = serde_json::from_str(line) else {
                        panic!("emitted a line that is no Cell frame: {line}");
                    };
                    emitted.lock().unwrap().push((i, cell, line.to_owned()));
                },
            );
            let mut emitted = emitted.into_inner().unwrap();
            emitted.sort_by_key(|(i, _, _)| *i);
            (ran, emitted)
        }
    }

    /// The `(hits, misses)` of a fan-out that ran.
    fn split(ran: &Result<Ran, Busy>) -> (usize, usize) {
        match ran {
            Ok(Ran::Cells { hits, misses }) => (*hits, *misses),
            other => panic!("expected cells, got {other:?}"),
        }
    }

    /// The hint of a fan-out that answered `Busy` without emitting.
    fn busy(fanned: Fanned) -> u64 {
        match fanned {
            (Err(Busy { retry_after_ms }), emitted) if emitted.is_empty() => retry_after_ms,
            other => panic!("expected a Busy with nothing emitted, got {other:?}"),
        }
    }

    #[test]
    fn shards_go_to_the_worker_with_fewer_sub_requests_in_flight() {
        let pool = FakePool::new(&[("a", Behavior::Held), ("b", Behavior::Healthy)]);
        let fan = Fan::new(&pool, &["a", "b"]);
        std::thread::scope(|scope| {
            // Both idle: the configured order breaks the tie, so the
            // first 1-cell request goes to `a`, which holds it.
            let held = scope.spawn(|| fan.run("t-held", grid(1)));
            while pool.dispatch_log().is_empty() {
                std::thread::yield_now();
            }
            // `a` has one sub-request in flight, `b` none.
            let (ran, emitted) = fan.run("t-next", grid(1));
            assert_eq!(split(&ran), (0, 1));
            assert_eq!(emitted.len(), 1);
            assert_eq!(pool.dispatch_log(), ["a", "b"]);
            pool.release();
            let (ran, _) = held.join().unwrap();
            assert_eq!(split(&ran), (0, 1));
        });
        // Both idle again, so both later requests go to `a`: every
        // finished sub-request left the count.
        for id in ["t-idle-1", "t-idle-2"] {
            assert_eq!(split(&fan.run(id, grid(1)).0), (0, 1));
        }
        assert_eq!(pool.dispatch_log(), ["a", "b", "a", "a"]);
    }

    #[test]
    fn no_delivered_cell_is_a_retryable_busy() {
        let pool = FakePool::new(&[
            ("gone", Behavior::Unreachable),
            ("b40", Behavior::AlwaysBusy { hint: 40 }),
            ("b70", Behavior::AlwaysBusy { hint: 70 }),
            ("dies", Behavior::DiesAfter(0)),
        ]);
        let run = |workers: &[&str]| busy(Fan::new(&pool, workers).run("t-busy", grid(3)));
        assert_eq!(run(&["b40", "b70"]), 70, "the largest worker hint");
        assert_eq!(run(&["gone", "b70"]), 70, "a hint beats no hint");
        assert_eq!(run(&["gone"]), RETRY_QUANTUM_MS, "no worker hinted");
        assert_eq!(run(&["dies"]), RETRY_QUANTUM_MS, "lost before a cell");
        // An empty batch has nothing to deliver: it completes, not Busy.
        let (ran, _) = Fan::new(&pool, &["gone"]).run("t-empty", Vec::new());
        assert_eq!(split(&ran), (0, 0));
    }

    #[test]
    fn an_unreachable_workers_shard_requeues_onto_a_reachable_one() {
        let pool = FakePool::new(&[("gone", Behavior::Unreachable), ("ok", Behavior::Healthy)]);
        let (ran, emitted) = Fan::new(&pool, &["gone", "ok"]).run("t-gone", grid(4));
        assert_eq!(split(&ran), (0, 4));
        let indices: Vec<usize> = emitted.iter().map(|(i, _, _)| *i).collect();
        assert_eq!(indices, [0, 1, 2, 3], "one emit per cell");
        assert!(emitted
            .iter()
            .all(|(_, c, _)| c.status == CellStatus::Computed));
        // Round 1 deals to both (parallel threads, so the order within
        // the round is unspecified); round 2 only to `ok`.
        let log = pool.dispatch_log();
        let mut round1 = log[..2].to_vec();
        round1.sort_unstable();
        assert_eq!(round1, ["gone", "ok"]);
        assert_eq!(log[2..], ["ok".to_owned()]);
    }

    #[test]
    fn fan_out_completes_on_healthy_workers_in_one_round() {
        let pool = FakePool::new(&[("a", Behavior::Healthy), ("b", Behavior::Healthy)]);
        let scenarios = grid(5);
        let (ran, emitted) = Fan::new(&pool, &["a", "b"]).run("t-1", scenarios);
        assert_eq!(split(&ran), (0, 5));
        let cells: Vec<(usize, &str)> = emitted
            .iter()
            .map(|(i, c, _)| (*i, c.id.as_str()))
            .collect();
        assert_eq!(
            cells,
            [
                (0, "cell-0"),
                (1, "cell-1"),
                (2, "cell-2"),
                (3, "cell-3"),
                (4, "cell-4")
            ],
            "one emit per cell, at its scenario's position"
        );
        let mut lines: Vec<&str> = emitted.iter().map(|(_, _, line)| line.as_str()).collect();
        lines.sort_unstable();
        let mut sent = pool.sent.lock().unwrap().clone();
        sent.sort_unstable();
        assert_eq!(lines, sent, "worker bytes forwarded");
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
        let pool = FakePool::new(&[("a", Behavior::DiesAfter(1)), ("b", Behavior::Healthy)]);
        let (ran, emitted) = Fan::new(&pool, &["a", "b"]).run("t-2", grid(6));
        assert_eq!(split(&ran), (0, 6));
        // Exactly one emit per scenario — the cell `a` delivered before
        // dying is not re-emitted by the requeue — and none failed.
        let indices: Vec<usize> = emitted.iter().map(|(i, _, _)| *i).collect();
        assert_eq!(indices, [0, 1, 2, 3, 4, 5]);
        assert!(
            emitted
                .iter()
                .all(|(_, c, _)| c.status == CellStatus::Computed),
            "every cell completed despite the loss: {emitted:?}"
        );
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
            ("ok", Behavior::Healthy),
        ]);
        let (ran, emitted) = Fan::new(&pool, &["busy", "ok"]).run("t-3", grid(4));
        assert_eq!(split(&ran), (0, 4));
        assert_eq!(emitted.len(), 4);
        assert!(emitted
            .iter()
            .all(|(_, c, _)| c.status == CellStatus::Computed));
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
        let fanned = Fan::new(&pool, &["b1", "b2"]).run("t-4", grid(3));
        assert_eq!(busy(fanned), 70, "the largest worker hint wins");
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
        let fanned = Fan::new(&pool, &["b1", "b2", "b3"]).run("t-6", grid(2));
        assert_eq!(busy(fanned), 30);
        assert_eq!(pool.dispatch_log().len(), 3, "every worker was tried");
    }

    #[test]
    fn duplicate_display_ids_are_attributed_by_content_key() {
        // Two different scenarios sharing one display id: the arriving
        // cells must land on the scenario whose content key they carry,
        // not just the first unclaimed index with that id.
        let pool = FakePool::new(&[("w", Behavior::Healthy)]);
        let mut a = Scenario::study(StudyId::Fig9a);
        let mut b = Scenario::study(StudyId::Table2);
        a.id = "dup".into();
        b.id = "dup".into();
        let (ran, emitted) = Fan::new(&pool, &["w"]).run("t-dup", vec![a.clone(), b.clone()]);
        assert_eq!(split(&ran), (0, 2));
        assert_eq!(emitted.len(), 2);
        assert_eq!((emitted[0].0, &emitted[0].1.key), (0, &a.cache_key()));
        assert_eq!((emitted[1].0, &emitted[1].1.key), (1, &b.cache_key()));
        assert!(emitted
            .iter()
            .all(|(_, c, _)| c.status == CellStatus::Computed));
    }

    #[test]
    fn fan_out_synthesizes_failed_cells_when_every_worker_is_lost() {
        let pool = FakePool::new(&[
            ("d1", Behavior::DiesAfter(1)),
            ("d2", Behavior::DiesAfter(0)),
        ]);
        let (ran, emitted) = Fan::new(&pool, &["d1", "d2"]).run("t-5", grid(5));
        assert_eq!(split(&ran), (0, 5));
        let mut log = pool.dispatch_log();
        log.sort_unstable();
        assert_eq!(log, ["d1", "d2"], "both workers lost in round 1");
        assert_eq!(emitted.len(), 5, "batch still completes positionally");
        let failed: Vec<&CellOutcome> = emitted
            .iter()
            .map(|(_, c, _)| c)
            .filter(|c| c.status == CellStatus::Failed)
            .collect();
        assert_eq!(failed.len(), 4, "the one delivered cell survives");
        for cell in failed {
            assert_eq!(cell.error.as_ref().unwrap().category(), "evaluation");
        }
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

    fn coordinator(pool: FakePool, workers: &[&str], depth: usize) -> Runtime {
        Runtime::with_pool(
            Box::new(pool),
            workers.iter().map(|s| (*s).to_owned()).collect(),
            depth,
        )
    }

    fn line(request: &Request) -> String {
        serde_json::to_string(request).expect("request serializes")
    }

    #[test]
    fn coordinator_streams_a_v2_exchange_end_to_end() {
        let pool = FakePool::new(&[("a", Behavior::Healthy), ("b", Behavior::Healthy)]);
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
        let pool = FakePool::new(&[("a", Behavior::Healthy), ("b", Behavior::Healthy)]);
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

    /// The one line a v1 exchange answers, checked to read back as an
    /// `Eval` reply the serializer writes byte for byte.
    fn v1_reply(c: &Runtime, id: &str, scenarios: Vec<Scenario>) -> (String, EvalResponse) {
        let mut lines = RawLines::default();
        c.handle_line(
            &line(&Request::Eval(EvalRequest::new(id, scenarios))),
            &mut lines,
        )
        .unwrap();
        let [reply] = &lines.0[..] else {
            panic!("one v1 line, got {:?}", lines.0);
        };
        let Ok(Response::Eval(decoded)) = serde_json::from_str::<Response>(reply) else {
            panic!("the reply does not read back as an Eval: {reply}");
        };
        let rebuilt = serde_json::to_string(&Response::Eval(decoded.clone())).unwrap();
        assert_eq!(*reply, rebuilt, "the serializer's bytes");
        (reply.clone(), decoded)
    }

    #[test]
    fn coordinator_passes_worker_cell_lines_on_and_merges_v1_as_the_serializer_does() {
        let pool = FakePool::new(&[("a", Behavior::Healthy), ("b", Behavior::Healthy)]);
        let sent = Arc::clone(&pool.sent);
        let c = coordinator(pool, &["a", "b"], 2);

        // v2: every `Cell` line the client reads is a line a worker sent.
        let mut v2 = RawLines::default();
        c.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("cl-lines", grid(5)))),
            &mut v2,
        )
        .unwrap();
        let mut forwarded: Vec<String> =
            v2.0.iter()
                .filter(|l| l.starts_with(r#"{"Cell":"#))
                .cloned()
                .collect();
        let mut worker_lines = std::mem::take(&mut *sent.lock().unwrap());
        forwarded.sort_unstable();
        worker_lines.sort_unstable();
        assert_eq!(forwarded.len(), 5);
        assert_eq!(forwarded, worker_lines);

        // v1: the merge is one line in request order, every cell a miss.
        let (_, decoded) = v1_reply(&c, "cl-merge", grid(5));
        let ids: Vec<&str> = decoded.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["cell-0", "cell-1", "cell-2", "cell-3", "cell-4"]);
        assert_eq!((decoded.hits, decoded.misses), (0, 5));
    }

    #[test]
    fn a_respaced_worker_line_still_yields_the_canonical_v1_line() {
        let reply = |behavior| {
            let pool = FakePool::new(&[("w", behavior)]);
            let sent = Arc::clone(&pool.sent);
            let c = coordinator(pool, &["w"], 2);
            let (reply, decoded) = v1_reply(&c, "cl-space", grid(3));
            assert_eq!((decoded.hits, decoded.misses), (0, 3), "{reply}");
            let sent = sent.lock().unwrap().clone();
            (reply, sent)
        };
        let (canonical, _) = reply(Behavior::Healthy);
        let (respaced, sent) = reply(Behavior::Respaced);
        assert_eq!(sent.len(), 3);
        assert!(
            sent.iter().all(|l| l.starts_with(r#"{"Cell": {"#)),
            "{sent:?}"
        );
        assert_eq!(respaced, canonical);
    }

    #[test]
    fn coordinator_answers_busy_when_no_worker_is_reachable_and_gates_overload() {
        let pool = FakePool::new(&[("gone", Behavior::Unreachable)]);
        let c = coordinator(pool, &["gone"], 1);
        // v2: an unreachable cluster is (probably) transient — answer
        // retryable Busy, not a hard failure. The refused dispatch is
        // part of the backend call, so the stream opens with Accepted,
        // as when every worker answers Busy.
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
        assert_eq!(
            frames,
            [
                Response::Accepted {
                    id: "cl-3".into(),
                    position: 0
                },
                Response::Busy {
                    id: "cl-3".into(),
                    retry_after_ms: 250
                }
            ]
        );
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
    fn coordinator_never_answers_from_a_memo() {
        let pool = FakePool::new(&[("a", Behavior::Healthy), ("b", Behavior::Healthy)]);
        let log = Arc::clone(&pool.dispatched);
        let c = coordinator(pool, &["a", "b"], 2);
        let warm = line(&Request::Eval(EvalRequest::new("cl-warm", grid(4))));
        for round in 1..=2 {
            let mut frames: Vec<Response> = Vec::new();
            let served = c.handle_line(&warm, &mut frames).unwrap();
            assert!(
                matches!(served, Served::Eval { cells: 4, .. }),
                "{served:?}"
            );
            assert_eq!(
                log.lock().unwrap().len(),
                2 * round,
                "repeat {round} reached both workers"
            );
        }
        let mut frames: Vec<Response> = Vec::new();
        assert!(c
            .try_handle_warm(&warm, Instant::now(), &mut frames)
            .is_none());
        assert!(frames.is_empty(), "nothing answered inline: {frames:?}");
        assert_eq!(log.lock().unwrap().len(), 4);
        assert_eq!(c.status().served, 2);
    }

    #[test]
    fn coordinator_terminal_frames_leave_after_the_exchange_is_counted() {
        let pool = FakePool::new(&[("a", Behavior::Healthy), ("b", Behavior::Healthy)]);
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

    /// A pool whose one worker is an in-process runtime: each
    /// sub-request reaches its `handle_line` as the line `TcpPool` sends.
    struct InProcessPool(Runtime);

    impl WorkerPool for InProcessPool {
        fn dispatch(
            &self,
            _addr: &str,
            request: EvalRequest,
            on_cell: &mut dyn FnMut(&CellOutcome, &str),
        ) -> io::Result<StreamOutcome> {
            let mut lines = RawLines::default();
            self.0
                .handle_line(&line(&Request::Eval(request)), &mut lines)?;
            let mut cells = 0;
            for raw in &lines.0 {
                match serde_json::from_str(raw).expect("worker frame parses") {
                    Response::Cell(cell) => {
                        cells += 1;
                        on_cell(&cell, raw);
                    }
                    Response::Done { hits, misses, .. } => {
                        return Ok(StreamOutcome::Done {
                            position: 0,
                            cells,
                            hits,
                            misses,
                        })
                    }
                    _ => {}
                }
            }
            Err(io::Error::other("the worker sent no Done"))
        }
    }

    #[test]
    fn a_worker_adopts_its_coordinators_span() {
        let dir = |side: &str| {
            let dir =
                std::env::temp_dir().join(format!("yoco-stitch-{side}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let (co_dir, worker_dir) = (dir("coordinator"), dir("worker"));
        let worker = Runtime::new(
            Engine::ephemeral(),
            ServeConfig {
                queue_depth: 2,
                jobs: 1,
            },
        )
        .with_registry(Registry::traced(&worker_dir).expect("worker trace dir opens"));
        // The worker mints a span of its own first, so a span it adopts
        // cannot pass for one it minted.
        let own = EvalRequest::new("own-1", vec![Scenario::study(StudyId::Fig9a)]);
        worker
            .handle_line(&line(&Request::Eval(own)), &mut RawLines::default())
            .unwrap();
        let c = Runtime::with_pool(Box::new(InProcessPool(worker)), vec!["w".into()], 2)
            .with_registry(Registry::traced(&co_dir).expect("coordinator trace dir opens"));
        let request = EvalRequest::new("stitch-1", vec![Scenario::study(StudyId::Fig9a)]);
        let mut frames: Vec<Response> = Vec::new();
        c.handle_line(&line(&Request::Eval(request)), &mut frames)
            .unwrap();
        assert!(
            matches!(&frames[..], [Response::Eval(r)] if r.is_ok()),
            "{frames:?}"
        );

        let stages = |records: &[SpanRecord]| -> Vec<String> {
            records.iter().map(|r| r.stage.clone()).collect()
        };
        let co = read_spans(&co_dir).expect("coordinator spans parse");
        assert_eq!(stages(&co), ["queued", "eval", "flush"]);
        let span = co[0].span.clone();
        assert!(
            co.iter().all(|r| r.id == "stitch-1" && r.span == span),
            "{co:?}"
        );
        let mut worker = read_spans(&worker_dir).expect("worker spans parse");
        worker.retain(|r| r.id != "own-1");
        assert_eq!(stages(&worker), ["queued", "eval", "flush"]);
        let sub_id = format!("stitch-1#t{span}#r0w0");
        assert!(
            worker.iter().all(|r| r.id == sub_id && r.span == span),
            "the worker adopts span {span} from {sub_id}: {worker:?}"
        );
        assert!(worker
            .iter()
            .chain(&co)
            .all(|r| r.grid == "study/fig9a" && r.cells == 1));
        let _ = std::fs::remove_dir_all(co_dir);
        let _ = std::fs::remove_dir_all(worker_dir);
    }
}
