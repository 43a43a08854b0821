//! The open-loop multi-connection driver.
//!
//! The driver owns N connections and a pre-built schedule. Arrivals are
//! assigned to connections round-robin; each connection thread walks
//! its sub-schedule in order, sleeps until each scheduled instant, and
//! issues the request *whether or not the previous one has completed* —
//! a connection that falls behind fires late, and the lateness is
//! charged to the request's latency because latency is measured from
//! the **scheduled** instant, not the actual send. This is the
//! wrk2-style correction for coordinated omission: a stalled server
//! inflates the recorded tail instead of silently slowing the offered
//! rate.
//!
//! The transport is abstracted behind [`Issuer`] so the accounting can
//! be tested against a deliberately stalled fake without a socket; the
//! real transport is [`TcpIssuer`], one blocking [`ServeClient`] per
//! connection.

use super::mix::MixEntry;
use super::report::{EntrySummary, LatencyHistogram, Outcome, Summary};
use crate::api::{CellStatus, EvalRequest, Request, Response};
use crate::client::ServeClient;
use std::io;
use std::time::{Duration, Instant};

/// One blocking request issue: the driver's transport seam.
pub trait Issuer: Send {
    /// Issues the request described by `entry`, blocking until the
    /// exchange ends, and classifies how it ended.
    fn issue(&mut self, entry: &MixEntry) -> Outcome;
}

/// The TCP transport: one [`ServeClient`] per driver connection.
///
/// A saturated run turns every connection into a closed loop, so the
/// client's own per-request cost caps what it can measure. Two things
/// keep that cost small: each mix entry's request line is serialized
/// once per connection (the server treats ids as opaque labels, so one
/// fixed id per entry is fine), and response frames are classified by
/// tag prefix — only terminal frames and `Cell` frames that may carry a
/// failure are decoded, so a failed cell is still exactly an
/// [`Outcome::Error`].
#[derive(Debug)]
pub struct TcpIssuer {
    client: ServeClient,
    deadline_ms: Option<u64>,
    /// Each entry issued so far, with its serialized request line.
    lines: Vec<(MixEntry, String)>,
}

impl TcpIssuer {
    /// Connects to `addr`, optionally stamping every request with a
    /// `deadline_ms` patience budget (so a backed-up server sheds
    /// overdue queued requests as `Busy` instead of serving them to a
    /// client that stopped caring — the loadgen then *measures* that
    /// shedding as the deadline/Busy rate).
    pub fn connect(addr: &str, deadline_ms: Option<u64>) -> io::Result<Self> {
        Ok(Self {
            client: ServeClient::connect(addr)?,
            deadline_ms,
            lines: Vec::new(),
        })
    }

    /// Where `entry`'s request line sits in `lines`, serializing it on
    /// its first issue.
    fn slot(&mut self, entry: &MixEntry) -> io::Result<usize> {
        let known = self.lines.iter().position(|(seen, _)| {
            seen.v1 == entry.v1 && seen.cold == entry.cold && seen.scenarios == entry.scenarios
        });
        Ok(match known {
            Some(slot) => slot,
            None => {
                let id = format!("lg-{}", entry.label());
                let mut request = if entry.v1 {
                    EvalRequest::new(id, entry.scenarios.clone())
                } else {
                    EvalRequest::streaming(id, entry.scenarios.clone())
                };
                request.force = entry.cold;
                request.deadline_ms = self.deadline_ms;
                let line = serde_json::to_string(&Request::Eval(request))
                    .map_err(|e| io::Error::other(e.to_string()))?;
                self.lines.push((entry.clone(), line));
                self.lines.len() - 1
            }
        })
    }

    /// One exchange, read through to its terminal frame so the
    /// connection stays in step even after a failed cell.
    fn exchange(&mut self, entry: &MixEntry) -> io::Result<Outcome> {
        let slot = self.slot(entry)?;
        self.client.send_line(&self.lines[slot].1)?;
        let mut failed = false;
        loop {
            let raw = self.client.recv_line()?;
            if raw.starts_with("{\"Accepted\":") {
                continue;
            }
            // A cell's status serializes as `"status":"Failed"`, so a
            // line without that token cannot be a failed cell.
            let terminal = !raw.starts_with("{\"Cell\":");
            if !terminal && !raw.contains("\"Failed\"") {
                continue;
            }
            let frame = serde_json::from_str::<Response>(&raw)
                .map_err(|e| io::Error::other(format!("undecodable server line {raw:?}: {e}")))?;
            let outcome = match frame {
                Response::Cell(cell) => {
                    failed |= cell.status == CellStatus::Failed;
                    continue;
                }
                Response::Done { .. } if failed => Outcome::Error,
                Response::Done { .. } => Outcome::Ok,
                Response::Busy { .. } => Outcome::Busy,
                Response::Eval(response) => match &response.error {
                    Some(e) if e.category() == "busy" => Outcome::Busy,
                    Some(_) => Outcome::Error,
                    None if response.is_ok() => Outcome::Ok,
                    None => Outcome::Error,
                },
                _ => Outcome::Error,
            };
            return Ok(outcome);
        }
    }
}

impl Issuer for TcpIssuer {
    fn issue(&mut self, entry: &MixEntry) -> Outcome {
        self.exchange(entry).unwrap_or(Outcome::Error)
    }
}

/// Runs the open loop: `schedule[i]` fires entry
/// `entries[assignment[i]]` on connection `i % issuers.len()`. Returns
/// the aggregated [`Summary`]; `duration` is the configured window the
/// schedule was built for (it sets the offered rate — the wall clock
/// may run longer when the server lags, and that shows up as
/// `achieved_rps < offered_rps`).
pub fn run(
    schedule: &[Duration],
    assignment: &[usize],
    entries: &[MixEntry],
    issuers: Vec<Box<dyn Issuer>>,
    duration: Duration,
) -> Summary {
    assert_eq!(schedule.len(), assignment.len());
    assert!(!issuers.is_empty(), "the driver needs at least one issuer");
    let connections = issuers.len();
    let start = Instant::now();
    // (mix entry, latency from the scheduled instant, outcome) per
    // issued request — the entry index feeds the per-entry breakdown.
    let per_conn: Vec<Vec<(usize, Duration, Outcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = issuers
            .into_iter()
            .enumerate()
            .map(|(conn, mut issuer)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for (i, (offset, entry_idx)) in
                        schedule.iter().zip(assignment).enumerate().skip(conn)
                    {
                        if (i - conn) % connections != 0 {
                            continue;
                        }
                        let scheduled = start + *offset;
                        // Fire at the scheduled instant; if the previous
                        // request on this connection overran it, fire
                        // immediately — the overrun is part of this
                        // request's latency.
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let outcome = issuer.issue(&entries[*entry_idx]);
                        samples.push((*entry_idx, scheduled.elapsed(), outcome));
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver connection thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut per_entry: Vec<EntrySummary> = entries
        .iter()
        .map(|entry| EntrySummary {
            label: entry.label(),
            sent: 0,
            completed: 0,
            busy: 0,
            errors: 0,
            latency: LatencyHistogram::default(),
        })
        .collect();
    for (entry_idx, lat, outcome) in per_conn.into_iter().flatten() {
        let slot = &mut per_entry[entry_idx];
        slot.sent += 1;
        match outcome {
            Outcome::Ok => {
                slot.completed += 1;
                slot.latency.record(lat);
            }
            Outcome::Busy => slot.busy += 1,
            Outcome::Error => slot.errors += 1,
        }
    }
    // The run totals are the entry slices folded back together — same
    // buckets, disjoint samples, so nothing is lost to the split.
    let mut latency = LatencyHistogram::default();
    let (mut sent, mut completed, mut busy, mut errors) = (0usize, 0usize, 0usize, 0usize);
    for slot in &per_entry {
        sent += slot.sent;
        completed += slot.completed;
        busy += slot.busy;
        errors += slot.errors;
        latency.merge(&slot.latency);
    }
    let secs = elapsed.as_secs_f64().max(1e-9);
    Summary {
        offered: schedule.len(),
        sent,
        completed,
        busy,
        errors,
        elapsed,
        offered_rps: schedule.len() as f64 / duration.as_secs_f64().max(1e-9),
        achieved_rps: completed as f64 / secs,
        latency,
        entries: per_entry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::engine::Engine;
    use crate::loadgen::arrivals::{schedule, ArrivalKind};
    use crate::loadgen::mix::Mix;
    use crate::scenario::{AcceleratorKind, DesignPoint, Scenario, StudyId, WorkloadSpec};
    use crate::serve::{listen, serve_reactor, Runtime, ServeConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// A server standing perfectly still: every issue blocks `stall`
    /// then answers `outcome`.
    struct Stalled {
        stall: Duration,
        outcome: Outcome,
        issued: Arc<AtomicUsize>,
    }

    impl Issuer for Stalled {
        fn issue(&mut self, _entry: &MixEntry) -> Outcome {
            std::thread::sleep(self.stall);
            self.issued.fetch_add(1, Ordering::SeqCst);
            self.outcome
        }
    }

    fn stalled_fleet(
        n: usize,
        stall: Duration,
        outcome: Outcome,
    ) -> (Vec<Box<dyn Issuer>>, Arc<AtomicUsize>) {
        let issued = Arc::new(AtomicUsize::new(0));
        let fleet = (0..n)
            .map(|_| {
                Box::new(Stalled {
                    stall,
                    outcome,
                    issued: Arc::clone(&issued),
                }) as Box<dyn Issuer>
            })
            .collect();
        (fleet, issued)
    }

    #[test]
    fn offered_vs_achieved_accounting_is_exact_under_a_stalled_server() {
        // 40 arrivals over 200 ms; the "server" takes 20 ms per request
        // on each of 2 connections, so it can only absorb ~10 in the
        // window — yet the open loop issues every single arrival.
        let duration = Duration::from_millis(200);
        let plan = schedule(ArrivalKind::Fixed, 200.0, duration, 0);
        let mix = Mix::parse("fig9a").unwrap();
        let assignment = mix.assign(plan.len(), 0);
        let (fleet, issued) = stalled_fleet(2, Duration::from_millis(20), Outcome::Ok);
        let summary = run(&plan, &assignment, mix.entries(), fleet, duration);
        assert_eq!(summary.offered, 40);
        assert_eq!(summary.sent, 40, "open loop issues every arrival");
        assert_eq!(issued.load(Ordering::SeqCst), 40);
        assert_eq!(summary.completed, 40);
        assert_eq!(summary.busy + summary.errors, 0);
        // 40 requests × 20 ms over 2 connections = ~400 ms of work for
        // a 200 ms window: achieved must trail offered.
        assert!(
            summary.achieved_rps < summary.offered_rps * 0.8,
            "achieved {:.1} should trail offered {:.1}",
            summary.achieved_rps,
            summary.offered_rps
        );
        // Coordinated omission shows up: the tail (scheduled-instant
        // latency) must reflect the queue that built up, far above the
        // 20 ms service time.
        assert!(
            summary.latency.quantile_ms(0.99) > 60.0,
            "p99 {:.1} ms should carry the backlog",
            summary.latency.quantile_ms(0.99)
        );
    }

    #[test]
    fn busy_answers_are_counted_not_retried() {
        let duration = Duration::from_millis(50);
        let plan = schedule(ArrivalKind::Fixed, 400.0, duration, 0);
        let mix = Mix::parse("fig9a").unwrap();
        let assignment = mix.assign(plan.len(), 0);
        let (fleet, _) = stalled_fleet(4, Duration::from_millis(1), Outcome::Busy);
        let summary = run(&plan, &assignment, mix.entries(), fleet, duration);
        assert_eq!(summary.offered, 20);
        assert_eq!(summary.sent, 20);
        assert_eq!(summary.completed, 0);
        assert_eq!(summary.busy, 20);
        assert_eq!(summary.achieved_rps, 0.0);
        assert_eq!(summary.busy_rate(), 1.0);
        assert_eq!(summary.latency.count(), 0, "Busy has no service latency");
    }

    #[test]
    fn per_entry_breakdown_partitions_the_run_exactly() {
        let duration = Duration::from_millis(100);
        let plan = schedule(ArrivalKind::Fixed, 400.0, duration, 0);
        let mix = Mix::parse("fig9a=3,fig9a:v1=1").unwrap();
        let assignment = mix.assign(plan.len(), 7);
        let (fleet, _) = stalled_fleet(4, Duration::from_millis(1), Outcome::Ok);
        let summary = run(&plan, &assignment, mix.entries(), fleet, duration);
        assert_eq!(summary.entries.len(), 2);
        assert_eq!(summary.entries[0].label, "fig9a=3");
        assert_eq!(summary.entries[1].label, "fig9a:v1");
        // The slices partition the totals: counts and histogram alike.
        assert_eq!(
            summary.entries.iter().map(|e| e.sent).sum::<usize>(),
            summary.sent
        );
        assert_eq!(
            summary.entries.iter().map(|e| e.completed).sum::<usize>(),
            summary.completed
        );
        assert_eq!(
            summary
                .entries
                .iter()
                .map(|e| e.latency.count())
                .sum::<u64>(),
            summary.latency.count()
        );
        // The seeded 3:1 weighting shows up in the per-entry counts.
        assert!(
            summary.entries[0].sent > summary.entries[1].sent,
            "heavier entry issues more requests ({} vs {})",
            summary.entries[0].sent,
            summary.entries[1].sent
        );
    }

    /// A runtime over a fresh cache, served by the reactor on an
    /// ephemeral port from a background thread until [`Live::stop`].
    struct Live {
        addr: String,
        reactor: JoinHandle<io::Result<()>>,
        cache_dir: PathBuf,
    }

    impl Live {
        fn start(tag: &str, queue_depth: usize) -> Self {
            let cache_dir = std::env::temp_dir()
                .join(format!("yoco-loadgen-driver-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&cache_dir);
            let (listener, local) = listen("127.0.0.1:0").expect("binds");
            let runtime = Runtime::new(
                Engine::ephemeral().with_cache(ResultCache::at(&cache_dir)),
                ServeConfig {
                    queue_depth,
                    jobs: 2,
                },
            );
            let reactor =
                std::thread::spawn(move || serve_reactor(listener, Arc::new(runtime), true));
            Self {
                addr: local.to_string(),
                reactor,
                cache_dir,
            }
        }

        fn client(&self) -> ServeClient {
            let mut client = ServeClient::connect(&self.addr).expect("connects");
            client
                .set_read_timeout(Some(Duration::from_secs(120)))
                .expect("timeout set");
            client
        }

        fn misses(&self) -> u64 {
            self.client().status().expect("Status answers").misses
        }

        fn stop(self) {
            self.client().shutdown().expect("Shutdown answers Bye");
            self.reactor
                .join()
                .expect("reactor thread")
                .expect("reactor drains cleanly");
            let _ = std::fs::remove_dir_all(&self.cache_dir);
        }
    }

    /// A mix entry over an explicit batch rather than a named grid.
    fn entry(grid: &str, v1: bool, scenarios: Vec<Scenario>) -> MixEntry {
        MixEntry {
            grid: grid.into(),
            v1,
            cold: false,
            weight: 1,
            scenarios,
        }
    }

    fn tiny_batch() -> Vec<Scenario> {
        vec![
            Scenario::study(StudyId::Fig9a),
            Scenario::study(StudyId::Table2),
        ]
    }

    /// The `api::wire` failed-cell fixture: a study that evaluates next
    /// to a zoo cell naming no model.
    fn failing_batch() -> Vec<Scenario> {
        vec![
            Scenario::study(StudyId::Fig9a),
            Scenario::gemm(
                AcceleratorKind::Yoco,
                DesignPoint::paper(),
                WorkloadSpec::Zoo {
                    model: "no-such-model".into(),
                },
            ),
        ]
    }

    #[test]
    fn tcp_issuer_answers_ok_when_warm_and_error_on_a_failed_cell() {
        let live = Live::start("outcomes", 4);
        let mut issuer = TcpIssuer::connect(&live.addr, None).expect("connects");
        let (warm_v2, warm_v1) = (
            entry("tiny", false, tiny_batch()),
            entry("tiny", true, tiny_batch()),
        );
        assert_eq!(issuer.issue(&warm_v2), Outcome::Ok, "the priming issue");
        let primed = live.misses();
        assert_eq!(issuer.issue(&warm_v2), Outcome::Ok, "warm v2");
        assert_eq!(issuer.issue(&warm_v1), Outcome::Ok, "warm v1");
        assert_eq!(live.misses(), primed, "both warm issues hit");
        for v1 in [false, true] {
            let failing = entry("failing", v1, failing_batch());
            assert_eq!(issuer.issue(&failing), Outcome::Error, "v1 {v1}");
            // Read through to the terminal frame: the connection is
            // still in step for the next exchange.
            assert_eq!(issuer.issue(&warm_v2), Outcome::Ok, "after v1 {v1}");
        }
        live.stop();
    }

    #[test]
    fn tcp_issuer_answers_busy_from_a_runtime_admitting_nothing() {
        let live = Live::start("busy", 0);
        let mut issuer = TcpIssuer::connect(&live.addr, None).expect("connects");
        for v1 in [false, true] {
            let tiny = entry("tiny", v1, tiny_batch());
            assert_eq!(issuer.issue(&tiny), Outcome::Busy, "v1 {v1}");
        }
        live.stop();
    }

    #[test]
    fn saturated_run_over_tcp_completes_every_arrival() {
        let live = Live::start("saturated", 4);
        let duration = Duration::from_micros(10);
        // 40 arrivals inside 10 µs: each connection's 20 loopback round
        // trips take far longer, so it issues back to back.
        let plan = schedule(ArrivalKind::Fixed, 4_000_000.0, duration, 0);
        let mix = Mix::parse("fig9a=3,fig9a:v1=1").unwrap();
        let assignment = mix.assign(plan.len(), 0);
        let issuers: Vec<Box<dyn Issuer>> = (0..2)
            .map(|_| {
                Box::new(TcpIssuer::connect(&live.addr, None).expect("connects")) as Box<dyn Issuer>
            })
            .collect();
        let summary = run(&plan, &assignment, mix.entries(), issuers, duration);
        assert_eq!(summary.sent, 40);
        assert_eq!(summary.completed, summary.sent);
        assert_eq!(summary.busy + summary.errors, 0);
        assert!(summary.achieved_rps < summary.offered_rps);
        live.stop();
    }
}
