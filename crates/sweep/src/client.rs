//! A minimal blocking client for the `yoco-serve` NDJSON protocol.
//!
//! Wraps one TCP connection: requests go out as single JSON lines,
//! server lines come back as raw text plus the decoded [`Response`]
//! frame (the raw text matters — warm v1 responses are byte-stable, and
//! CI diffs them verbatim). The `sweep client` subcommand and the
//! service-level tests both drive the server through this type instead
//! of hand-rolled socket code.

use crate::api::{EvalRequest, EvalResponse, MetricsReport, Request, Response, StatusReport};
use crate::serve::reactor::LineBuf;
use rand::{Rng, SplitMix64};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How much a single `read` may pull off the socket. A streamed batch
/// answers with hundreds of small `Cell` frames back to back; reading
/// them a chunk at a time and splitting lines in memory turns one
/// syscall into a whole batch of frames.
const READ_CHUNK: usize = 64 * 1024;

/// Bound on connecting to each address a server name resolves to. Kept
/// short: a host that blackholes SYNs (powered off, firewalled) must
/// cost a bounded wait — a coordinator requeues the shard after it — not
/// the OS default of minutes.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on every read. Generous: one exchange can hold multi-second
/// Monte-Carlo studies. Past it a wedged server fails the exchange
/// instead of hanging its caller (a coordinator's silent worker stalls
/// only its own shard, which then requeues).
const READ_TIMEOUT: Duration = Duration::from_secs(600);

/// How a streamed (protocol-v2) exchange ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamOutcome {
    /// The batch ran: admission position and final tallies.
    Done {
        /// In-flight requests ahead at admission.
        position: usize,
        /// `Cell` frames received.
        cells: usize,
        /// Cells served from the cache.
        hits: usize,
        /// Cells computed (or failed) fresh.
        misses: usize,
    },
    /// The server's admission queue was full.
    Busy {
        /// Suggested backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

/// How `Busy` answers are retried inside one logical exchange:
/// exponential backoff with jitter, seeded from the server's own EWMA
/// `retry_after_ms` hint (see `backoff_ms`).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries, including the first (1 = no retry).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { attempts: 4 }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the raw-measurement escape hatch
    /// (`--no-retry`) the load generator uses to observe Busy rates.
    pub fn none() -> Self {
        Self { attempts: 1 }
    }
}

/// Backoff floor in milliseconds when the server's hint is smaller.
const BACKOFF_BASE_MS: u64 = 25;
/// Backoff ceiling in milliseconds (pre-jitter).
const BACKOFF_CAP_MS: u64 = 2_000;
/// Seed of each exchange's jitter stream.
const JITTER_SEED: u64 = 0x59C0;

/// The jittered backoff before retry number `attempt` (0-based),
/// honoring the server's `retry_after_ms` hint: `max(hint,
/// BACKOFF_BASE_MS) · 2^attempt`, capped at [`BACKOFF_CAP_MS`], then
/// jittered by a uniform factor in `[0.5, 1.5)` so a fleet of rejected
/// clients doesn't re-arrive in lockstep. Deterministic per `rng` seed
/// (the vendored SplitMix64).
fn backoff_ms(attempt: u32, hint_ms: u64, rng: &mut SplitMix64) -> u64 {
    let floor = hint_ms.max(BACKOFF_BASE_MS);
    let exp = floor
        .saturating_mul(1u64 << attempt.min(20))
        .min(BACKOFF_CAP_MS);
    let jitter: f64 = 0.5 + rng.gen::<f64>();
    ((exp as f64 * jitter) as u64).max(1)
}

/// One connection to a `yoco-serve` instance.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    /// Already-read bytes, split into frames in batches: one socket
    /// read typically delivers many pipelined response lines at once
    /// (the reactor writes them back to back), and [`LineBuf`] pops
    /// them without re-reading or re-scanning.
    lines: LineBuf,
}

impl ServeClient {
    /// Connects to `addr` (`HOST:PORT`), giving up on each resolved
    /// address after 2 s (like `TcpStream::connect`, every address is
    /// tried — a dual-stack hostname whose first record is unreachable
    /// still connects via the next; worst case is one timeout per
    /// address). Each read then waits at most 600 s.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let mut last_err = None;
        for target in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&target, CONNECT_TIMEOUT) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("`{addr}` resolves to no address"),
            )
        }))
    }

    fn from_stream(stream: TcpStream) -> io::Result<Self> {
        // The protocol is many small frames with request/response
        // turnarounds; leaving Nagle on costs a delayed-ACK stall
        // (~40 ms) per exchange, which used to dominate warm-path
        // latency end to end.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self {
            stream,
            lines: LineBuf::default(),
        })
    }

    /// Bounds every subsequent read in place of the 600 s default
    /// (`None` blocks forever).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request line.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let text = serde_json::to_string(request).map_err(|e| io::Error::other(e.to_string()))?;
        self.send_line(&text)
    }

    /// Sends one already-serialized request line (no trailing
    /// newline). The load generator reuses one serialized line per mix
    /// entry — re-serializing an identical 9 KB request per arrival
    /// would make the client the bottleneck of its own measurement.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.stream, "{line}")?;
        self.stream.flush()
    }

    /// Reads the next server line, returning it raw (newline stripped)
    /// alongside the decoded frame. EOF and undecodable lines are
    /// errors — the server never sends either mid-protocol.
    pub fn recv(&mut self) -> io::Result<(String, Response)> {
        let raw = self.recv_line()?;
        let frame = serde_json::from_str::<Response>(&raw)
            .map_err(|e| io::Error::other(format!("undecodable server line {raw:?}: {e}")))?;
        Ok((raw, frame))
    }

    /// Reads the next raw server line without decoding it. EOF is an
    /// error — the server never closes mid-protocol.
    pub fn recv_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.lines.next_line() {
                return Ok(line);
            }
            let mut chunk = [0u8; READ_CHUNK];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.lines.feed(&chunk[..n]);
        }
    }

    /// Liveness round trip: `Ping` → `Pong`.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            (_, Response::Pong) => Ok(()),
            (raw, _) => Err(io::Error::other(format!("expected Pong, got {raw}"))),
        }
    }

    /// Load probe: `Status` → the server's [`StatusReport`]. Control
    /// plane — answers even when the admission queue is full, which is
    /// what makes it usable for load balancing.
    pub fn status(&mut self) -> io::Result<StatusReport> {
        self.send(&Request::Status)?;
        match self.recv()? {
            (_, Response::Status(report)) => Ok(report),
            (raw, _) => Err(io::Error::other(format!("expected Status, got {raw}"))),
        }
    }

    /// Telemetry scrape: `Metrics` → the server's [`MetricsReport`],
    /// with the raw NDJSON line alongside (for `--raw` passthrough).
    /// Control plane like [`ServeClient::status`] — bypasses the gate,
    /// so a saturated server can still be scraped mid-run.
    pub fn metrics(&mut self) -> io::Result<(String, MetricsReport)> {
        self.send(&Request::Metrics)?;
        match self.recv()? {
            (raw, Response::Metrics(report)) => Ok((raw, report)),
            (raw, _) => Err(io::Error::other(format!("expected Metrics, got {raw}"))),
        }
    }

    /// Asks the server to drain and exit: `Shutdown` → `Bye`.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            (_, Response::Bye) => Ok(()),
            (raw, _) => Err(io::Error::other(format!("expected Bye, got {raw}"))),
        }
    }

    /// One buffered (protocol-v1) exchange: the request out, the single
    /// response line back, raw alongside decoded.
    pub fn eval_buffered(
        &mut self,
        request: EvalRequest,
    ) -> io::Result<(String, crate::api::EvalResponse)> {
        self.send(&Request::Eval(request))?;
        match self.recv()? {
            (raw, Response::Eval(response)) => Ok((raw, response)),
            (raw, _) => Err(io::Error::other(format!(
                "expected a buffered Eval response, got {raw}"
            ))),
        }
    }

    /// One streamed (protocol-v2) exchange. `on_frame` sees every
    /// server line as it arrives — `Accepted`, each `Cell`, and the
    /// terminal `Done`/`Busy` — raw alongside decoded; the return value
    /// summarizes how the exchange ended.
    pub fn eval_streaming(
        &mut self,
        request: EvalRequest,
        mut on_frame: impl FnMut(&str, &Response),
    ) -> io::Result<StreamOutcome> {
        self.send(&Request::Eval(request))?;
        let mut position = 0;
        let mut cells = 0;
        loop {
            let (raw, frame) = self.recv()?;
            on_frame(&raw, &frame);
            match frame {
                Response::Accepted { position: p, .. } => position = p,
                Response::Cell(_) => cells += 1,
                Response::Done { hits, misses, .. } => {
                    return Ok(StreamOutcome::Done {
                        position,
                        cells,
                        hits,
                        misses,
                    });
                }
                Response::Busy { retry_after_ms, .. } => {
                    return Ok(StreamOutcome::Busy { retry_after_ms });
                }
                Response::Eval(resp) => {
                    // A version-refusal comes back buffered even for a
                    // malformed v2 request; surface it as an error.
                    return Err(io::Error::other(format!(
                        "streamed request refused: {}",
                        resp.error
                            .map(|e| e.to_string())
                            .unwrap_or_else(|| "unexpected buffered response".into())
                    )));
                }
                Response::Error(e) => {
                    return Err(io::Error::other(format!("server rejected the line: {e}")));
                }
                Response::Pong | Response::Bye | Response::Status(_) | Response::Metrics(_) => {
                    return Err(io::Error::other(format!(
                        "unexpected control frame mid-stream: {raw}"
                    )));
                }
            }
        }
    }

    /// [`ServeClient::eval_streaming`] with in-request `Busy` retry:
    /// re-submits after a jittered exponential backoff (see
    /// [`RetryPolicy`]), returning the final outcome — `Busy` only when
    /// every attempt was rejected. `on_frame` sees the frames of every
    /// attempt, terminal `Busy` frames of retried attempts included.
    pub fn eval_streaming_with_retry(
        &mut self,
        request: EvalRequest,
        policy: &RetryPolicy,
        mut on_frame: impl FnMut(&str, &Response),
    ) -> io::Result<StreamOutcome> {
        self.retry_busy(
            policy,
            |client| client.eval_streaming(request.clone(), &mut on_frame),
            |outcome| match outcome {
                StreamOutcome::Busy { retry_after_ms } => Some(*retry_after_ms),
                StreamOutcome::Done { .. } => None,
            },
        )
    }

    /// [`ServeClient::eval_buffered`] with in-request `Busy` retry —
    /// the protocol-v1 mirror of
    /// [`ServeClient::eval_streaming_with_retry`]: a `Busy` refusal
    /// (an `EvalResponse` whose error category is `"busy"`) is retried
    /// on the same backoff schedule; any other response returns
    /// immediately.
    pub fn eval_buffered_with_retry(
        &mut self,
        request: EvalRequest,
        policy: &RetryPolicy,
    ) -> io::Result<(String, EvalResponse)> {
        self.retry_busy(
            policy,
            |client| client.eval_buffered(request.clone()),
            |(_, response)| match response.error {
                Some(crate::api::SweepError::Busy { retry_after_ms }) => Some(retry_after_ms),
                _ => None,
            },
        )
    }

    /// The Busy-retry loop behind both `*_with_retry` calls: repeats
    /// `exchange` while `busy_hint` reads a `Busy` hint off its answer,
    /// sleeping the policy's backoff in between, and returns the first
    /// other answer or the last attempt's.
    fn retry_busy<T>(
        &mut self,
        policy: &RetryPolicy,
        mut exchange: impl FnMut(&mut Self) -> io::Result<T>,
        busy_hint: impl Fn(&T) -> Option<u64>,
    ) -> io::Result<T> {
        let mut rng = SplitMix64::new(JITTER_SEED);
        for attempt in 0..policy.attempts.saturating_sub(1) {
            let answer = exchange(self)?;
            let Some(hint) = busy_hint(&answer) else {
                return Ok(answer);
            };
            let backoff = backoff_ms(attempt, hint, &mut rng);
            std::thread::sleep(Duration::from_millis(backoff));
        }
        exchange(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_honors_hint_doubles_caps_and_jitters_within_bounds() {
        let mut rng = SplitMix64::new(JITTER_SEED);
        // A server hint above the 25 ms base floors the schedule; each
        // step doubles pre-jitter up to the 2 s cap, with jitter in
        // [0.5, 1.5).
        let schedule = [100u64, 200, 400, 800, 1_600, 2_000, 2_000];
        for (attempt, expected) in (0u32..).zip(schedule) {
            let ms = backoff_ms(attempt, 100, &mut rng);
            let lo = expected / 2;
            let hi = expected * 3 / 2;
            assert!(
                (lo..=hi).contains(&ms),
                "attempt {attempt}: {ms} outside [{lo}, {hi}]"
            );
        }
        // A tiny hint falls back to the base floor.
        let mut rng = SplitMix64::new(JITTER_SEED);
        let ms = backoff_ms(0, 1, &mut rng);
        assert!((12..=38).contains(&ms), "floored backoff {ms}");
        // Deterministic per seed.
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(backoff_ms(1, 50, &mut a), backoff_ms(1, 50, &mut b));
    }

    #[test]
    fn none_policy_is_single_shot() {
        assert_eq!(RetryPolicy::none().attempts, 1);
    }

    #[test]
    fn busy_is_retried_until_the_policy_runs_out_then_returned() {
        use crate::api::SweepError;
        use crate::engine::Engine;
        use crate::scenario::{Scenario, StudyId};
        use crate::serve::{listen, serve_reactor, Runtime, ServeConfig};
        use std::sync::Arc;

        // A runtime admitting nothing, served on an ephemeral port.
        let (listener, local) = listen("127.0.0.1:0").expect("binds");
        let runtime = Arc::new(Runtime::new(
            Engine::ephemeral(),
            ServeConfig {
                queue_depth: 0,
                jobs: 1,
            },
        ));
        let reactor = std::thread::spawn(move || serve_reactor(listener, runtime, true));
        let mut client = ServeClient::connect(&local.to_string()).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout set");

        // The real backoff: a zero-depth gate hints 250 ms, so each
        // exchange sleeps at most 375 + 750 ms before its last try.
        let policy = RetryPolicy { attempts: 3 };
        let batch = vec![Scenario::study(StudyId::Fig9a)];
        let mut busy_frames = 0;
        let outcome = client
            .eval_streaming_with_retry(
                EvalRequest::streaming("retry-v2", batch.clone()),
                &policy,
                |_, frame| busy_frames += usize::from(matches!(frame, Response::Busy { .. })),
            )
            .expect("v2 exchange");
        assert!(matches!(outcome, StreamOutcome::Busy { .. }), "{outcome:?}");
        assert_eq!(busy_frames, 3, "every attempt's Busy frame is seen");
        assert_eq!(client.status().expect("Status").rejected, 3);

        let (_, response) = client
            .eval_buffered_with_retry(EvalRequest::new("retry-v1", batch), &policy)
            .expect("v1 exchange");
        assert!(
            matches!(response.error, Some(SweepError::Busy { .. })),
            "{response:?}"
        );
        assert_eq!(client.status().expect("Status").rejected, 6);

        client.shutdown().expect("Shutdown answers Bye");
        reactor
            .join()
            .expect("reactor thread")
            .expect("reactor drains cleanly");
    }
}
