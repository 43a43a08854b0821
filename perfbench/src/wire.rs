//! The benchmark's lean client: one NDJSON connection, raw byte replies,
//! and byte-level output checks. It shares a CPU with the server, so it
//! never decodes a reply on the timed path.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use yoco_sweep::api::{EvalRequest, MetricsReport, Request, Response};
use yoco_sweep::Scenario;

/// One request shape of a workload: the exact line sent and the reply
/// it must produce.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Short label used in metric names (`fig8`, `subset`, …).
    pub label: &'static str,
    /// The request line, newline-terminated.
    pub line: Vec<u8>,
    /// Whether the reply streams v2 frames.
    pub streamed: bool,
    /// The expected reply.
    pub expect: Expect,
}

/// An expected reply.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A buffered v1 reply: exactly these bytes.
    Line(Vec<u8>),
    /// A v2 stream: exact first and last frames, and `Cell` frames
    /// compared as a sorted multiset, since cold completion order varies.
    Stream {
        first: Vec<u8>,
        cells: Vec<Vec<u8>>,
        last: Vec<u8>,
    },
}

impl Expect {
    /// Builds the stream expectation from reply lines in any cell order.
    pub fn stream(lines: &[Vec<u8>]) -> Result<Self, String> {
        if lines.len() < 2 {
            return Err(format!(
                "a v2 reply needs at least 2 frames, got {}",
                lines.len()
            ));
        }
        let mut cells = lines[1..lines.len() - 1].to_vec();
        cells.sort();
        Ok(Expect::Stream {
            first: lines[0].clone(),
            cells,
            last: lines[lines.len() - 1].clone(),
        })
    }

    /// Whether `reply` (frames as byte ranges of `buf`) matches.
    pub fn matches(
        &self,
        buf: &[u8],
        reply: &[(usize, usize)],
        scratch: &mut Vec<(usize, usize)>,
    ) -> bool {
        let frame = |&(a, b): &(usize, usize)| &buf[a..b];
        match self {
            Expect::Line(want) => reply.len() == 1 && frame(&reply[0]) == want.as_slice(),
            Expect::Stream { first, cells, last } => {
                if reply.len() != cells.len() + 2
                    || frame(&reply[0]) != first.as_slice()
                    || frame(&reply[reply.len() - 1]) != last.as_slice()
                {
                    return false;
                }
                scratch.clear();
                scratch.extend_from_slice(&reply[1..reply.len() - 1]);
                scratch.sort_unstable_by(|x, y| frame(x).cmp(frame(y)));
                scratch
                    .iter()
                    .zip(cells)
                    .all(|(got, want)| frame(got) == want.as_slice())
            }
        }
    }

    /// Every frame of the expectation, first to last.
    pub fn lines(&self) -> Vec<Vec<u8>> {
        match self {
            Expect::Line(l) => vec![l.clone()],
            Expect::Stream { first, cells, last } => {
                let mut out = vec![first.clone()];
                out.extend(cells.iter().cloned());
                out.push(last.clone());
                out
            }
        }
    }
}

/// The request line for `scenarios`, serialized by the program's own API
/// types (the server receives nothing else from the benchmark).
pub fn eval_line(id: &str, scenarios: Vec<Scenario>, streamed: bool, force: bool) -> Vec<u8> {
    let mut req = if streamed {
        EvalRequest::streaming(id, scenarios)
    } else {
        EvalRequest::new(id, scenarios)
    };
    req.force = force;
    let mut line = serde_json::to_string(&Request::Eval(req))
        .expect("requests serialize")
        .into_bytes();
    line.push(b'\n');
    line
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with `TCP_NODELAY`, as every client of the server does.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
        })
    }

    /// Sends `line` and reads its reply into `buf`, one `(start, end)`
    /// range per frame (newline excluded): one frame for v1, frames up to
    /// `Done` (or `Busy`/`Error`) for v2.
    pub fn exchange(
        &mut self,
        line: &[u8],
        streamed: bool,
        buf: &mut Vec<u8>,
        frames: &mut Vec<(usize, usize)>,
    ) -> Result<(), String> {
        buf.clear();
        frames.clear();
        self.writer
            .write_all(line)
            .map_err(|e| format!("send: {e}"))?;
        loop {
            let start = buf.len();
            let n = self
                .reader
                .read_until(b'\n', buf)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-reply".into());
            }
            let end = if buf.last() == Some(&b'\n') {
                buf.len() - 1
            } else {
                buf.len()
            };
            frames.push((start, end));
            let frame = &buf[start..end];
            let terminal = !streamed
                || frame.starts_with(b"{\"Done\"")
                || frame.starts_with(b"{\"Busy\"")
                || frame.starts_with(b"{\"Error\"");
            if terminal {
                return Ok(());
            }
        }
    }

    /// Sends `line` and returns the reply frames as owned lines.
    pub fn exchange_lines(&mut self, line: &[u8], streamed: bool) -> Result<Vec<Vec<u8>>, String> {
        let (mut buf, mut frames) = (Vec::new(), Vec::new());
        self.exchange(line, streamed, &mut buf, &mut frames)?;
        Ok(frames.iter().map(|&(a, b)| buf[a..b].to_vec()).collect())
    }

    /// Scrapes the server's telemetry (a control frame: never counted
    /// as a request).
    pub fn metrics(&mut self) -> Result<MetricsReport, String> {
        let reply = self.exchange_lines(b"\"Metrics\"\n", false)?;
        match decode(&reply[0]) {
            Ok(Response::Metrics(report)) => Ok(report),
            other => Err(format!("unexpected Metrics reply: {other:?}")),
        }
    }
}

/// Decodes one reply frame with the program's own types (never on the
/// timed path).
pub fn decode<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}
