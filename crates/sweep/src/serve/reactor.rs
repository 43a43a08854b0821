//! The event-driven serve core: one reactor thread multiplexing the
//! listener and every client connection over the vendored epoll shim
//! ([`mio`]), with a small worker pool executing request lines against
//! the socket-free [`Runtime`] — a single box's or a coordinator's.
//!
//! A thread-per-connection accept loop caps concurrent connections at
//! "how many stacks can you afford" long before the shared engine is
//! the limit. Here a connection costs two heap buffers:
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!                    │  reactor thread (epoll)                    │
//!  accept ──────────▶│  listener ── token 0                       │
//!                    │  waker ───── token 1 (eventfd)             │
//!  readable ────────▶│  conn N ──── read → LineBuf → lines        │
//!                    │                │ dispatch (line, Instant)  │
//!                    │                ▼                           │
//!                    │        job queue (mpsc)                    │
//!                    │                │                           │
//!                    │   workers: runtime.handle_line_at(...)     │
//!                    │                │ frames                    │
//!                    │                ▼                           │
//!                    │  OutBuf (bounded) ─ dirty queue ─ waker    │
//!  writable ────────▶│  conn N ──── flush until EAGAIN            │
//!                    └────────────────────────────────────────────┘
//! ```
//!
//! * **Pipelining** — a client may write any number of request lines
//!   without waiting for responses; the reactor answers each exactly
//!   once, **in request order**. At most one line per connection is in
//!   flight at a time, because frames of concurrently-served requests
//!   would interleave — a v2 `Cell` carries no request id, so ordering
//!   *is* the framing. Distinct connections still run fully in
//!   parallel.
//! * **The read rule** — a connection is read only while none of its
//!   lines is in flight or waiting in its [`LineBuf`], and a read ends
//!   at the first complete line. Lines pipelined behind the one in
//!   flight wait in the kernel's socket buffer, whose bound TCP pushes
//!   back on the client with, and one pass answers inline only the
//!   lines one read completed on each connection.
//! * **Backpressure** — frames are appended to a bounded
//!   per-connection [`OutBuf`]; a partial write keeps the remainder
//!   and arms `WRITABLE` interest (EAGAIN requeues the flush), and a
//!   client that stops reading until the buffer hits its cap is
//!   disconnected instead of holding server memory hostage.
//! * **Bounded lines** — past [`MAX_LINE_BYTES`] without a newline, a
//!   connection gets one `Error` frame at once (its earlier lines were
//!   answered before that read) and is closed.
//! * **Deadlines** — each line is stamped with its receipt
//!   [`Instant`]; the admission gate answers `Busy` for requests whose
//!   `deadline_ms` expired while queued, instead of occupying a slot.
//! * **Shutdown** — on a served `Shutdown` the reactor stops
//!   accepting and stops reading, then drains: every line already read
//!   is answered and every outbuf flushes (the `Bye` reaches its client)
//!   before the loop exits. A 60 s grace bounds the drain and with it
//!   the whole shutdown: [`serve_reactor`] returns when the loop does,
//!   and a worker still inside a call finishes on its own (its frames
//!   hit closed outbufs and fail fast) or ends with the process.

use super::{FrameSink, Runtime, Served};
use crate::api::{Response, SweepError};
use crate::telemetry::{Counter, Hist, Registry};
use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bound on one connection's pending response bytes. Generous — a full
/// `fig8` v1 response is tens of kilobytes — but finite: past it the
/// client is deemed a slow reader and disconnected.
const OUTBUF_CAP: usize = 16 * 1024 * 1024;

/// The longest request line a connection may send; the largest named
/// grid's request (`dse-full`) is about 32 KiB.
pub const MAX_LINE_BYTES: usize = 1024 * 1024;

/// How long a shutdown may take from the served `Shutdown`: the drain
/// answers and flushes until then, force-closes what is left, and
/// [`serve_reactor`] returns whatever its workers are still inside.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(60);

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const FIRST_CONN: usize = 2;

/// An incremental NDJSON line parser over a growing byte buffer:
/// `feed` appends whatever the socket delivered (any framing — bytes
/// may split a line anywhere), `next_line` pops complete lines.
#[derive(Debug, Default)]
pub(crate) struct LineBuf {
    buf: Vec<u8>,
    /// Where the unconsumed bytes start. Popping a line only moves this
    /// cursor; shifting the rest of the buffer per line would make a
    /// pipelined burst cost quadratic time.
    start: usize,
    /// How far the buffer has been scanned for a newline (at the newline
    /// once one is found), so repeated reads do not rescan a prefix.
    scanned: usize,
}

impl LineBuf {
    /// Appends freshly read bytes, first dropping the lines already
    /// popped (one compaction per read, not one per line).
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fed and not yet popped: once [`LineBuf::next_line`]
    /// returns `None`, the unterminated line so far.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether a complete line is waiting. The search resumes where the
    /// last one stopped and stops at the newline it finds.
    pub(crate) fn has_line(&mut self) -> bool {
        match find_newline(&self.buf[self.scanned..]) {
            Some(offset) => {
                self.scanned += offset;
                true
            }
            None => {
                self.scanned = self.buf.len();
                false
            }
        }
    }

    /// Pops the next complete line (newline stripped, CRLF tolerated).
    /// Invalid UTF-8 is replaced rather than fatal — the dispatch
    /// answers such lines as malformed requests.
    pub(crate) fn next_line(&mut self) -> Option<String> {
        if !self.has_line() {
            return None;
        }
        let line = &self.buf[self.start..self.scanned];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        // The checked copy first: on valid text it is several times
        // faster than the lossy walk, which only lines with invalid
        // bytes need.
        let line = match std::str::from_utf8(line) {
            Ok(line) => line.to_owned(),
            Err(_) => String::from_utf8_lossy(line).into_owned(),
        };
        self.start = self.scanned + 1;
        self.scanned = self.start;
        Some(line)
    }
}

/// The offset of the first `\n` in `bytes`, found a word at a time: in
/// each eight-byte word XORed with eight newlines, a newline is a zero
/// byte, and `(w - 0x01…01) & !w & 0x80…80` sets the top bit of every
/// zero byte. A borrow can also set it in a byte above a zero byte, never
/// below one, so the lowest set bit is the first newline.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const TOPS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
        let zeros = w.wrapping_sub(ONES) & !w & TOPS;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|p| at + p)
}

/// One connection's bounded, partially flushed response bytes.
#[derive(Debug)]
pub(crate) struct OutBuf {
    data: Vec<u8>,
    /// Bytes already written to the socket (a partial write's cursor).
    pos: usize,
    cap: usize,
    overflowed: bool,
    closed: bool,
}

impl OutBuf {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            data: Vec::new(),
            pos: 0,
            cap,
            overflowed: false,
            closed: false,
        }
    }

    /// Pending (unwritten) bytes.
    pub(crate) fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Marks the connection gone: subsequent pushes fail fast so an
    /// in-flight handler aborts its stream instead of buffering into
    /// the void.
    pub(crate) fn close(&mut self) {
        self.closed = true;
        self.data = Vec::new();
        self.pos = 0;
    }

    /// Appends one frame line (newline added). Exceeding the cap
    /// latches `overflowed` — the reactor disconnects the client — and
    /// the push fails so the producing handler stops emitting.
    pub(crate) fn push(&mut self, line: &str) -> io::Result<()> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection closed",
            ));
        }
        if self.overflowed || self.len() + line.len() + 1 > self.cap {
            self.overflowed = true;
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "per-connection output buffer full (slow reader)",
            ));
        }
        // Compact once the flushed prefix dominates, so a long-lived
        // connection does not grow its buffer by its whole history.
        if self.pos > 0 && self.pos >= self.data.len() / 2 {
            self.data.drain(..self.pos);
            self.pos = 0;
        }
        self.data.extend_from_slice(line.as_bytes());
        self.data.push(b'\n');
        Ok(())
    }

    /// Writes as much as the socket accepts. `Ok(true)` means drained,
    /// `Ok(false)` means the socket would block with bytes remaining
    /// (the caller arms `WRITABLE` interest and resumes later).
    pub(crate) fn write_to(&mut self, writer: &mut dyn Write) -> io::Result<bool> {
        while self.pos < self.data.len() {
            match writer.write(&self.data[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.data.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// What reactor and workers share: the wakeup channel back into the
/// poll loop and the queues it drains.
struct Shared {
    waker: Waker,
    /// Connections whose outbuf gained bytes since the last flush.
    dirty: Mutex<Vec<usize>>,
    /// Completed handler calls awaiting reactor bookkeeping.
    done: Mutex<Vec<DoneMsg>>,
}

impl Shared {
    fn mark_dirty(&self, conn: usize) {
        self.dirty.lock().expect("dirty lock").push(conn);
        let _ = self.waker.wake();
    }

    fn push_done(&self, msg: DoneMsg) {
        self.done.lock().expect("done lock").push(msg);
        let _ = self.waker.wake();
    }
}

/// One line for a worker to execute.
struct Job {
    conn: usize,
    line: String,
    received: Instant,
    out: Arc<Mutex<OutBuf>>,
}

/// One finished handler call.
struct DoneMsg {
    conn: usize,
    result: io::Result<Served>,
}

/// The [`FrameSink`] over one connection's bounded outbuf. Failures
/// (overflow, closed connection) propagate into the handler so streams
/// abort instead of buffering blindly. A worker's sink wakes the
/// reactor to flush (`wake`); the sink for lines answered on the
/// reactor thread itself ([`Runtime::try_handle_warm`]) has none —
/// the event loop flushes every touched connection in the same pass,
/// so a warm request costs no waker round trip.
struct ConnSink<'a> {
    conn: usize,
    out: &'a Mutex<OutBuf>,
    metrics: &'a Registry,
    wake: Option<&'a Shared>,
}

impl FrameSink for ConnSink<'_> {
    fn send(&mut self, frame: &Response) -> io::Result<()> {
        let line = serde_json::to_string(frame).map_err(|e| io::Error::other(e.to_string()))?;
        self.send_raw(&line)
    }

    fn send_raw(&mut self, line: &str) -> io::Result<()> {
        let depth = {
            let mut out = self.out.lock().expect("outbuf lock");
            out.push(line)?;
            out.len()
        };
        self.metrics.note_outbuf_depth(depth as u64);
        if let Some(shared) = self.wake {
            shared.mark_dirty(self.conn);
        }
        Ok(())
    }
}

/// One registered client connection, owned by the reactor thread.
struct Conn {
    stream: TcpStream,
    peer: String,
    /// Bytes read and not popped: the lines one read completed, waiting
    /// behind the one in flight, and at most one partial line.
    inbuf: LineBuf,
    /// When the read that completed the waiting lines returned.
    received: Instant,
    /// The output side, shared with the worker answering a line.
    out: Arc<Mutex<OutBuf>>,
    /// Lines dispatched to workers and not yet reported done: 0 or 1,
    /// since responses must come back in request order.
    pending: usize,
    /// EOF observed, or a line outgrew [`MAX_LINE_BYTES`]: no more reads.
    read_closed: bool,
    /// Close once pending work and the outbuf drain (a served
    /// `Shutdown`'s connection stops reading further requests).
    closing: bool,
    /// The current epoll registration, `None` when deregistered.
    registered: Option<(bool, bool)>,
}

impl Conn {
    fn outbuf_is_empty(&self) -> bool {
        self.out.lock().expect("outbuf lock").is_empty()
    }

    /// The read rule: read only while none of this connection's lines
    /// is in flight or waiting, so the socket is its only queue.
    fn wants_read(&mut self) -> bool {
        !self.read_closed && !self.closing && self.pending == 0 && !self.inbuf.has_line()
    }
}

/// Runs the event-driven accept loop until a `Shutdown` request
/// drains it or its 60 s grace runs out: serve every connection
/// through `runtime`, log one line per served request unless `quiet`.
/// The pool executing request lines holds two threads more than the
/// runtime's admission depth (2 to 32), so control frames
/// (`Ping`/`Status`) and fast rejections keep flowing while every slot
/// runs an evaluation.
pub fn serve_reactor(listener: TcpListener, runtime: Arc<Runtime>, quiet: bool) -> io::Result<()> {
    let poll = Poll::new()?;
    listener.set_nonblocking(true)?;
    let listener_fd = listener.as_raw_fd();
    poll.registry()
        .register(&mut SourceFd(&listener_fd), LISTENER, Interest::READABLE)?;
    let shared = Arc::new(Shared {
        waker: Waker::new(poll.registry(), WAKER)?,
        dirty: Mutex::new(Vec::new()),
        done: Mutex::new(Vec::new()),
    });

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers = runtime.gate().depth().saturating_add(2).clamp(2, 32);
    for n in 0..workers {
        let rx = Arc::clone(&job_rx);
        let runtime = Arc::clone(&runtime);
        let shared = Arc::clone(&shared);
        // Detached, so the grace bounds the shutdown: closing the job
        // channel ends an idle worker, and one inside a call outlives the
        // loop (a coordinator dispatch can wait minutes on a silent host).
        std::thread::Builder::new()
            .name(format!("reactor-worker-{n}"))
            .spawn(move || worker_loop(rx, runtime, shared))?;
    }

    let mut reactor = Reactor {
        poll,
        listener: Some(listener),
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        shared,
        runtime,
        job_tx: Some(job_tx),
        quiet,
        shutdown: None,
        fd_reserve: std::fs::File::open("/dev/null").ok(),
    };
    reactor.run()
}

fn worker_loop(rx: Arc<Mutex<mpsc::Receiver<Job>>>, runtime: Arc<Runtime>, shared: Arc<Shared>) {
    loop {
        // Holding the lock across `recv` just parks the other workers
        // on the mutex instead of the channel; handoff order is
        // unchanged and the lock is released with each job.
        let job = match rx.lock().expect("job queue lock").recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let mut sink = ConnSink {
            conn: job.conn,
            out: &job.out,
            metrics: runtime.metrics(),
            wake: Some(&shared),
        };
        let result = runtime.handle_line_at(&job.line, job.received, &mut sink);
        shared.push_done(DoneMsg {
            conn: job.conn,
            result,
        });
    }
}

struct Reactor {
    poll: Poll,
    listener: Option<TcpListener>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    shared: Arc<Shared>,
    runtime: Arc<Runtime>,
    job_tx: Option<mpsc::Sender<Job>>,
    quiet: bool,
    /// When a `Shutdown` was served — the drain deadline's anchor.
    shutdown: Option<Instant>,
    /// One spare descriptor held open so that hitting the process fd
    /// limit (EMFILE/ENFILE) can still be handled: drop the reserve,
    /// accept the pending connection, close it immediately (shedding
    /// the client with a RST instead of leaving it in the backlog
    /// forever), then re-arm the reserve.
    fd_reserve: Option<std::fs::File>,
}

impl Reactor {
    fn run(&mut self) -> io::Result<()> {
        let mut events = Events::with_capacity(1024);
        loop {
            let timeout = self.shutdown.map(|_| Duration::from_millis(25));
            self.poll.poll(&mut events, timeout)?;
            // Time the work of this pass, not the idle poll wait: the
            // loop-iteration histogram answers "how long can one pass
            // starve the event loop", and sleeping isn't starving.
            let pass_started = Instant::now();
            let mut touched: Vec<usize> = Vec::new();
            for event in &events {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => {} // queues are drained below on every pass
                    Token(id) => {
                        if event.is_readable() {
                            self.read_ready(id);
                        }
                        touched.push(id);
                    }
                }
            }
            // Handler completions: bookkeeping, logging, shutdown —
            // then the connection's next waiting line, if any.
            let done = std::mem::take(&mut *self.shared.done.lock().expect("done lock"));
            for msg in done {
                touched.push(msg.conn);
                let Some(conn) = self.conns.get_mut(&msg.conn) else {
                    continue; // connection already closed (slow reader, error)
                };
                conn.pending -= 1;
                match msg.result {
                    Ok(served) => {
                        if !self.quiet {
                            println!("[{}] {}", conn.peer, served.label());
                            let _ = io::stdout().flush();
                        }
                        if served == Served::Shutdown {
                            conn.closing = true;
                            self.begin_shutdown();
                            touched = self.conns.keys().copied().collect();
                        }
                    }
                    Err(e) => {
                        eprintln!("warning: connection error: {e}");
                        self.close_conn(msg.conn);
                    }
                }
                self.advance(msg.conn);
            }
            // Fresh response bytes: flush opportunistically.
            touched.extend(std::mem::take(
                &mut *self.shared.dirty.lock().expect("dirty lock"),
            ));
            for id in touched {
                self.refresh(id);
            }
            self.runtime
                .metrics()
                .observe(Hist::LoopIter, pass_started.elapsed(), None);
            if let Some(since) = self.shutdown {
                let drained = self
                    .conns
                    .values_mut()
                    .all(|c| c.pending == 0 && !c.inbuf.has_line() && c.outbuf_is_empty());
                if drained || since.elapsed() >= SHUTDOWN_GRACE {
                    break;
                }
            }
        }
        for id in self.conns.keys().copied().collect::<Vec<_>>() {
            self.close_conn(id);
        }
        self.job_tx = None;
        Ok(())
    }

    /// Accepts every pending connection (the listener is level-
    /// triggered, but draining the backlog per event is cheaper than
    /// one wakeup per connection under fan-in).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    if let Err(e) = self.add_conn(stream, peer.to_string()) {
                        eprintln!("warning: failed to register connection: {e}");
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE (24) / ENFILE (23): the fd table is full, and a
                // level-triggered listener would spin on the same event
                // forever without an fd to accept into. Spend the
                // reserve to accept-and-close the pending connection —
                // the client sees an immediate close and can back off —
                // then re-arm and let epoll re-fire for any backlog.
                Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                    self.runtime.metrics().add(Counter::FdSheds, 1);
                    self.fd_reserve.take();
                    if let Some(listener) = self.listener.as_ref() {
                        match listener.accept() {
                            Ok((stream, peer)) => {
                                eprintln!(
                                    "warning: fd limit reached ({e}); shedding connection \
                                     from {peer}"
                                );
                                drop(stream);
                            }
                            Err(_) => eprintln!("warning: fd limit reached ({e})"),
                        }
                    }
                    self.fd_reserve = std::fs::File::open("/dev/null").ok();
                    return;
                }
                Err(e) => {
                    eprintln!("warning: failed accept: {e}");
                    return;
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream, peer: String) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        // One flushed frame per line: with Nagle on, each small write
        // can stall a delayed-ACK interval (~40 ms).
        stream.set_nodelay(true)?;
        let id = self.next_token;
        self.next_token += 1;
        let fd = stream.as_raw_fd();
        self.poll
            .registry()
            .register(&mut SourceFd(&fd), Token(id), Interest::READABLE)?;
        self.conns.insert(
            id,
            Conn {
                stream,
                peer,
                inbuf: LineBuf::default(),
                received: Instant::now(),
                out: Arc::new(Mutex::new(OutBuf::new(OUTBUF_CAP))),
                pending: 0,
                read_closed: false,
                closing: false,
                registered: Some((true, false)),
            },
        );
        Ok(())
    }

    /// Reads the socket up to the first complete line, EAGAIN or EOF,
    /// then serves the lines read. A line past [`MAX_LINE_BYTES`] gets
    /// its `Error` frame at once: nothing else of the connection is in
    /// flight or waiting.
    fn read_ready(&mut self, id: usize) {
        let read_started = Instant::now();
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        // Hangups report readable whatever the registration asked for.
        if self.shutdown.is_some() || !conn.wants_read() {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.feed(&chunk[..n]);
                    if conn.inbuf.has_line() {
                        conn.received = Instant::now();
                        break;
                    }
                    if conn.inbuf.pending() > MAX_LINE_BYTES {
                        conn.inbuf = LineBuf::default();
                        conn.read_closed = true;
                        eprintln!(
                            "warning: [{}] request line over {MAX_LINE_BYTES} bytes — disconnecting",
                            conn.peer
                        );
                        let frame = Response::Error(SweepError::schema(
                            "request line",
                            format!("no newline within {MAX_LINE_BYTES} bytes"),
                        ));
                        let line = serde_json::to_string(&frame).expect("frame serializes");
                        // A full or closed outbuf refuses the frame, and
                        // `refresh` disconnects the connection either way.
                        let _ = conn.out.lock().expect("outbuf lock").push(&line);
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("warning: connection error: {e}");
                    self.close_conn(id);
                    return;
                }
            }
        }
        self.runtime
            .metrics()
            .observe(Hist::ReadParse, read_started.elapsed(), None);
        self.advance(id);
    }

    /// Serves the connection's waiting lines in request order: warm
    /// lines ([`Runtime::try_handle_warm`]) are answered right on
    /// this thread — no worker handoff, no waker round trip; the
    /// response bytes flush in this same event-loop pass — and the
    /// first line needing compute is dispatched to the worker pool.
    /// At most one line per connection is ever in flight, so responses
    /// come back in request order even under pipelining (a warm line
    /// never jumps ahead of a waiting cold one, and two cold streams
    /// can't interleave their frames). Called again on each job
    /// completion to keep the lines moving.
    fn advance(&mut self, id: usize) {
        let runtime = Arc::clone(&self.runtime);
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.pending > 0 {
                return;
            }
            let Some(line) = conn.inbuf.next_line() else {
                return;
            };
            if line.trim().is_empty() {
                continue;
            }
            let received = conn.received;
            let out = Arc::clone(&conn.out);
            let peer = conn.peer.clone();
            let mut sink = ConnSink {
                conn: id,
                out: &out,
                metrics: runtime.metrics(),
                wake: None,
            };
            match runtime.try_handle_warm(&line, received, &mut sink) {
                Some(Ok(served)) => {
                    if !self.quiet {
                        println!("[{peer}] {}", served.label());
                        let _ = io::stdout().flush();
                    }
                }
                Some(Err(e)) => {
                    eprintln!("warning: connection error: {e}");
                    self.close_conn(id);
                    return;
                }
                None => {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.pending += 1;
                    }
                    let tx = self.job_tx.as_ref().expect("job queue open");
                    tx.send(Job {
                        conn: id,
                        line,
                        received,
                        out,
                    })
                    .expect("worker pool alive");
                    return;
                }
            }
        }
    }

    /// Flushes, closes finished connections, and reconciles the epoll
    /// registration with what the connection still needs.
    fn refresh(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        {
            let mut out = conn.out.lock().expect("outbuf lock");
            if out.overflowed() {
                drop(out);
                self.runtime
                    .metrics()
                    .add(Counter::SlowReaderDisconnects, 1);
                eprintln!(
                    "warning: [{}] output buffer full (slow reader) — disconnecting",
                    conn.peer
                );
                self.close_conn(id);
                return;
            }
            match out.write_to(&mut conn.stream) {
                Ok(_) => {}
                Err(e) => {
                    drop(out);
                    eprintln!("warning: connection error: {e}");
                    self.close_conn(id);
                    return;
                }
            }
        }
        let conn = self.conns.get_mut(&id).expect("conn still present");
        let done = (conn.read_closed || conn.closing)
            && conn.pending == 0
            && !conn.inbuf.has_line()
            && conn.outbuf_is_empty();
        if done {
            self.close_conn(id);
            return;
        }
        let want_read = self.shutdown.is_none() && conn.wants_read();
        let want_write = !conn.outbuf_is_empty();
        let desired = (want_read, want_write);
        if conn.registered == Some(desired) {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let interest = match desired {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            // No interest at all (e.g. EOF seen, waiting on workers):
            // deregister so level-triggered hangup events do not spin
            // the loop; completions arrive via the waker.
            (false, false) => None,
        };
        let registry = self.poll.registry();
        let result = match (conn.registered.is_some(), interest) {
            (true, Some(i)) => registry.reregister(&mut SourceFd(&fd), Token(id), i),
            (false, Some(i)) => registry.register(&mut SourceFd(&fd), Token(id), i),
            (true, None) => registry.deregister(&mut SourceFd(&fd)),
            (false, None) => Ok(()),
        };
        match result {
            Ok(()) => {
                conn.registered = interest.map(|_| desired);
            }
            Err(e) => {
                eprintln!("warning: epoll registration failed: {e}");
                self.close_conn(id);
            }
        }
    }

    fn close_conn(&mut self, id: usize) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        conn.out.lock().expect("outbuf lock").close();
        if conn.registered.is_some() {
            let fd = conn.stream.as_raw_fd();
            let _ = self.poll.registry().deregister(&mut SourceFd(&fd));
        }
    }

    /// Stops accepting and stops reading; the main loop then drains
    /// pending work and outbufs before exiting.
    fn begin_shutdown(&mut self) {
        if self.shutdown.is_some() {
            return;
        }
        self.shutdown = Some(Instant::now());
        if let Some(listener) = self.listener.take() {
            let fd = listener.as_raw_fd();
            let _ = self.poll.registry().deregister(&mut SourceFd(&fd));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{find_newline, LineBuf, OutBuf};
    use std::io::{self, Write};
    use std::time::{Duration, Instant};

    #[test]
    fn linebuf_reassembles_lines_split_anywhere() {
        let mut buf = LineBuf::default();
        assert_eq!(buf.next_line(), None);
        buf.feed(b"{\"a\"");
        assert_eq!(buf.next_line(), None, "partial line is held back");
        buf.feed(b":1}\n{\"b\":2}\r\n{\"c\"");
        assert_eq!(buf.next_line().as_deref(), Some("{\"a\":1}"));
        assert_eq!(
            buf.next_line().as_deref(),
            Some("{\"b\":2}"),
            "CRLF framing is tolerated"
        );
        assert_eq!(buf.next_line(), None);
        buf.feed(b":3}");
        assert_eq!(buf.next_line(), None, "still no newline");
        buf.feed(b"\n");
        assert_eq!(buf.next_line().as_deref(), Some("{\"c\":3}"));
        assert_eq!(buf.next_line(), None);
    }

    #[test]
    fn linebuf_pending_counts_the_unterminated_tail() {
        let mut buf = LineBuf::default();
        buf.feed(b"{\"a\":1}\n{\"b\"");
        assert_eq!(buf.next_line().as_deref(), Some("{\"a\":1}"));
        assert_eq!(buf.next_line(), None);
        assert_eq!(buf.pending(), 4);
        buf.feed(b":2}\n");
        assert_eq!(buf.next_line().as_deref(), Some("{\"b\":2}"));
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn linebuf_yields_every_line_of_a_pipelined_burst() {
        let mut buf = LineBuf::default();
        buf.feed(b"one\ntwo\nthree\n\nfour\n");
        let lines: Vec<String> = std::iter::from_fn(|| buf.next_line()).collect();
        assert_eq!(lines, ["one", "two", "three", "", "four"]);
    }

    #[test]
    fn linebuf_splits_a_large_burst_in_linear_time() {
        // 200k request-sized lines (~8 MiB) in one read. Draining each
        // line from the front shifts the rest of the buffer every time:
        // ~33 s for this burst in a debug build on a 2-vCPU box, against
        // ~0.1 s with the cursor. The bound sits far from both.
        const LINES: usize = 200_000;
        let line = |i: usize| format!("{{\"Eval\":{{\"version\":1,\"id\":\"burst-{i:06}\"}}}}");
        let mut burst = Vec::new();
        for i in 0..LINES {
            burst.extend_from_slice(line(i).as_bytes());
            burst.push(b'\n');
        }
        let mut buf = LineBuf::default();
        let started = Instant::now();
        buf.feed(&burst);
        let popped: Vec<String> = std::iter::from_fn(|| buf.next_line()).collect();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "splitting {LINES} lines took {elapsed:?}"
        );
        assert_eq!(popped.len(), LINES);
        assert!(popped.iter().enumerate().all(|(i, got)| *got == line(i)));
        buf.feed(b"tail\n");
        assert_eq!(buf.next_line().as_deref(), Some("tail"), "compacts on feed");
    }

    #[test]
    fn linebuf_word_search_finds_the_first_newline_at_every_offset() {
        // Fillers around the newline: ASCII, its neighbours 0x09 and
        // 0x0b, and bytes >= 0x80, whose top bit a has-zero borrow could
        // be mistaken for. `\r` before the newline makes a CRLF line.
        let fillers = [b'a', 0x09, 0x0b, b'\r', 0x80, 0x8a, 0xff];
        for len in 0..=64usize {
            for &fill in &fillers {
                let mut bytes = vec![fill; len];
                assert_eq!(find_newline(&bytes), None, "len {len} fill {fill:#x}");
                for at in 0..len {
                    bytes.fill(fill);
                    bytes[at] = b'\n';
                    // A second newline after the first must not win.
                    if at + 3 < len {
                        bytes[at + 3] = b'\n';
                    }
                    // High bytes right before and after the newline.
                    if at > 0 {
                        bytes[at - 1] = 0xff - (at % 2) as u8 * 0x75;
                    }
                    if at + 1 < len {
                        bytes[at + 1] = 0x80;
                    }
                    let want = bytes.iter().position(|&b| b == b'\n');
                    assert_eq!(
                        find_newline(&bytes),
                        want,
                        "len {len} fill {fill:#x} at {at}"
                    );
                }
            }
        }
        // Through `next_line`: a CRLF line of every length up to 64, its
        // newline at every offset of the read, next to bytes >= 0x80.
        for len in 0..=64usize {
            let mut buf = LineBuf::default();
            let mut line = vec![b'x'; len];
            if len > 0 {
                line[len - 1] = 0xc3;
                line.push(0xa9);
            }
            let text = String::from_utf8_lossy(&line).into_owned();
            line.extend_from_slice(b"\r\n\xff");
            buf.feed(&line);
            assert_eq!(buf.next_line().as_deref(), Some(text.as_str()), "len {len}");
            assert_eq!(buf.next_line(), None);
            assert_eq!(buf.pending(), 1);
        }
    }

    #[test]
    fn linebuf_replaces_invalid_utf8() {
        let mut buf = LineBuf::default();
        buf.feed(b"ok\xc3\xa9\n\xffbad\xc3\n");
        assert_eq!(buf.next_line().as_deref(), Some("ok\u{e9}"));
        assert_eq!(buf.next_line().as_deref(), Some("\u{fffd}bad\u{fffd}"));
        assert_eq!(buf.next_line(), None);
    }

    /// A writer accepting a fixed number of bytes per call, then
    /// `WouldBlock` — a socket with a tiny send buffer.
    struct Trickle {
        accepted: Vec<u8>,
        per_call: usize,
        calls_left: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_left == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.calls_left -= 1;
            let n = buf.len().min(self.per_call);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn outbuf_resumes_partial_writes_across_eagain() {
        let mut out = OutBuf::new(1024);
        out.push("{\"frame\":1}").unwrap();
        out.push("{\"frame\":2}").unwrap();
        let total = out.len();

        let mut sink = Trickle {
            accepted: Vec::new(),
            per_call: 5,
            calls_left: 2,
        };
        assert!(!out.write_to(&mut sink).unwrap(), "EAGAIN mid-buffer");
        assert_eq!(sink.accepted.len(), 10);
        assert_eq!(out.len(), total - 10, "cursor holds the remainder");

        // More frames arrive while blocked; the flush later resumes
        // exactly where it stopped, no bytes duplicated or dropped.
        out.push("{\"frame\":3}").unwrap();
        sink.calls_left = usize::MAX;
        sink.per_call = 7;
        assert!(out.write_to(&mut sink).unwrap(), "drains once writable");
        assert_eq!(
            String::from_utf8(sink.accepted).unwrap(),
            "{\"frame\":1}\n{\"frame\":2}\n{\"frame\":3}\n"
        );
        assert!(out.is_empty());
    }

    #[test]
    fn outbuf_overflow_latches_and_rejects_further_pushes() {
        let mut out = OutBuf::new(16);
        out.push("0123456789").unwrap();
        let err = out.push("0123456789").expect_err("cap exceeded");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(out.overflowed());
        let err = out.push("x").expect_err("stays rejected after overflow");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn outbuf_close_fails_pushes_with_broken_pipe() {
        let mut out = OutBuf::new(64);
        out.push("alive").unwrap();
        out.close();
        assert!(out.is_empty(), "closing discards pending bytes");
        let err = out.push("dead").expect_err("closed outbuf rejects");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn outbuf_compacts_the_flushed_prefix() {
        let mut out = OutBuf::new(64);
        out.push("aaaaaaaaaa").unwrap();
        let mut sink = Trickle {
            accepted: Vec::new(),
            per_call: 8,
            calls_left: 1,
        };
        assert!(!out.write_to(&mut sink).unwrap());
        // The next push compacts: capacity accounting is on *pending*
        // bytes, so the flushed prefix must not count against the cap.
        out.push(&"b".repeat(50)).unwrap();
        assert_eq!(out.len(), 3 + 51);
    }
}
