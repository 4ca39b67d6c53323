//! The evented TCP server: one reactor thread multiplexing every
//! connection over [`poll(2)`](crate::poll), a small worker pool
//! executing requests against an MVCC [`EpochEngine`], and per-connection
//! read/write buffers with request pipelining.
//!
//! # Architecture
//!
//! - The **reactor** (one thread) owns the listener, a self-pipe, and
//!   every connection — all nonblocking. It accepts, frames request
//!   lines out of per-connection read buffers, queues complete requests,
//!   dispatches at most one request per connection at a time to the
//!   workers, and flushes response bytes back out. Connection count is
//!   bounded by [`ServerConfig::max_connections`] (a real limit on open
//!   sockets, not a thread count); beyond it a connection gets one
//!   best-effort nonblocking `ERR busy` line and is closed — a stalled
//!   client can never wedge admission.
//! - **Workers** ([`ServerConfig::workers`] plain threads) execute one
//!   framed request at a time: reads (`QUERY`, `BATCH`, `WARM`, `STATS`,
//!   `SAVE`, `ADVISE`) resolve against the current published engine
//!   epoch ([`EpochEngine::read`]) and never block on a writer; writers
//!   (`LOAD`, `VIEW`, `UPDATE`, `INVALIDATE`, `BUDGET`, `ADVISE AUTO`,
//!   `RESTORE`) prepare a new engine off to the side and publish it with
//!   one atomic swap.
//!   Completed responses travel back to the reactor over a completion
//!   queue plus a self-pipe wake.
//! - **Pipelining**: clients may write many requests without waiting.
//!   The reactor frames them all, executes them strictly in order per
//!   connection (one in flight at a time — responses can never
//!   interleave), and stops reading a connection whose queue or write
//!   buffer is full, so back-pressure is per-connection and bounded.
//! - **Panic containment**: a request that panics is caught in the
//!   worker and answered with an `ERR engine` line. Mutating requests
//!   run on a private engine clone, so a mid-`UPDATE` panic discards the
//!   clone and the published epoch is untouched; the engine's internal
//!   locks recover from poisoning, so the historical death spiral (one
//!   panic turning every later request into a panic) cannot recur.
//! - **Graceful shutdown** ([`ServerHandle::shutdown`] or the `SHUTDOWN`
//!   verb): the reactor stops accepting, lets in-flight requests finish,
//!   sends idle sessions an `ERR shutdown` line, flushes, and joins the
//!   workers. Every thread is joined before `shutdown`/`wait` returns.

use crate::poll::{poll_fds, PollFd, POLLIN, POLLNVAL, POLLOUT};
use crate::protocol::{
    batch_header, parse_batch_line, parse_request, write_advice, write_answer, write_profile,
    ProtocolError, Request, MAX_BATCH,
};
use crate::stats::{self, Sample, ServerMetrics, ServerStats, ServerStatsSnapshot};
use pxv_engine::{DocId, Engine, EngineError, EpochEngine};
use pxv_obs::slow::SlowLog;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server binds and sizes itself.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests, benches).
    pub addr: String,
    /// Request-execution threads. Connections are **not** bound to
    /// workers — thousands of connections multiplex over a few threads.
    pub workers: usize,
    /// Cap on concurrently open connections; beyond it new connections
    /// get `ERR busy` and are closed.
    pub max_connections: usize,
    /// Requests slower than this (dispatch to response written, µs) are
    /// recorded in the bounded slow-query log (`STATS SLOW`).
    pub slow_threshold_us: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 8,
            max_connections: 1024,
            slow_threshold_us: 10_000,
        }
    }
}

/// Longest request line the server will buffer (documents travel on one
/// line, so this is generous — ~16 MiB). Beyond it the connection is
/// dropped: without the cap, a client streaming bytes with no `\n`
/// would grow the line buffer until the process is OOM-killed.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Most requests a connection may have framed-but-unanswered before the
/// reactor stops reading it (kernel-buffer back-pressure takes over).
const QUEUE_CAP: usize = 64;

/// Stop dispatching a connection's queued requests while this many
/// response bytes are still unflushed to it — a client that pipelines
/// but never reads cannot grow the write buffer without bound.
const WBUF_SOFT_CAP: usize = 8 << 20;

/// Reactor poll tick: the upper bound on shutdown-flag observation
/// latency if every wake byte were lost (they are not; this is a belt).
const POLL_TICK_MS: i32 = 100;

/// How long shutdown waits for in-flight requests and unflushed
/// responses before force-closing what remains.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// State shared by the reactor, the workers, and the handle.
struct Shared {
    engine: EpochEngine,
    stats: ServerStats,
    /// Live metric handles + the registry `METRICS` renders from.
    metrics: ServerMetrics,
    /// Bounded slow-query ring (`STATS SLOW`).
    slow: SlowLog,
    shutdown: AtomicBool,
    /// Open connections (reactor-maintained gauge; `STATS active=`).
    active: AtomicUsize,
}

/// One framed request on its way to a worker. `unit` is the request
/// line, plus the body lines for `BATCH`.
struct Job {
    conn: usize,
    gen: u64,
    unit: Vec<String>,
    enqueued: Instant,
}

/// One finished response on its way back to the reactor.
struct Done {
    conn: usize,
    gen: u64,
    bytes: Vec<u8>,
    quit: bool,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running server: its address, stats, and the threads behind it.
/// Dropping the handle without calling [`ServerHandle::shutdown`] leaves
/// the server running detached for the rest of the process.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Write end of the reactor's self-pipe (shutdown wake-up).
    wake: UnixStream,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Number of currently open connections (the admission gauge).
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Runs a closure against the current engine epoch — lets the
    /// process hosting the server inspect state without a socket. The
    /// closure sees a consistent snapshot; a concurrently publishing
    /// writer does not disturb it.
    pub fn with_engine<R>(&self, f: impl FnOnce(&Engine) -> R) -> R {
        f(&self.shared.engine.read())
    }

    /// Signals shutdown, wakes the reactor, and joins every thread.
    /// In-flight requests finish first; idle sessions are drained with
    /// an `ERR shutdown` line.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.wake).write(&[1]);
        self.join_all();
    }

    /// Blocks until the server exits (i.e. until another thread calls
    /// shutdown, a client sends the `SHUTDOWN` admin request, or the
    /// process dies) — what `prxview serve` runs on.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Like [`ServerHandle::wait`], but keeps the handle alive so the
    /// caller can still reach the engine afterwards —
    /// `prxview serve --store` joins here and then snapshots the final
    /// engine state through [`ServerHandle::with_engine`].
    pub fn join(&mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `config.addr` and starts the reactor and worker pool around
/// `engine` (published as epoch 0 of an [`EpochEngine`]). Returns once
/// the listener is live.
pub fn serve(engine: Engine, config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(
        config
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "unresolvable address"))?,
    )?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // Self-pipe: workers (and the handle) write one byte to pull the
    // reactor out of `poll` the moment a completion (or shutdown) is
    // ready. Both ends nonblocking: a full pipe means a wake is already
    // pending, so dropping the byte is fine.
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let stats = ServerStats::default();
    let metrics = ServerMetrics::new(stats.latency.clone());
    let shared = Arc::new(Shared {
        engine: EpochEngine::new(engine),
        stats,
        metrics,
        slow: SlowLog::new(config.slow_threshold_us),
        shutdown: AtomicBool::new(false),
        active: AtomicUsize::new(0),
    });
    let completions: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    let (job_tx, job_rx): (Sender<Job>, Receiver<Job>) = channel();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            let completions = Arc::clone(&completions);
            let wake = wake_tx.try_clone()?;
            Ok(std::thread::spawn(move || {
                worker_loop(&shared, &job_rx, &completions, &wake)
            }))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let reactor = {
        let shared = Arc::clone(&shared);
        let completions = Arc::clone(&completions);
        let max_connections = config.max_connections.max(1);
        std::thread::spawn(move || {
            Reactor {
                listener,
                wake_rx,
                shared: &shared,
                jobs: job_tx,
                completions: &completions,
                max_connections,
                conns: Vec::new(),
                free: Vec::new(),
                live: 0,
                next_gen: 0,
            }
            .run()
        })
    };
    Ok(ServerHandle {
        addr,
        shared,
        wake: wake_tx,
        reactor: Some(reactor),
        workers,
    })
}

/// A partially-collected `BATCH`: the header line plus body lines as
/// they arrive; dispatched as one unit when `total` lines are framed.
struct Batch {
    lines: Vec<String>,
    total: usize,
}

/// Reactor-side per-connection state.
struct Conn {
    stream: TcpStream,
    /// Guards completions against slot reuse: a `Done` whose `gen`
    /// mismatches is for a connection that already closed.
    gen: u64,
    /// Bytes read but not yet framed into lines (at most one partial
    /// line once framing has run).
    rbuf: Vec<u8>,
    /// Response bytes not yet written, from `wpos` on.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Framed requests awaiting dispatch, in arrival order.
    units: VecDeque<Vec<String>>,
    batch: Option<Batch>,
    in_flight: bool,
    /// Peer closed its write half; finish pipelined work, flush, close.
    eof: bool,
    /// Close as soon as the write buffer drains (QUIT, shutdown, or a
    /// fatal framing error already reported).
    closing: bool,
}

impl Conn {
    fn wants_read(&self) -> bool {
        !self.eof && !self.closing && (self.units.len() < QUEUE_CAP || self.batch.is_some())
    }

    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Nothing left to do for this connection?
    fn drained(&self) -> bool {
        !self.in_flight && self.units.is_empty() && !self.wants_write()
    }
}

/// What a pollfd slot refers to.
enum Key {
    Wake,
    Listener,
    Conn(usize),
}

struct Reactor<'a> {
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: &'a Shared,
    jobs: Sender<Job>,
    completions: &'a Mutex<Vec<Done>>,
    max_connections: usize,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
}

impl Reactor<'_> {
    fn run(mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut keys: Vec<Key> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        let mut last_iter: Option<Instant> = None;
        let mut last_epoch = self.shared.engine.epoch();
        loop {
            // Reactor observability: iteration latency (poll wait
            // included — an idle reactor shows the poll tick), queue and
            // pipelining depth across connections, and how stale a
            // freshly published epoch looked to the reactor — the gap
            // between the observation that saw the old epoch and the one
            // that saw the new.
            let now = Instant::now();
            if let Some(prev) = last_iter {
                let metrics = &self.shared.metrics;
                metrics.poll_loop_us.record_duration(now - prev);
                let epoch = self.shared.engine.epoch();
                if epoch != last_epoch {
                    metrics.epoch_lag_us.set((now - prev).as_micros() as u64);
                    last_epoch = epoch;
                }
                metrics.epoch.set(epoch);
            }
            last_iter = Some(now);
            let (mut queued, mut deepest) = (0u64, 0u64);
            for c in self.conns.iter().flatten() {
                let depth = c.units.len() as u64 + u64::from(c.in_flight);
                queued += depth;
                deepest = deepest.max(depth);
            }
            self.shared.metrics.queue_depth.set(queued);
            self.shared.metrics.pipeline_depth.set(deepest);

            self.deliver_completions();
            let shutting = self.shared.shutdown.load(Ordering::SeqCst);
            if shutting {
                drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                self.begin_drain();
            }
            // Sweep: flush what can be flushed, close what is done.
            for id in 0..self.conns.len() {
                self.settle(id);
            }
            self.shared.active.store(self.live, Ordering::SeqCst);
            if shutting && (self.live == 0 || drain_deadline.is_some_and(|d| Instant::now() >= d)) {
                break;
            }

            fds.clear();
            keys.clear();
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            keys.push(Key::Wake);
            if !shutting {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                keys.push(Key::Listener);
            }
            for (id, slot) in self.conns.iter().enumerate() {
                let Some(c) = slot else { continue };
                let mut events = 0i16;
                if c.wants_read() {
                    events |= POLLIN;
                }
                if c.wants_write() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                    keys.push(Key::Conn(id));
                }
            }
            if poll_fds(&mut fds, POLL_TICK_MS).is_err() {
                // EINVAL et al. cannot be polled through; re-check the
                // shutdown flag rather than spinning on the error.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            for (fd, key) in fds.iter().zip(&keys) {
                match key {
                    Key::Wake if fd.ready(POLLIN) => self.drain_wake(),
                    Key::Listener if fd.ready(POLLIN) => self.accept_ready(),
                    Key::Conn(id) => {
                        let id = *id;
                        if fd.revents & POLLNVAL != 0 {
                            self.close(id);
                            continue;
                        }
                        if fd.ready(POLLOUT) || fd.ready(POLLIN) {
                            self.service(id, fd.ready(POLLIN));
                        }
                    }
                    _ => {}
                }
            }
        }
        // Dropping `self.jobs` disconnects the workers' receiver; they
        // finish in-flight jobs and exit, and `join_all` collects them.
    }

    /// Pulls finished responses into their connections' write buffers
    /// and dispatches the next queued request of each.
    fn deliver_completions(&mut self) {
        let done = std::mem::take(&mut *lock(self.completions));
        for d in done {
            let Some(c) = self.conns.get_mut(d.conn).and_then(Option::as_mut) else {
                continue; // connection closed while the request ran
            };
            if c.gen != d.gen {
                continue; // slot was reused
            }
            c.in_flight = false;
            c.wbuf.extend_from_slice(&d.bytes);
            if d.quit {
                c.closing = true;
                c.units.clear();
                c.batch = None;
            }
            self.settle(d.conn);
        }
    }

    /// Shutdown drain: idle sessions get the `ERR shutdown` line and
    /// close; sessions with an in-flight request keep it (the response
    /// still flushes) but their queued pipeline is dropped.
    fn begin_drain(&mut self) {
        for slot in &mut self.conns {
            let Some(c) = slot else { continue };
            if c.closing {
                continue;
            }
            c.units.clear();
            c.batch = None;
            let line = ProtocolError::Shutdown.to_line();
            c.wbuf.extend_from_slice(line.as_bytes());
            c.wbuf.push(b'\n');
            c.closing = true;
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Accepts until the backlog is empty. Over the connection limit (or
    /// during shutdown) the socket is made nonblocking *before* the
    /// single best-effort reply, so a stalled client cannot wedge
    /// admission for everyone — the historical accept-thread bug.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // transient (EMFILE etc.); retry next tick
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                let _ = (&stream).write_all(ProtocolError::Shutdown.to_line().as_bytes());
                let _ = (&stream).write_all(b"\n");
                continue;
            }
            if self.live >= self.max_connections {
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = (&stream).write_all(ProtocolError::Busy.to_line().as_bytes());
                let _ = (&stream).write_all(b"\n");
                continue;
            }
            stream.set_nodelay(true).ok();
            self.shared
                .stats
                .connections
                .fetch_add(1, Ordering::Relaxed);
            self.next_gen += 1;
            let conn = Conn {
                stream,
                gen: self.next_gen,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                units: VecDeque::new(),
                batch: None,
                in_flight: false,
                eof: false,
                closing: false,
            };
            let id = match self.free.pop() {
                Some(id) => {
                    self.conns[id] = Some(conn);
                    id
                }
                None => {
                    self.conns.push(Some(conn));
                    self.conns.len() - 1
                }
            };
            self.live += 1;
            self.shared.active.store(self.live, Ordering::SeqCst);
            let _ = id;
        }
    }

    /// Handles readiness on a connection: drain the socket, frame lines
    /// into request units, then flush/dispatch/close as appropriate.
    fn service(&mut self, id: usize, readable: bool) {
        if readable {
            let Some(c) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                return;
            };
            if read_available(c).is_err() || frame_lines(c, &self.shared.stats).is_err() {
                self.close(id);
                return;
            }
        }
        self.settle(id);
    }

    /// Flush pending bytes, dispatch the next unit, close if finished.
    fn settle(&mut self, id: usize) {
        let Some(c) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        if flush(c).is_err() {
            self.close(id);
            return;
        }
        if !c.in_flight
            && !c.closing
            && c.wbuf.len() - c.wpos <= WBUF_SOFT_CAP
            && !self.shared.shutdown.load(Ordering::SeqCst)
        {
            if let Some(unit) = c.units.pop_front() {
                c.in_flight = true;
                let _ = self.jobs.send(Job {
                    conn: id,
                    gen: c.gen,
                    unit,
                    enqueued: Instant::now(),
                });
            }
        }
        let Some(c) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        let finished = (c.closing || c.eof) && c.drained();
        if finished {
            self.close(id);
        }
    }

    fn close(&mut self, id: usize) {
        if let Some(slot) = self.conns.get_mut(id) {
            if slot.take().is_some() {
                self.free.push(id);
                self.live -= 1;
                self.shared.active.store(self.live, Ordering::SeqCst);
            }
        }
    }
}

/// Reads whatever the socket has (nonblocking). EOF sets `conn.eof`;
/// hard errors are fatal for the connection.
fn read_available(c: &mut Conn) -> Result<(), ()> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match (&c.stream).read(&mut buf) {
            Ok(0) => {
                c.eof = true;
                return Ok(());
            }
            Ok(n) => c.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}

/// Frames complete `\n`-terminated lines out of the read buffer into
/// request units (collecting `BATCH` bodies). Non-UTF-8 lines and
/// oversized unterminated lines are fatal, as in the threaded server.
fn frame_lines(c: &mut Conn, stats: &ServerStats) -> Result<(), ()> {
    let mut consumed = 0usize;
    while let Some(rel) = c.rbuf[consumed..].iter().position(|&b| b == b'\n') {
        let end = consumed + rel;
        let Ok(line) = std::str::from_utf8(&c.rbuf[consumed..end]) else {
            return Err(());
        };
        let line = line.to_string();
        consumed = end + 1;
        if let Some(batch) = &mut c.batch {
            batch.lines.push(line);
            if batch.lines.len() == batch.total {
                let batch = c.batch.take().expect("just matched");
                push_unit(c, batch.lines, stats);
            }
            continue;
        }
        if line.trim().is_empty() {
            continue; // blank keep-alive lines are not an error
        }
        match batch_header(&line) {
            Some(count) => {
                c.batch = Some(Batch {
                    lines: vec![line],
                    total: count + 1,
                })
            }
            None => push_unit(c, vec![line], stats),
        }
    }
    c.rbuf.drain(..consumed);
    if c.rbuf.len() > MAX_LINE_BYTES {
        return Err(());
    }
    Ok(())
}

fn push_unit(c: &mut Conn, unit: Vec<String>, stats: &ServerStats) {
    if c.in_flight || !c.units.is_empty() {
        stats.pipelined.fetch_add(1, Ordering::Relaxed);
    }
    c.units.push_back(unit);
}

/// Writes as much of the pending response as the socket accepts.
fn flush(c: &mut Conn) -> Result<(), ()> {
    while c.wpos < c.wbuf.len() {
        match (&c.stream).write(&c.wbuf[c.wpos..]) {
            Ok(0) => return Err(()),
            Ok(n) => c.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    c.wbuf.clear();
    c.wpos = 0;
    Ok(())
}

// ---------------------------------------------------------------------
// Worker side: execute framed request units against the EpochEngine.
// ---------------------------------------------------------------------

fn worker_loop(
    shared: &Shared,
    jobs: &Mutex<Receiver<Job>>,
    completions: &Mutex<Vec<Done>>,
    wake: &UnixStream,
) {
    loop {
        // Hold the receiver lock only for the dequeue, not the request.
        let job = match lock(jobs).recv() {
            Ok(job) => job,
            Err(_) => break, // reactor gone and queue drained
        };
        let mut out = Vec::with_capacity(256);
        // With the process-wide recorder on (`TRACE ON`), every request
        // runs under a fresh trace context with a flight recorder: the
        // worker installs the context (spans it and the engine record
        // carry this request's trace id) and opens the root `request`
        // span. The flight's copy of the tree is what the slow log
        // attaches — rendering it drains nothing from the global rings.
        let ctx = pxv_obs::Recorder::is_enabled().then(pxv_obs::TraceContext::with_flight);
        let flight = ctx.as_ref().and_then(|c| c.flight().cloned());
        // Contain a panicking request to an ERR response: the engine's
        // locks recover from poisoning and mutating requests run on a
        // private clone, so the published state stays consistent.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = ctx.map(pxv_obs::TraceContext::install);
            let _root = pxv_obs::Span::enter("request");
            handle_unit(&job.unit, shared, &mut out)
        }));
        let quit = match outcome {
            Ok(quit) => quit,
            Err(_) => {
                out.clear();
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                let e = ProtocolError::Engine(
                    "panic while serving request; state rolled back to the published epoch".into(),
                );
                let _ = writeln!(out, "{}", e.to_line());
                false
            }
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let took = job.enqueued.elapsed();
        shared.stats.latency.record_duration(took);
        shared.slow.observe_traced(
            took,
            || job.unit[0].clone(),
            || {
                let records = flight.as_ref()?.records();
                (!records.is_empty()).then(|| pxv_obs::export::render_text_tree(&records))
            },
        );
        lock(completions).push(Done {
            conn: job.conn,
            gen: job.gen,
            bytes: out,
            quit,
        });
        // Nonblocking self-pipe: a full pipe already has a wake pending.
        let _ = (&*wake).write(&[1]);
    }
}

/// Executes one framed request unit, writing the full response into
/// `out`. Returns `true` when the connection should close (`QUIT`,
/// `SHUTDOWN`).
fn handle_unit(unit: &[String], shared: &Shared, out: &mut Vec<u8>) -> bool {
    let line = &unit[0];
    #[cfg(debug_assertions)]
    if line.trim() == "__PANIC" {
        // Debug-only fault injection for the poisoning regression test:
        // panic *inside* an epoch update — the historical worst case,
        // which used to poison the engine lock and kill every later
        // request on every connection.
        let _: Result<(), EngineError> = shared
            .engine
            .update(|_| panic!("__PANIC: injected mid-update fault"));
        unreachable!("the injected panic unwinds past this point");
    }
    // Only `PROFILE` pays for parse timing — every other request keeps
    // its zero-clock-read fast path.
    let profiling = line
        .trim_start()
        .get(..8)
        .is_some_and(|p| p.eq_ignore_ascii_case("PROFILE "));
    let t_parse = profiling.then(Instant::now);
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            let _ = writeln!(out, "{}", e.to_line());
            return false;
        }
    };
    let parse_nanos = t_parse.map_or(0, |t| t.elapsed().as_nanos() as u64);
    let result = match request {
        Request::Quit => {
            let _ = writeln!(out, "OK bye");
            return true;
        }
        Request::Ping => {
            let _ = writeln!(out, "PONG");
            return false;
        }
        Request::Shutdown => {
            // Acknowledge, then raise the flag; the completion wake pulls
            // the reactor out of `poll`, which drains every session.
            let _ = writeln!(out, "OK shutting-down");
            shared.shutdown.store(true, Ordering::SeqCst);
            return true;
        }
        Request::Batch { count } => {
            handle_batch(count, &unit[1..], shared, out);
            return false;
        }
        other => execute(other, parse_nanos, shared, out),
    };
    if let Err(e) = result {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        let _ = writeln!(out, "{}", e.to_line());
    }
    false
}

fn engine_err(e: EngineError) -> ProtocolError {
    match e {
        EngineError::Plan(p) => ProtocolError::Plan(p.to_string()),
        other => ProtocolError::Engine(other.to_string()),
    }
}

fn find_doc(engine: &Engine, name: &str) -> Result<DocId, ProtocolError> {
    engine
        .find_document(name)
        .ok_or_else(|| ProtocolError::UnknownDoc(format!("no document named `{name}`")))
}

/// Executes one non-batch request and writes its success response;
/// errors bubble up to be written as `ERR` lines. `parse_nanos` is the
/// request-line parse time, measured by the caller only for `PROFILE`
/// (zero otherwise).
///
/// The epoch discipline: reads resolve against [`EpochEngine::read`]
/// and never block; every mutation (`LOAD`, `VIEW`, `UPDATE`,
/// `INVALIDATE`, `BUDGET`, `ADVISE AUTO`) goes through
/// [`EpochEngine::update`] (prepare on a clone, publish atomically), and
/// `RESTORE` publishes a rebuilt engine through [`EpochEngine::replace`].
fn execute(
    request: Request,
    parse_nanos: u64,
    shared: &Shared,
    out: &mut Vec<u8>,
) -> Result<(), ProtocolError> {
    match request {
        Request::Load { doc, pdoc } => {
            let nodes = pdoc.len();
            // LOAD is upsert: re-loading a name replaces the content and
            // invalidates its cached extensions.
            shared
                .engine
                .update(|engine| match engine.find_document(&doc) {
                    Some(id) => engine.replace_document(id, pdoc).map_err(engine_err),
                    None => engine
                        .add_document(&doc, pdoc)
                        .map_err(engine_err)
                        .map(|_| ()),
                })?;
            writeln!(out, "OK doc {doc} nodes={nodes}").map_err(io_to_protocol)
        }
        Request::View { name, pattern } => {
            shared.engine.update(|engine| {
                engine
                    .register_view(pxv_engine::View::new(&name, pattern))
                    .map_err(engine_err)
            })?;
            writeln!(out, "OK view {name}").map_err(io_to_protocol)
        }
        Request::Warm { doc } => {
            let engine = shared.engine.read();
            let id = find_doc(&engine, &doc)?;
            let n = engine.warm(id).map_err(engine_err)?;
            writeln!(out, "OK warmed {n}").map_err(io_to_protocol)
        }
        Request::Query {
            doc,
            query,
            options,
        } => {
            let engine = shared.engine.read();
            let id = find_doc(&engine, &doc)?;
            if options.get_trace() {
                // `trace=true` installs its own context + flight for
                // exactly this query, independent of the process-wide
                // recorder, and returns the rendered tree after the
                // answer block. The answer bytes are identical to an
                // untraced run — spans read clocks, never data.
                let ctx = pxv_obs::TraceContext::with_flight();
                let flight = ctx.flight().expect("with_flight carries one").clone();
                let answer = {
                    let _guard = ctx.install();
                    let _root = pxv_obs::Span::enter("request");
                    engine.answer_with(id, &query, &options).map_err(engine_err)
                }?;
                write_answer(out, &answer).map_err(io_to_protocol)?;
                let tree = pxv_obs::export::render_text_tree(&flight.records());
                writeln!(out, "TRACE {}", tree.lines().count()).map_err(io_to_protocol)?;
                out.extend_from_slice(tree.as_bytes());
                Ok(())
            } else {
                let answer = engine
                    .answer_with(id, &query, &options)
                    .map_err(engine_err)?;
                write_answer(out, &answer).map_err(io_to_protocol)
            }
        }
        Request::Invalidate { doc } => {
            let n = shared.engine.update(|engine| {
                let id = find_doc(engine, &doc)?;
                engine.invalidate(id).map_err(engine_err)
            })?;
            writeln!(out, "OK invalidated {n}").map_err(io_to_protocol)
        }
        Request::Update { doc, edit } => {
            // Clone-and-publish: queries racing this edit keep answering
            // on the pre-edit epoch and can never mix one view's pre-edit
            // extension with another's post-edit one.
            let report = shared.engine.update(|engine| {
                let id = find_doc(engine, &doc)?;
                engine
                    .apply_edits(id, std::slice::from_ref(&edit))
                    .map_err(|e| match e {
                        pxv_engine::EngineError::Edit(edit_err) => {
                            ProtocolError::BadEdit(edit_err.to_string())
                        }
                        other => engine_err(other),
                    })
            })?;
            write!(
                out,
                "OK updated edits={} deltas={} fallbacks={} exts={}",
                report.edits,
                report.deltas_applied,
                report.delta_fallbacks,
                report.extensions_maintained,
            )
            .map_err(io_to_protocol)?;
            if let Some(root) = report.inserted_roots.first() {
                write!(out, " inserted={root}").map_err(io_to_protocol)?;
            }
            writeln!(out).map_err(io_to_protocol)
        }
        Request::Save { path } => {
            // Snapshot the current epoch, write the file outside any
            // lock — disk latency stalls nothing.
            let snapshot = shared.engine.read().snapshot();
            let bytes = pxv_store::write_snapshot(&path, &snapshot)
                .map_err(|e| ProtocolError::Store(e.to_string()))?;
            shared.metrics.saves.inc();
            shared.metrics.snapshot_bytes.set(bytes as u64);
            writeln!(
                out,
                "OK saved docs={} views={} exts={} epoch={} bytes={bytes}",
                snapshot.documents.len(),
                snapshot.views.len(),
                snapshot.extensions.len(),
                snapshot.epoch,
            )
            .map_err(io_to_protocol)
        }
        Request::Restore { path } => {
            // Read and rebuild outside any lock; publish atomically. A
            // failed restore leaves the current epoch untouched, and
            // queries keep flowing off it while the rebuild runs.
            // Lazy read: extension sections stay encoded until first
            // probe, so RESTORE acknowledges in O(section directory)
            // instead of O(extension payload). v1/v2 files decode
            // eagerly under the same call.
            let snapshot = pxv_store::read_snapshot_lazy(&path)
                .map_err(|e| ProtocolError::Store(e.to_string()))?;
            let (docs, views, exts, epoch) = (
                snapshot.documents.len(),
                snapshot.views.len(),
                snapshot.sections.len(),
                snapshot.epoch,
            );
            // Options are per-process configuration, not snapshot state:
            // the replacement engine keeps the options the server was
            // configured with.
            let options = shared.engine.read().options().clone();
            let restored = Engine::from_snapshot_lazy_with(snapshot, options)
                .map_err(|e| ProtocolError::Store(e.to_string()))?;
            shared.engine.replace(restored);
            shared.metrics.restores.inc();
            writeln!(
                out,
                "OK restored docs={docs} views={views} exts={exts} epoch={epoch}"
            )
            .map_err(io_to_protocol)
        }
        Request::Budget { bytes } => {
            // Evicts in the next epoch; readers still on the current one
            // keep its cache until they finish.
            let cache_bytes = shared.engine.update(|engine| {
                engine.set_cache_budget(bytes);
                Ok::<_, ProtocolError>(engine.cache_bytes())
            })?;
            if bytes == u64::MAX {
                writeln!(out, "OK budget=unbounded cache_bytes={cache_bytes}")
            } else {
                writeln!(out, "OK budget={bytes} cache_bytes={cache_bytes}")
            }
            .map_err(io_to_protocol)
        }
        Request::Advise { auto } => {
            let options = pxv_engine::AdviseOptions::default();
            if auto {
                // Registration mutates the view catalog: epoch update.
                let (report, registered) = shared
                    .engine
                    .update(|engine| engine.advise_and_register(&options).map_err(engine_err))?;
                write_advice(out, &report, registered.len()).map_err(io_to_protocol)
            } else {
                let report = shared.engine.read().advise(&options);
                write_advice(out, &report, 0).map_err(io_to_protocol)
            }
        }
        Request::Stats => stats::write_stats(out, &sample(shared)).map_err(io_to_protocol),
        Request::StatsSlow => {
            let records = shared.slow.records();
            writeln!(
                out,
                "SLOW {} threshold_us={}",
                records.len(),
                shared.slow.threshold_us()
            )
            .map_err(io_to_protocol)?;
            for r in &records {
                match &r.trace {
                    Some(tree) => {
                        writeln!(
                            out,
                            "SLOWQ us={} spans={} {}",
                            r.micros,
                            tree.lines().count(),
                            r.request
                        )
                        .map_err(io_to_protocol)?;
                        for line in tree.lines() {
                            writeln!(out, "SLOWT {line}").map_err(io_to_protocol)?;
                        }
                    }
                    None => writeln!(out, "SLOWQ us={} {}", r.micros, r.request)
                        .map_err(io_to_protocol)?,
                }
            }
            Ok(())
        }
        Request::Metrics => {
            let text = stats::render_metrics(&shared.metrics.registry, &sample(shared));
            writeln!(out, "METRICS {}", text.lines().count()).map_err(io_to_protocol)?;
            out.extend_from_slice(text.as_bytes());
            Ok(())
        }
        Request::Trace(mode) => match mode {
            crate::protocol::TraceMode::On => {
                pxv_obs::Recorder::enable();
                writeln!(out, "OK trace on").map_err(io_to_protocol)
            }
            crate::protocol::TraceMode::Off => {
                pxv_obs::Recorder::disable();
                writeln!(out, "OK trace off").map_err(io_to_protocol)
            }
            crate::protocol::TraceMode::Dump => {
                // Draining consumes: spans dumped once never reappear in
                // a later dump. The dump excludes this request's own
                // `request` span — it is still open while we drain.
                let drained = pxv_obs::Recorder::drain();
                let json = pxv_obs::export::chrome_trace_json(&drained);
                writeln!(out, "TRACE {}", json.lines().count()).map_err(io_to_protocol)?;
                out.extend_from_slice(json.as_bytes());
                out.push(b'\n');
                Ok(())
            }
        },
        Request::Profile {
            doc,
            query,
            options,
        } => {
            let t_rest = Instant::now();
            let engine = shared.engine.read();
            let id = find_doc(&engine, &doc)?;
            let answer = engine
                .answer_with(id, &query, &options)
                .map_err(engine_err)?;
            let mut profile = answer.profile.clone().unwrap_or_default();
            profile.parse_nanos = parse_nanos;
            // Serialization cost is real but the PROFILE response does
            // not carry the answer block — render it to a scratch buffer
            // to measure what a QUERY response would have cost.
            let t_ser = Instant::now();
            let mut scratch = Vec::with_capacity(256);
            write_answer(&mut scratch, &answer).map_err(io_to_protocol)?;
            profile.serialize_nanos = t_ser.elapsed().as_nanos() as u64;
            // Server-side total: parse plus everything after it.
            profile.total_nanos = parse_nanos + t_rest.elapsed().as_nanos() as u64;
            write_profile(out, &answer, &profile).map_err(io_to_protocol)
        }
        // Handled by the caller.
        Request::Ping | Request::Quit | Request::Shutdown | Request::Batch { .. } => {
            unreachable!()
        }
    }
}

/// Reads every source of a served number once, for `STATS` or `METRICS`.
fn sample(shared: &Shared) -> Sample {
    let engine = shared.engine.read();
    Sample {
        engine: engine.stats(),
        server: shared.stats.snapshot(),
        docs: engine.document_count() as u64,
        views: engine.catalog().len() as u64,
        catalog_epoch: engine.catalog_epoch(),
        published_epochs: shared.engine.epoch(),
        active: shared.active.load(Ordering::SeqCst) as u64,
        slow_queries: shared.slow.len() as u64 + shared.slow.dropped(),
        spans_dropped: pxv_obs::Recorder::dropped(),
    }
}

fn io_to_protocol(e: io::Error) -> ProtocolError {
    // Writes into a Vec cannot fail in practice; keep the type honest.
    ProtocolError::Engine(format!("i/o: {e}"))
}

/// Answers the pre-framed body lines of a `BATCH` concurrently through
/// [`Engine::answer_batch`] — all against one epoch snapshot, so a batch
/// racing an `UPDATE` is answered entirely pre- or entirely post-edit —
/// and writes a `RESULTS` header followed by one `ANSWER` block or `ERR`
/// line per query, in request order.
fn handle_batch(count: usize, body: &[String], shared: &Shared, out: &mut Vec<u8>) {
    debug_assert!(count <= MAX_BATCH);
    debug_assert_eq!(body.len(), count, "reactor frames exactly `count` lines");
    let engine = shared.engine.read();
    // Resolve names, keeping per-item errors positional; well-formed
    // queries move into the batch, and `resolved` remembers which
    // positions ran (batch indices are increasing, so draining the
    // answers in order realigns them).
    let mut batch: Vec<(DocId, pxv_tpq::TreePattern)> = Vec::new();
    let resolved: Vec<Result<(), ProtocolError>> = body
        .iter()
        .map(|line| {
            let (doc, query) = parse_batch_line(line)?;
            batch.push((find_doc(&engine, &doc)?, query));
            Ok(())
        })
        .collect();
    let mut answers = engine.answer_batch(&batch).into_iter();
    let _ = writeln!(out, "RESULTS {count}");
    let mut errors = 0u64;
    for item in resolved {
        match item {
            Err(e) => {
                errors += 1;
                let _ = writeln!(out, "{}", e.to_line());
            }
            Ok(()) => match answers.next().expect("one answer per resolved query") {
                Ok(answer) => {
                    let _ = write_answer(out, &answer);
                }
                Err(e) => {
                    errors += 1;
                    let _ = writeln!(out, "{}", engine_err(e).to_line());
                }
            },
        }
    }
    // The whole batch is one request; keep `errors <= requests` by
    // counting it once however many body lines failed.
    if errors > 0 {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
}
