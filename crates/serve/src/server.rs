//! The TCP job server: accept loop, per-connection request handling,
//! worker pool, admission control, per-job timeout/cancellation, and
//! graceful shutdown.
//!
//! The server is generic over an [`Executor`] — the thing that actually
//! compiles/simulates. The production executor (backed by the bench
//! crate's memoizing `Engine` and the artifact [`crate::store::Store`])
//! lives in `turnpike-bench`; tests here use mocks, which keeps this crate
//! free of a dependency cycle with the evaluation harness.
//!
//! # Lifecycle
//!
//! ```text
//!            ┌────────────── readiness loop (one thread) ──────────────┐
//!            │ poll(2): listener + waker + every client connection     │
//! clients ──>│ LineReader ─parse─> admission ──try_push──> JobQueue ───┼──pop──> worker
//!            │ WriteQueue <─ events (mpsc, drained on waker wakeups) <─┼─────────────┘
//!            └─────────────────────────────────────────────────────────┘
//! ```
//!
//! Connections are **not** threads: one readiness loop holds every client
//! socket (nonblocking, multiplexed through the std-only `poll(2)` wrapper
//! in [`crate::poll`]), so a coordinator fanning a campaign across workers
//! — or thousands of concurrent clients — costs the server one poll entry
//! each, not a stack each. Per-connection read/write buffering is the
//! explicit [`LineReader`]/[`WriteQueue`] state machines from
//! [`crate::proto`]; workers hand results back over per-job mpsc channels
//! and nudge the loop through a self-pipe-style waker. The worker pool
//! itself is unchanged from the thread-per-connection design.
//!
//! Shutdown (client `shutdown` request or [`Server::shutdown`]) closes the
//! queue (no new admissions), drains queued + in-flight jobs to their
//! terminal events, joins workers, flushes remaining client output,
//! optionally writes a Chrome trace of job spans, and returns — nothing
//! accepted is lost.
//!
//! # Timeouts and cancellation
//!
//! Cancellation is **cooperative**: a simulated run cannot be preempted
//! mid-instruction, so when a job exceeds its deadline the connection
//! handler raises the job's cancel flag and keeps waiting. Campaign
//! executors observe the flag between injected runs (via the resilience
//! crate's campaign hook) and abandon promptly; single runs finish their
//! current simulation before the worker notices. Either way the client
//! always receives a terminal event.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use turnpike_metrics::{Counter, Hist, MetricSet};

use crate::flight::FlightRecorder;
use crate::json::Json;
use crate::poll::{poll, PollFd};
use crate::proto::{
    Event, JobKind, JobRequest, LineReader, ProgressStats, Request, StoreStatus, WriteQueue,
};
use crate::queue::{JobQueue, PushError};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission limit: jobs queued (not yet executing) before new
    /// submissions get a typed `overloaded` rejection.
    pub queue_capacity: usize,
    /// Per-job deadline measured from admission; on expiry the job's
    /// cancel flag is raised (cooperative — see module docs).
    pub job_timeout: Duration,
    /// Retry hint sent with `overloaded` rejections.
    pub retry_after_ms: u64,
    /// If set, write a Chrome trace (one complete-event span per job)
    /// here at shutdown.
    pub trace_path: Option<PathBuf>,
    /// If set, keep a per-job [`FlightRecorder`] and dump it here
    /// (`job-<id>.jsonl`) when a job fails, deadlines out, or produces a
    /// quarantined store entry. `None` disables flight recording entirely.
    pub flight_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            job_timeout: Duration::from_secs(300),
            retry_after_ms: 50,
            trace_path: None,
            flight_dir: None,
        }
    }
}

/// What an [`Executor`] hands back for a finished job.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Compact JSON payload; the `done` event carries it as its `result`
    /// value, byte for byte.
    pub result: String,
    /// Artifact-store disposition.
    pub store: StoreStatus,
    /// Corrupt store entries quarantined while serving this job.
    pub quarantined: u64,
}

/// Wakes the readiness loop from other threads — workers publishing job
/// events, shutdown triggers. std has no `pipe(2)`, so the classic
/// self-pipe trick is built from a loopback TCP socketpair: the loop polls
/// the receive half; waking writes one byte to the send half. A full
/// socket buffer means wakeups are already pending, so a `WouldBlock`ed
/// wake is itself a successful wake.
struct Waker {
    tx: Mutex<TcpStream>,
}

impl Waker {
    /// Build the socketpair; returns the waker and the receive half for
    /// the loop to poll.
    fn new() -> std::io::Result<(Waker, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx: Mutex::new(tx) }, rx))
    }

    fn wake(&self) {
        let _ = self.tx.lock().unwrap().write(&[1]);
    }
}

/// Per-job control surface handed to the executor: cancellation state and
/// a progress channel back to the submitting client.
pub struct JobCtl {
    job: u64,
    tag: String,
    cancel: Arc<AtomicBool>,
    // mpsc senders are !Sync; executors report progress from worker pools
    // (e.g. the campaign hook fires on par_map threads), so serialize.
    events: Mutex<mpsc::Sender<Event>>,
    /// Nudges the readiness loop after each send so relays don't wait for
    /// the next poll timeout. `None` for detached (direct-CLI) handles.
    waker: Option<Arc<Waker>>,
}

impl JobCtl {
    /// A control handle attached to no connection: never canceled,
    /// progress dropped. Direct (CLI) execution uses this to drive the
    /// exact same executor code path as a served job — one renderer, one
    /// store lookup, byte-identical payloads.
    pub fn detached() -> JobCtl {
        let (tx, _rx) = mpsc::channel();
        JobCtl {
            job: 0,
            tag: String::new(),
            cancel: Arc::new(AtomicBool::new(false)),
            events: Mutex::new(tx),
            waker: None,
        }
    }

    /// Whether the deadline passed or the server asked this job to stop.
    /// Executors should poll this at natural yield points (per campaign
    /// run) and bail with an error mentioning "canceled".
    pub fn is_canceled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The raw cancel flag, for wiring into hooks that take an
    /// `&AtomicBool` directly.
    pub fn cancel_flag(&self) -> &AtomicBool {
        &self.cancel
    }

    /// Stream a progress event (`done`/`total` work units) to the client.
    /// Dropped silently if the client is gone.
    pub fn progress(&self, done: u64, total: u64) {
        let ev = Event::Progress {
            job: self.job,
            tag: self.tag.clone(),
            done,
            total,
            stats: None,
        };
        let _ = self.events.lock().unwrap().send(ev);
        if let Some(w) = &self.waker {
            w.wake();
        }
    }

    /// Stream a progress event enriched with the campaign estimator
    /// payload. Dropped silently if the client is gone.
    pub fn progress_stats(&self, done: u64, total: u64, stats: ProgressStats) {
        let ev = Event::Progress {
            job: self.job,
            tag: self.tag.clone(),
            done,
            total,
            stats: Some(stats),
        };
        let _ = self.events.lock().unwrap().send(ev);
        if let Some(w) = &self.waker {
            w.wake();
        }
    }
}

/// Executes one job. Implementations must be thread-safe: the worker pool
/// calls `execute` concurrently.
pub trait Executor: Send + Sync {
    /// Run `req` to completion (or until `ctl` reports cancellation) and
    /// return the rendered payload.
    ///
    /// # Errors
    ///
    /// A human-readable message; include the word "canceled" when bailing
    /// out due to `ctl.is_canceled()` so the server meters it as a
    /// cancellation rather than a failure.
    fn execute(&self, req: &JobRequest, ctl: &JobCtl) -> Result<ExecOutput, String>;
}

struct Job {
    id: u64,
    req: JobRequest,
    events: mpsc::Sender<Event>,
    cancel: Arc<AtomicBool>,
    enqueued: Instant,
}

struct Span {
    name: String,
    worker: usize,
    start_us: u64,
    dur_us: u64,
    job: u64,
    store: &'static str,
}

struct Inner {
    config: ServerConfig,
    executor: Arc<dyn Executor>,
    queue: JobQueue<Job>,
    metrics: Mutex<MetricSet>,
    shutting_down: AtomicBool,
    next_job: AtomicU64,
    started: Instant,
    spans: Mutex<Vec<Span>>,
    flights: Mutex<std::collections::HashMap<u64, FlightRecorder>>,
    addr: SocketAddr,
    waker: Arc<Waker>,
}

/// A running job server. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] (or send a `shutdown` request and
/// [`Server::join`]).
pub struct Server {
    inner: Arc<Inner>,
    thread: JoinHandle<()>,
}

impl Server {
    /// Bind, spawn the worker pool and accept loop, and return a handle.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig, executor: Arc<dyn Executor>) -> std::io::Result<Server> {
        assert!(config.workers >= 1, "need at least one worker");
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (waker, wake_rx) = Waker::new()?;
        let inner = Arc::new(Inner {
            queue: JobQueue::new(config.queue_capacity),
            config,
            executor,
            metrics: Mutex::new(MetricSet::new()),
            shutting_down: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            started: Instant::now(),
            spans: Mutex::new(Vec::new()),
            flights: Mutex::new(std::collections::HashMap::new()),
            addr,
            waker: Arc::new(waker),
        });
        let workers: Vec<_> = (0..inner.config.workers)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, idx))
            })
            .collect();
        let thread = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || serve_loop(&inner, &listener, wake_rx, workers))
        };
        Ok(Server { inner, thread })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Begin graceful shutdown and wait for it to complete: queued and
    /// in-flight jobs run to their terminal events, then everything joins.
    pub fn shutdown(self) {
        self.inner.trigger_shutdown();
        let _ = self.thread.join();
    }

    /// Wait until some client triggers shutdown.
    pub fn join(self) {
        let _ = self.thread.join();
    }

    /// Snapshot of the server's metric registry (for merging into a
    /// process-wide set).
    pub fn metrics(&self) -> MetricSet {
        self.inner.metrics.lock().unwrap().clone()
    }
}

impl Inner {
    fn trigger_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Nudge the readiness loop so it stops accepting and starts the
        // drain immediately instead of at the next poll wakeup.
        self.waker.wake();
    }

    /// The `stats` snapshot body, with a fixed key order.
    fn stats_body(&self) -> Json {
        let m = self.metrics.lock().unwrap();
        let hist_q = |key, q| m.hist(key).map_or(0, |h| h.quantile(q).round() as u64);
        Json::obj([
            ("queue_depth", self.queue.depth().into()),
            ("queue_capacity", self.queue.capacity().into()),
            ("workers", self.config.workers.into()),
            (
                "shutting_down",
                self.shutting_down.load(Ordering::SeqCst).into(),
            ),
            ("accepted", m.counter(Counter::ServeAccepted).into()),
            ("rejected", m.counter(Counter::ServeRejected).into()),
            ("completed", m.counter(Counter::ServeCompleted).into()),
            ("failed", m.counter(Counter::ServeFailed).into()),
            ("canceled", m.counter(Counter::ServeCanceled).into()),
            ("store_hits", m.counter(Counter::ServeStoreHits).into()),
            ("store_misses", m.counter(Counter::ServeStoreMisses).into()),
            (
                "store_quarantined",
                m.counter(Counter::ServeStoreQuarantined).into(),
            ),
            ("queue_peak", m.counter(Counter::ServeQueuePeak).into()),
            ("job_p50_us", hist_q(Hist::ServeJobMicros, 0.50).into()),
            ("job_p99_us", hist_q(Hist::ServeJobMicros, 0.99).into()),
            ("busy_us", m.counter(Counter::ServeBusyMicros).into()),
            (
                "uptime_us",
                (self.started.elapsed().as_micros() as u64).into(),
            ),
        ])
    }

    /// Record one flight event for `job`. A no-op unless flight recording
    /// is configured. Only `accept` — recorded *before* the job enters the
    /// queue, so a worker can never outrun the recorder's creation —
    /// creates a ring; events for jobs whose recorder was already closed
    /// (a relay racing the worker's terminal bookkeeping) are dropped
    /// rather than resurrecting it.
    fn flight(&self, job: u64, kind: &'static str, detail: String) {
        if self.config.flight_dir.is_none() {
            return;
        }
        let t_us = self.started.elapsed().as_micros() as u64;
        let mut map = self.flights.lock().unwrap();
        match map.entry(job) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().record(t_us, kind, detail);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                if kind == "accept" {
                    v.insert(FlightRecorder::new(job))
                        .record(t_us, kind, detail);
                }
            }
        }
    }

    /// Close `job`'s flight recorder, dumping the ring as JSONL evidence
    /// when `dump` is set (failure, deadline cancel, or quarantine).
    fn flight_close(&self, job: u64, dump: bool) {
        let Some(dir) = &self.config.flight_dir else {
            return;
        };
        let Some(rec) = self.flights.lock().unwrap().remove(&job) else {
            return;
        };
        if dump {
            if let Err(e) = rec.dump(dir) {
                eprintln!("serve: failed to write flight record for job {job}: {e}");
            }
        }
    }

    fn write_trace(&self) {
        let Some(path) = &self.config.trace_path else {
            return;
        };
        let spans = self.spans.lock().unwrap();
        let events = spans.iter().map(|s| {
            Json::obj([
                ("name", s.name.as_str().into()),
                ("cat", "job".into()),
                ("ph", "X".into()),
                ("ts", s.start_us.into()),
                ("dur", s.dur_us.into()),
                ("pid", 1u64.into()),
                ("tid", (s.worker + 1).into()),
                (
                    "args",
                    Json::obj([("job", s.job.into()), ("store", s.store.into())]),
                ),
            ])
        });
        let out = format!("{}\n", Json::arr(events));
        let write = || -> std::io::Result<()> {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(path, &out)
        };
        if let Err(e) = write() {
            eprintln!("serve: failed to write trace {}: {e}", path.display());
        }
    }
}

/// One accepted job from this connection's point of view: the receive end
/// of the worker's event channel plus the deadline/cancellation state the
/// readiness loop enforces.
struct ActiveJob {
    id: u64,
    rx: mpsc::Receiver<Event>,
    cancel: Arc<AtomicBool>,
    deadline: Instant,
    deadline_raised: bool,
}

/// One client connection in the readiness loop: a nonblocking socket
/// bracketed by the protocol's explicit buffer state machines, plus at
/// most one in-flight job (requests on a connection are sequential, as in
/// the thread-per-connection design — pipelined bytes wait in the
/// [`LineReader`] until the current job's terminal event).
struct Conn {
    stream: TcpStream,
    reader: LineReader,
    out: WriteQueue,
    job: Option<ActiveJob>,
    /// Peer is gone (EOF, I/O error, or protocol overflow): stop reading
    /// and writing, but keep the entry until any in-flight job reaches its
    /// terminal event so metering and the drain guarantee hold.
    gone: bool,
    /// Close once the output buffer flushes (set after answering a
    /// `shutdown` request, matching the old per-thread handler's return).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            reader: LineReader::new(),
            out: WriteQueue::new(),
            job: None,
            gone: false,
            close_after_flush: false,
        }
    }

    /// Queue one event line for the client; dropped if the peer is gone
    /// (a vanished client must not wedge the server — the job still runs
    /// to completion for the metrics and drain guarantees).
    fn push_event(&mut self, ev: &Event) {
        if !self.gone {
            self.out.push_line(&ev.to_line());
        }
    }

    /// Pull whatever the socket has into the line reader. Returns `false`
    /// when the connection is finished (EOF or error).
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.reader.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return !self.reader.overflowed(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Flush queued output. Returns `false` on a dead socket.
    fn flush(&mut self) -> bool {
        if self.gone || self.out.is_empty() {
            return true;
        }
        self.out.write_to(&mut self.stream).is_ok()
    }
}

/// The event-driven heart of the server: one thread, one `poll(2)` set
/// covering the listener, the waker, and every client connection.
fn serve_loop(
    inner: &Arc<Inner>,
    listener: &TcpListener,
    wake_rx: TcpStream,
    workers: Vec<JoinHandle<()>>,
) {
    let mut wake_rx = wake_rx;
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        let shutting = inner.shutting_down.load(Ordering::SeqCst);
        // Exit once the drain is complete: no connection has an in-flight
        // job (accepted jobs hold their connection entry even if the peer
        // vanished) and all reachable output is flushed.
        if shutting
            && conns
                .iter()
                .all(|c| c.job.is_none() && (c.gone || c.out.is_empty()))
        {
            break;
        }

        // Build the poll set. Entry 0 is the waker; entry 1 the listener
        // (present only while accepting); the rest map 1:1 onto `conns`.
        let mut entries = Vec::with_capacity(conns.len() + 2);
        entries.push(PollFd::new(&wake_rx, true, false));
        let listener_slot = if shutting {
            None
        } else {
            entries.push(PollFd::new(listener, true, false));
            Some(1)
        };
        let conn_base = entries.len();
        for c in &conns {
            // Read interest even mid-job: EOF/hangup detection is free and
            // pipelined bytes are buffered, not processed, until terminal.
            entries.push(PollFd::new(
                &c.stream,
                !c.gone,
                !c.gone && !c.out.is_empty(),
            ));
        }
        // Sleep until socket activity, a waker nudge, or the nearest job
        // deadline (already-raised deadlines need no further timer — the
        // worker's terminal event will wake the loop).
        let now = Instant::now();
        let timeout = conns
            .iter()
            .filter_map(|c| c.job.as_ref())
            .filter(|j| !j.deadline_raised)
            .map(|j| j.deadline.saturating_duration_since(now))
            .min();
        if let Err(e) = poll(&mut entries, timeout) {
            eprintln!("serve: poll failed: {e}");
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }

        // Drain waker bytes *before* job events: a byte written after this
        // read means its event arrives after this iteration's drain and
        // the leftover byte re-arms the next poll immediately.
        if entries[0].readiness().any() {
            let mut sink = [0u8; 64];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }

        // Accept everything pending.
        if listener_slot.is_some_and(|i| entries[i].readiness().any()) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn::new(stream));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        let now = Instant::now();
        for (idx, conn) in conns.iter_mut().enumerate() {
            let ready = entries
                .get(conn_base + idx)
                .map(|e| e.readiness())
                .unwrap_or_default();
            if !conn.gone && (ready.readable || ready.hangup || ready.error) && !conn.fill() {
                conn.gone = true;
            }
            relay_job_events(inner, conn);
            enforce_deadline(inner, conn, now);
            // Parse buffered requests only while no job is in flight;
            // each terminal event above may unblock the next one.
            while conn.job.is_none() && !conn.close_after_flush {
                let Some(line) = conn.reader.next_line() else {
                    break;
                };
                handle_request(inner, conn, &line);
            }
            if !conn.flush() {
                conn.gone = true;
            }
        }
        conns.retain(|c| {
            let drained = c.job.is_none();
            let flushed = c.out.is_empty() || c.gone;
            !(drained && (c.gone || (c.close_after_flush && flushed)))
        });
    }
    // Admission is closed and every accepted job has reached its terminal
    // event; the workers see the closed, empty queue and exit.
    inner.queue.drain_wait();
    for w in workers {
        let _ = w.join();
    }
    inner.write_trace();
}

/// Drain and relay this connection's in-flight job events; clears
/// [`Conn::job`] on the terminal event.
fn relay_job_events(inner: &Arc<Inner>, conn: &mut Conn) {
    let Some(job) = conn.job.take() else {
        return;
    };
    loop {
        match job.rx.try_recv() {
            Ok(ev) => {
                let terminal = matches!(ev, Event::Done { .. } | Event::Error { .. });
                if let Event::Progress { done, total, .. } = &ev {
                    // Recorded at relay time: a progress event the client
                    // never saw (terminal raced it) is also absent from the
                    // flight record, which is the truthful ordering.
                    inner.flight(job.id, "progress", format!("done={done} total={total}"));
                }
                conn.push_event(&ev);
                if terminal {
                    return;
                }
            }
            Err(mpsc::TryRecvError::Empty) => {
                conn.job = Some(job);
                return;
            }
            Err(mpsc::TryRecvError::Disconnected) => {
                conn.push_event(&Event::Error {
                    job: job.id,
                    tag: String::new(),
                    message: "internal: worker dropped the job".to_string(),
                });
                return;
            }
        }
    }
}

/// Raise the cancel flag (once) for a job past its deadline; the worker
/// still delivers the terminal event — cancellation is cooperative.
fn enforce_deadline(inner: &Arc<Inner>, conn: &mut Conn, now: Instant) {
    let Some(job) = conn.job.as_mut() else {
        return;
    };
    if job.deadline_raised || now < job.deadline {
        return;
    }
    job.deadline_raised = true;
    if !job.cancel.swap(true, Ordering::SeqCst) {
        inner.flight(
            job.id,
            "deadline",
            "job timeout elapsed; cancel requested".to_string(),
        );
    }
}

/// Handle one parsed request line on a connection with no job in flight.
fn handle_request(inner: &Arc<Inner>, conn: &mut Conn, line: &str) {
    match Request::parse(line) {
        Err(message) => conn.push_event(&Event::Error {
            job: 0,
            tag: String::new(),
            message,
        }),
        Ok(Request::Stats) => conn.push_event(&Event::Stats {
            body: inner.stats_body(),
        }),
        Ok(Request::Metrics) => {
            let body = turnpike_metrics::prometheus_text(&inner.metrics.lock().unwrap());
            conn.push_event(&Event::Metrics { body });
        }
        Ok(Request::Shutdown) => {
            inner.trigger_shutdown();
            conn.push_event(&Event::ShuttingDown { tag: String::new() });
            conn.close_after_flush = true;
        }
        Ok(Request::Job(req)) => admit_job(inner, conn, req),
    }
}

/// Admission control for one job request: typed rejection when saturated
/// or shutting down, otherwise enqueue and attach the job to the
/// connection for event relay.
fn admit_job(inner: &Arc<Inner>, conn: &mut Conn, req: JobRequest) {
    let tag = req.tag.clone();
    if inner.shutting_down.load(Ordering::SeqCst) {
        conn.push_event(&Event::ShuttingDown { tag });
        return;
    }
    let id = inner.next_job.fetch_add(1, Ordering::SeqCst);
    let (tx, rx) = mpsc::channel();
    let cancel = Arc::new(AtomicBool::new(false));
    let job = Job {
        id,
        req,
        events: tx,
        cancel: Arc::clone(&cancel),
        enqueued: Instant::now(),
    };
    // The recorder must exist before the job is in the queue: a worker can
    // pop and even finish the job before the loop's next breath. A
    // rejected job's ring is closed without dumping, so recording `accept`
    // ahead of the push never leaks evidence for a job that never ran.
    inner.flight(
        id,
        "accept",
        format!("tag={tag} kind={}", job.req.kind.name()),
    );
    match inner.queue.try_push(job) {
        Err(PushError::Full(_)) => {
            inner.metrics.lock().unwrap().inc(Counter::ServeRejected);
            inner.flight_close(id, false);
            conn.push_event(&Event::Overloaded {
                tag,
                retry_after_ms: inner.config.retry_after_ms,
            });
        }
        Err(PushError::Closed) => {
            inner.flight_close(id, false);
            conn.push_event(&Event::ShuttingDown { tag });
        }
        Ok(depth) => {
            {
                let mut m = inner.metrics.lock().unwrap();
                m.inc(Counter::ServeAccepted);
                m.record_peak(Counter::ServeQueuePeak, depth as u64);
            }
            inner.flight(id, "queue", format!("queue_depth={depth}"));
            conn.push_event(&Event::Accepted {
                job: id,
                tag,
                queue_depth: depth,
            });
            conn.job = Some(ActiveJob {
                id,
                rx,
                cancel,
                deadline: Instant::now() + inner.config.job_timeout,
                deadline_raised: false,
            });
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, worker_idx: usize) {
    while let Some(job) = inner.queue.pop() {
        let queue_wait = job.enqueued.elapsed();
        let start = Instant::now();
        inner.flight(
            job.id,
            "start",
            format!(
                "worker={worker_idx} queue_wait_us={}",
                queue_wait.as_micros()
            ),
        );
        let ctl = JobCtl {
            job: job.id,
            tag: job.req.tag.clone(),
            cancel: Arc::clone(&job.cancel),
            events: Mutex::new(job.events.clone()),
            waker: Some(Arc::clone(&inner.waker)),
        };
        // A panicking executor must not take the worker (and with it the
        // drain guarantee) down; convert panics into job failures.
        let outcome = catch_unwind(AssertUnwindSafe(|| inner.executor.execute(&job.req, &ctl)))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "executor panicked".to_string());
                Err(format!("executor panicked: {msg}"))
            });
        // The payload rides the `done` line as a JSON value, so one that
        // does not parse fails the job instead of corrupting the line.
        let outcome = outcome.and_then(|out| match Json::parse(&out.result) {
            Ok(result) => Ok((out, result)),
            Err(e) => Err(format!("executor payload is not JSON: {e}")),
        });
        let dur = start.elapsed();
        let canceled = job.cancel.load(Ordering::SeqCst);
        let (terminal, store_name, dump_flight) = match outcome {
            Ok((out, result)) => {
                let name = out.store.name();
                let mut m = inner.metrics.lock().unwrap();
                m.inc(Counter::ServeCompleted);
                match out.store {
                    StoreStatus::Hit => m.inc(Counter::ServeStoreHits),
                    StoreStatus::Miss => m.inc(Counter::ServeStoreMisses),
                    StoreStatus::Off => {}
                }
                m.add(Counter::ServeStoreQuarantined, out.quarantined);
                drop(m);
                // A quarantined store entry is evidence-worthy even though
                // the job itself succeeded: the dump records what the job
                // saw when it hit the corrupt artifact.
                if out.quarantined > 0 {
                    inner.flight(
                        job.id,
                        "quarantine",
                        format!("quarantined={}", out.quarantined),
                    );
                }
                inner.flight(
                    job.id,
                    "done",
                    format!("store={name} dur_us={}", dur.as_micros()),
                );
                (
                    Event::Done {
                        job: job.id,
                        tag: job.req.tag.clone(),
                        store: out.store,
                        result,
                    },
                    name,
                    out.quarantined > 0,
                )
            }
            Err(message) => {
                let mut m = inner.metrics.lock().unwrap();
                m.inc(if canceled {
                    Counter::ServeCanceled
                } else {
                    Counter::ServeFailed
                });
                drop(m);
                inner.flight(
                    job.id,
                    if canceled { "cancel" } else { "fail" },
                    message.clone(),
                );
                (
                    Event::Error {
                        job: job.id,
                        tag: job.req.tag.clone(),
                        message,
                    },
                    "off",
                    true,
                )
            }
        };
        inner.flight_close(job.id, dump_flight);
        {
            let mut m = inner.metrics.lock().unwrap();
            m.record_hist(Hist::ServeQueueMicros, queue_wait.as_micros() as u64);
            m.record_hist(Hist::ServeJobMicros, dur.as_micros() as u64);
            // Busy time across the pool: utilization = busy_us delta over
            // (uptime_us delta × workers), as the `watch --workers` fleet
            // view reads it.
            m.add(Counter::ServeBusyMicros, dur.as_micros() as u64);
        }
        if inner.config.trace_path.is_some() {
            let subject = if job.req.kind == JobKind::Figure {
                &job.req.target
            } else {
                &job.req.kernel
            };
            inner.spans.lock().unwrap().push(Span {
                name: format!("{} {}", job.req.kind.name(), subject),
                worker: worker_idx,
                start_us: start.duration_since(inner.started).as_micros() as u64,
                dur_us: dur.as_micros() as u64,
                job: job.id,
                store: store_name,
            });
        }
        let _ = job.events.send(terminal);
        // The terminal event is the one wakeup that must not wait for a
        // poll timeout: the readiness loop clears the connection's job slot
        // (and can resume pipelined requests) only after seeing it.
        inner.waker.wake();
        inner.queue.finish();
    }
}
