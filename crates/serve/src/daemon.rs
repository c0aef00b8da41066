//! The `agatha serve` daemon: a long-running alignment service over a
//! local TCP socket speaking the NDJSON protocol of [`crate::protocol`].
//!
//! Thread topology:
//!
//! * one **acceptor** polls the listener and spawns a reader/writer thread
//!   pair per connection;
//! * connection **readers** parse request lines and offer them to the
//!   shared [`AdmissionWindow`] — a full queue answers 503 *immediately*
//!   (bounded queue wait, the backpressure contract), a disconnect flips
//!   the connection's cancel flag so its pending work is dropped before
//!   kernel dispatch; a client that stops reading is hung up on the same way
//!   once a reply write has blocked for [`REPLY_WRITE_TIMEOUT`];
//! * connection **writers** send each connection's replies: every reply
//!   queued when a writer wakes goes out in one write, whole lines only;
//! * one **batcher** owns the [`BatchEngine`] (and through it the engine's
//!   helper threads): it sleeps until the window closes, sweeps
//!   deadline-expired requests (answered as `dropped` without dispatch),
//!   hands the batch to the engine via [`BatchEngine::run_tagged`], then
//!   answers each request and records queue/service/total latency in the
//!   lock-free [`ServeMetrics`]. It runs each batch to completion, so while
//!   it sleeps every engine worker is idle: it takes what is queued as soon
//!   as the queue holds one request per worker, whenever the window opened
//!   (with one worker it never sleeps while a request waits, and requests
//!   that arrived during a batch run as soon as it returns); the window is
//!   how long an idle engine with several workers waits to give each a
//!   request, and a full `max_batch` closes it early.
//!
//! The window has one consumer, so at most `max_queue` requests wait, plus
//! the one batch on the engine. While the batcher executes batch *N*,
//! readers fill window *N+1*, so admission and kernel execution overlap; an
//! expiry that falls due meanwhile is answered when batch *N* returns (and
//! deadlines are re-checked at dispatch inside the engine, so nothing is
//! served late). All shutdown paths (SIGTERM via
//! [`termination_flag`], the `{"cmd":"shutdown"}` request, or
//! [`ServeHandle::request_shutdown`]) drain the queue — every admitted
//! request is answered before the daemon exits.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use agatha_align::{ScoreModel, Scoring, Task};
use agatha_core::clock::{Clock, SystemClock};
use agatha_core::engine::{BatchEngine, JobMeta, JobOutcome};
use agatha_core::{AgathaConfig, Pipeline};

use crate::histogram::{MetricsSnapshot, ServeMetrics};
use crate::protocol::{
    dropped_response, error_response, ok_response, parse_request, rejected_response, Request,
};
use crate::window::{AdmissionWindow, Harvest, Pending, WindowCfg};

/// How often blocked loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Longest request line a connection may buffer before its line end arrives
/// (16 MiB — two orders of magnitude above the longest read any scenario
/// generates): past it the client gets one error reply and is disconnected,
/// so a stream without newlines cannot grow the daemon's memory.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// Longest a reply write may block on a client that does not read (its
/// socket buffers full): past it the client is disconnected, its pending
/// work cancelled and its queued replies freed, so a reader that never
/// reads cannot grow the daemon's memory without bound.
pub const REPLY_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub scoring: Scoring,
    pub config: AgathaConfig,
    /// Host worker threads (0 = all cores).
    pub threads: usize,
    /// Admission window length in nanoseconds (must be ≥ 1): how long an
    /// idle engine with several workers waits to give each a request (one
    /// worker never waits); an idle engine takes what is queued, whenever
    /// the window opened.
    pub window_ns: u64,
    /// Largest batch dispatched to the engine at once.
    pub max_batch: usize,
    /// Admission queue bound; offers beyond it are rejected with 503.
    pub max_queue: usize,
    /// Default per-request deadline (absent = requests wait forever unless
    /// they carry their own `deadline_ms`).
    pub default_deadline_ns: Option<u64>,
    /// Queue waits beyond this count as starvation (0 = derive as
    /// 8 × `window_ns`).
    pub starvation_ns: u64,
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
}

impl ServeConfig {
    pub fn new(scoring: Scoring) -> ServeConfig {
        ServeConfig {
            scoring,
            config: AgathaConfig::agatha(),
            threads: 0,
            window_ns: 5_000_000, // 5ms
            max_batch: 1024,
            max_queue: 4096,
            default_deadline_ns: None,
            starvation_ns: 0,
            addr: "127.0.0.1:0".to_string(),
        }
    }

    fn window_cfg(&self) -> WindowCfg {
        WindowCfg {
            window_ns: self.window_ns,
            max_batch: self.max_batch,
            max_queue: self.max_queue,
        }
    }

    /// The effective starvation threshold.
    pub fn starvation_threshold_ns(&self) -> u64 {
        if self.starvation_ns > 0 {
            self.starvation_ns
        } else {
            self.window_ns.saturating_mul(8)
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        self.window_cfg().validate()?;
        if self.default_deadline_ns == Some(0) {
            return Err("default deadline must be at least 1ns (omit it for none)".to_string());
        }
        Ok(())
    }
}

/// Per-request context carried through the admission window: who to
/// answer, and the connection's cancel flag.
struct ReqCtx {
    /// Client-chosen correlation id, echoed in the response.
    id: i64,
    reply: mpsc::Sender<String>,
    cancel: Arc<AtomicBool>,
}

struct Shared {
    window: Mutex<AdmissionWindow<ReqCtx>>,
    wake: Condvar,
    shutdown: AtomicBool,
    metrics: Arc<ServeMetrics>,
    clock: Arc<dyn Clock>,
    starvation_ns: u64,
    default_deadline_ns: Option<u64>,
    /// Engine-side task ids (diagnostic only; response routing uses the
    /// client id in [`ReqCtx`]).
    task_seq: AtomicU32,
    /// Score model the daemon aligns under; request sequences pack to this
    /// model's alphabet (DNA for the fixed model, 8-bit residue codes for a
    /// substitution matrix).
    model: ScoreModel,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the batcher so the drain starts immediately.
        let _guard = self.window.lock().expect("window lock poisoned");
        self.wake.notify_all();
    }
}

/// A running daemon. Obtain with [`serve`]; stop with
/// [`ServeHandle::shutdown`] (or SIGTERM / a `{"cmd":"shutdown"}` request
/// followed by [`ServeHandle::join`]).
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    batcher: JoinHandle<()>,
}

impl ServeHandle {
    /// The bound socket address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metrics (lock-free reads; snapshot at any time).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Whether a shutdown (signal, request, or explicit) is in progress.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Begin shutdown without waiting for the drain.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Wait until the daemon has drained and exited; returns the final
    /// metrics snapshot (the SIGTERM/shutdown stats dump).
    pub fn join(self) -> MetricsSnapshot {
        self.batcher.join().expect("batcher panicked");
        self.acceptor.join().expect("acceptor panicked");
        self.shared.metrics.snapshot()
    }

    /// [`ServeHandle::request_shutdown`] + [`ServeHandle::join`].
    pub fn shutdown(self) -> MetricsSnapshot {
        self.request_shutdown();
        self.join()
    }
}

/// Start the daemon on the real monotonic clock.
pub fn serve(cfg: ServeConfig) -> Result<ServeHandle, String> {
    serve_with_clock(cfg, Arc::new(SystemClock::new()))
}

/// Start the daemon with an explicit time source (tests).
pub fn serve_with_clock(cfg: ServeConfig, clock: Arc<dyn Clock>) -> Result<ServeHandle, String> {
    cfg.validate()?;
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;

    let shared = Arc::new(Shared {
        window: Mutex::new(AdmissionWindow::new(cfg.window_cfg())?),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
        metrics: Arc::new(ServeMetrics::new()),
        clock,
        starvation_ns: cfg.starvation_threshold_ns(),
        default_deadline_ns: cfg.default_deadline_ns,
        task_seq: AtomicU32::new(0),
        model: cfg.scoring.model,
    });

    let mut pipeline = Pipeline::new(cfg.scoring, cfg.config.clone());
    pipeline.host_threads = cfg.threads;
    let engine = BatchEngine::with_clock(pipeline, Arc::clone(&shared.clock));

    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || batcher_loop(engine, &shared))
    };
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || acceptor_loop(listener, &shared))
    };
    Ok(ServeHandle { addr, shared, acceptor, batcher })
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || connection_loop(stream, &shared)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
        // Reap finished connection threads so a long-lived daemon doesn't
        // accumulate handles.
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(REPLY_WRITE_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else { return };

    // One cancel flag for the whole connection: a disconnect cancels every
    // request this client still has in flight.
    let cancel = Arc::new(AtomicBool::new(false));

    // Dedicated writer: responses are produced by this reader (errors,
    // rejections) *and* by the batcher thread (completions, drops), so all
    // writes funnel through one channel to keep lines atomic. Each wake
    // sends every reply already queued, whole lines, in one write — a
    // batch's replies to one client leave together — and never waits for a
    // reply not yet produced. A write that fails or times out hangs up on
    // the client: its pending work is cancelled, the shutdown ends the
    // reader below, and leaving the loop drops the receiver — queued
    // replies are freed, later sends fail.
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let writer = {
        let cancel = Arc::clone(&cancel);
        std::thread::spawn(move || {
            let mut out = write_half;
            let mut burst = Vec::new();
            while let Ok(first) = reply_rx.recv() {
                burst.clear();
                for line in std::iter::once(first).chain(reply_rx.try_iter()) {
                    burst.extend_from_slice(line.as_bytes());
                    burst.push(b'\n');
                }
                if out.write_all(&burst).is_err() {
                    cancel.store(true, Ordering::Release);
                    let _ = out.shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
        })
    };

    let mut input = stream;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    'outer: loop {
        if shared.shutdown.load(Ordering::SeqCst) || cancel.load(Ordering::Acquire) {
            break;
        }
        match input.read(&mut chunk) {
            Ok(0) => {
                // Client closed: its pending work is no longer wanted.
                cancel.store(true, Ordering::Release);
                break;
            }
            Ok(n) => {
                // `buf` holds an unterminated line, so a line end can only
                // be among the bytes this read appends — and, once a line is
                // cut off, in what follows it, all of it from this read.
                let mut unscanned = buf.len();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(eol) = buf[unscanned..].iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=unscanned + eol).collect();
                    unscanned = 0;
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    if line.trim().is_empty() {
                        continue;
                    }
                    if handle_line(&line, shared, &reply_tx, &cancel) == Flow::Close {
                        break 'outer;
                    }
                }
                if buf.len() > MAX_REQUEST_LINE {
                    // Not a client of this protocol: answer once and hang
                    // up (resynchronising inside a hostile stream is not
                    // worth a code path); its pending work goes with it.
                    let reason = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                    let _ = reply_tx.send(error_response(None, &reason));
                    cancel.store(true, Ordering::Release);
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                cancel.store(true, Ordering::Release);
                break;
            }
        }
    }
    drop(reply_tx);
    // The writer drains replies already queued (including ones the batcher
    // is still producing through its own sender clones), then exits when
    // the last sender drops.
    let _ = writer.join();
}

#[derive(PartialEq)]
enum Flow {
    Continue,
    Close,
}

fn handle_line(
    line: &str,
    shared: &Arc<Shared>,
    reply_tx: &mpsc::Sender<String>,
    cancel: &Arc<AtomicBool>,
) -> Flow {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            let _ = reply_tx.send(error_response(None, &e));
            return Flow::Continue;
        }
    };
    match req {
        Request::Ping => {
            let _ = reply_tx.send("{\"status\":\"ok\"}".to_string());
        }
        Request::Stats => {
            let _ = reply_tx.send(shared.metrics.snapshot().to_json());
        }
        Request::Shutdown => {
            let _ = reply_tx.send("{\"status\":\"shutting-down\"}".to_string());
            shared.request_shutdown();
            return Flow::Close;
        }
        Request::Align(a) => {
            if shared.shutdown.load(Ordering::SeqCst) {
                shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = reply_tx.send(rejected_response(a.id));
                return Flow::Continue;
            }
            let task = Task::from_strs_model(
                shared.task_seq.fetch_add(1, Ordering::Relaxed),
                &a.reference,
                &a.query,
                &shared.model,
            );
            if let Err(e) = task.admit() {
                let _ = reply_tx.send(error_response(Some(a.id), &e));
                return Flow::Continue;
            }
            let now = shared.clock.now_ns();
            // A client's `deadline_ms` may be any positive i64: saturate, so
            // a far deadline stays far instead of panicking or wrapping.
            let deadline_ns = a
                .deadline_ms
                .map(|ms| now.saturating_add(ms.saturating_mul(1_000_000)))
                .or_else(|| shared.default_deadline_ns.map(|d| now.saturating_add(d)));
            let pending = Pending {
                task,
                deadline_ns,
                enqueued_ns: now,
                ctx: ReqCtx { id: a.id, reply: reply_tx.clone(), cancel: Arc::clone(cancel) },
            };
            let mut window = shared.window.lock().expect("window lock poisoned");
            match window.offer(pending, now) {
                Ok(()) => shared.wake.notify_all(),
                Err(rejected) => {
                    // Bounded-queue backpressure: answer 503 now, while
                    // still holding nothing but the reply channel — the
                    // client sees the rejection without any batch wait.
                    drop(window);
                    shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = rejected.ctx.reply.send(rejected_response(rejected.ctx.id));
                }
            }
        }
    }
    Flow::Continue
}

/// The window's one consumer: harvest, answer, execute, until the shutdown
/// drain has emptied the window.
fn batcher_loop(mut engine: BatchEngine, shared: &Arc<Shared>) {
    let workers = engine.threads();
    while let Some(harvest) = next_harvest(shared, workers) {
        answer_expired(shared, harvest.expired);
        execute_batch(&mut engine, shared, harvest.batch);
    }
}

/// Block until there is something to answer: expired requests, a closed
/// window's batch, or (on shutdown with an empty queue) `None` to exit.
///
/// The batcher runs each batch to completion before it comes back here, so
/// while it waits all `workers` of the engine are idle: once the window holds
/// a request for each of them it closes at once, whether it opened on the
/// idle engine or during the last batch, instead of holding requests an idle
/// worker could already be running. (A full `max_batch` closes it inside the
/// window itself.)
fn next_harvest(shared: &Arc<Shared>, workers: usize) -> Option<Harvest<ReqCtx>> {
    let mut window = shared.window.lock().expect("window lock poisoned");
    loop {
        let now = shared.clock.now_ns();
        if shared.shutdown.load(Ordering::SeqCst) || window.len() >= workers {
            window.force_close(now);
        }
        let harvest = window.collect_due(now);
        if !harvest.batch.is_empty() || !harvest.expired.is_empty() {
            return Some(harvest);
        }
        if shared.shutdown.load(Ordering::SeqCst) && window.is_empty() {
            return None;
        }
        let wait = match window.next_due() {
            Some(due) => Duration::from_nanos(due.saturating_sub(now).max(1)).min(POLL),
            None => POLL,
        };
        let (guard, _timeout) =
            shared.wake.wait_timeout(window, wait).expect("window lock poisoned");
        window = guard;
    }
}

/// Answer window-level expiries: the deadline passed while the request sat
/// in the admission queue; it never reached the engine.
fn answer_expired(shared: &Arc<Shared>, expired: Vec<Pending<ReqCtx>>) {
    for p in expired {
        let now = shared.clock.now_ns();
        let queue_ns = now.saturating_sub(p.enqueued_ns);
        record_drop(shared, queue_ns);
        let _ = p.ctx.reply.send(dropped_response(p.ctx.id, queue_ns / 1_000));
    }
}

/// Dispatch one harvested batch to the engine and answer every request in
/// it. Deadlines and cancel flags are re-checked inside
/// [`BatchEngine::run_tagged`], at each job's dispatch.
fn execute_batch(engine: &mut BatchEngine, shared: &Arc<Shared>, batch: Vec<Pending<ReqCtx>>) {
    let metrics = &shared.metrics;
    if batch.is_empty() {
        return;
    }
    metrics.batches.fetch_add(1, Ordering::Relaxed);
    let mut ctxs = Vec::with_capacity(batch.len());
    let jobs: Vec<(Task, JobMeta)> = batch
        .into_iter()
        .map(|p| {
            let meta = JobMeta {
                enqueued_ns: p.enqueued_ns,
                deadline_ns: p.deadline_ns,
                cancel: Some(Arc::clone(&p.ctx.cancel)),
            };
            ctxs.push((p.ctx, p.enqueued_ns));
            (p.task, meta)
        })
        .collect();
    let outcomes = engine.run_tagged(jobs);
    for (outcome, (ctx, enqueued_ns)) in outcomes.into_iter().zip(ctxs) {
        match outcome {
            JobOutcome::Completed { run, queue_ns, service_ns } => {
                let total_ns = shared.clock.now_ns().saturating_sub(enqueued_ns);
                metrics.completed.fetch_add(1, Ordering::Relaxed);
                metrics.queue.record_ns(queue_ns);
                metrics.service.record_ns(service_ns);
                metrics.total.record_ns(total_ns);
                if queue_ns > shared.starvation_ns {
                    metrics.starved.fetch_add(1, Ordering::Relaxed);
                }
                let _ = ctx.reply.send(ok_response(
                    ctx.id,
                    run.result.score,
                    queue_ns / 1_000,
                    service_ns / 1_000,
                    total_ns / 1_000,
                ));
            }
            JobOutcome::DroppedDeadline { queue_ns } => {
                record_drop(shared, queue_ns);
                let _ = ctx.reply.send(dropped_response(ctx.id, queue_ns / 1_000));
            }
            JobOutcome::Cancelled { queue_ns } => {
                // The client is gone; account for it, nobody to answer.
                metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                metrics.queue.record_ns(queue_ns);
            }
        }
    }
}

fn record_drop(shared: &Arc<Shared>, queue_ns: u64) {
    let metrics = &shared.metrics;
    metrics.dropped_deadline.fetch_add(1, Ordering::Relaxed);
    metrics.queue.record_ns(queue_ns);
    metrics.total.record_ns(queue_ns);
    if queue_ns > shared.starvation_ns {
        metrics.starved.fetch_add(1, Ordering::Relaxed);
    }
}

static TERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_termination_signal(_sig: i32) {
    // Async-signal-safe: a single atomic store.
    TERM_FLAG.store(true, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers (idempotent) and return the flag they
/// set. The CLI polls this to turn a signal into a graceful
/// drain-and-dump shutdown. On non-Unix targets the flag simply never
/// fires. Uses the platform libc `signal` symbol directly — no crates — which
/// makes this the crate's one sanctioned `unsafe` (the FFI call).
#[allow(unsafe_code)]
pub fn termination_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_termination_signal);
            signal(SIGINT, on_termination_signal);
        }
    }
    &TERM_FLAG
}
