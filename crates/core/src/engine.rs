//! The host execution path: one chunk-claim worker loop that every batch,
//! stream chunk and serve request runs through.
//!
//! Guided alignment's workload is long-tailed and unpredictable, so work is
//! claimed dynamically, never dealt out statically (static chunking would
//! recreate on the host exactly the imbalance the paper fixes on the GPU).
//! A chunk of tasks is published once behind an `Arc`; workers claim
//! indices from one atomic counter, run the same per-job body (tagged
//! admission gate → [`run_task_ws`]) on their private [`KernelWorkspace`]
//! scratch, and hand back one batch of `(index, outcome)` per worker per
//! chunk. The calling thread is worker 0; the engine keeps `threads − 1`
//! persistent helper threads for its whole lifetime, so one thread simply
//! means "no helpers" and a chunk of one task never leaves the caller.
//! Outputs are owned: each run allocates its own trace and whoever consumes
//! the run drops it — no memory flows back to the workers.
//!
//! On top of that sits one chunk packer (kernel runs → carry split → warp
//! assignment → simulation → device scheduling). [`Pipeline::align_batch`]
//! is a stream of one chunk; [`BatchEngine::align_stream_with`] keeps only
//! one chunk of runs alive at a time, yields chunk reports as they complete
//! and folds the per-chunk [`KernelStats`] and device schedule
//! incrementally into a [`StreamSummary`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use agatha_align::Task;
use agatha_gpu_sim::sched::SlotSchedule;
use agatha_gpu_sim::{DeviceReport, KernelStats};

use crate::bucketing::{build_warps, carry_split, OrderingStrategy};
use crate::clock::{Clock, SystemClock};
use crate::kernel::{run_task_ws, KernelWorkspace, TaskRun};
use crate::pipeline::{BatchReport, Pipeline};
use crate::prefetch::{ChunkMsg, PrefetchedChunks};

/// Per-request metadata attached to a tagged job: when it entered the
/// queue, when it stops being worth executing, and a kill switch flipped
/// when the requesting client goes away. Times are in the engine clock's
/// nanosecond domain (see [`crate::clock::Clock`]).
#[derive(Debug, Clone, Default)]
pub struct JobMeta {
    /// Clock tick at which the request was admitted (for queue-latency
    /// accounting).
    pub enqueued_ns: u64,
    /// Absolute deadline: a job still undispatched at this tick is dropped
    /// *before* kernel dispatch and reported as such.
    pub deadline_ns: Option<u64>,
    /// Cooperative cancellation: set by the owner (e.g. on client
    /// disconnect) to drop the job before dispatch.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl JobMeta {
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.load(Ordering::Acquire))
    }

    fn expired(&self, now_ns: u64) -> bool {
        self.deadline_ns.is_some_and(|d| now_ns >= d)
    }
}

/// What became of one tagged job. Exactly one outcome is produced per
/// submitted job — dropped and cancelled jobs are *answered*, not lost.
#[derive(Debug)]
pub enum JobOutcome {
    /// Executed; `queue_ns` is time from enqueue to dispatch, `service_ns`
    /// the kernel execution time.
    Completed { run: TaskRun, queue_ns: u64, service_ns: u64 },
    /// Deadline passed while the job was still queued; the kernel was
    /// never dispatched.
    DroppedDeadline { queue_ns: u64 },
    /// Cancel flag was set before dispatch; the kernel was never
    /// dispatched.
    Cancelled { queue_ns: u64 },
}

/// One published chunk: the jobs plus the claim counter every worker draws
/// from.
struct Chunk {
    tasks: Vec<Task>,
    /// Request metadata of a tagged chunk, indexed like `tasks`; empty for
    /// plain batch chunks, whose jobs skip the clock reads and admission
    /// checks entirely.
    metas: Vec<JobMeta>,
    /// Next unclaimed index. Only hands out indices: the jobs reach a
    /// worker through the channel that delivers the chunk and the outcomes
    /// return through the answer channel, so `Relaxed` suffices.
    next: AtomicUsize,
}

/// What one worker did on one chunk: its `(index, outcome)` pairs, or the
/// payload of the panic that stopped it.
type WorkerBatch = std::thread::Result<Vec<(usize, JobOutcome)>>;

/// Everything the calling thread and the helpers share.
struct Shared {
    pipeline: Pipeline,
    clock: Arc<dyn Clock>,
}

impl Shared {
    /// The worker loop: claim indices until the chunk is exhausted. The
    /// whole loop sits inside the panic guard — the admission gate calls a
    /// user-supplied [`Clock`], whose panic must surface on the caller —
    /// and the first panic exhausts the counter so no worker starts another
    /// job of an aborted chunk. The workspace is safe to reuse after a
    /// panic: every run fully reinitialises it.
    fn work(&self, chunk: &Chunk, ws: &mut KernelWorkspace) -> WorkerBatch {
        let batch = catch_unwind(AssertUnwindSafe(|| {
            let mut done = Vec::new();
            loop {
                let idx = chunk.next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = chunk.tasks.get(idx) else { break };
                done.push((idx, self.run_job(ws, task, chunk.metas.get(idx))));
            }
            done
        }));
        if batch.is_err() {
            chunk.next.store(chunk.tasks.len(), Ordering::Relaxed);
        }
        batch
    }

    fn run_job(&self, ws: &mut KernelWorkspace, task: &Task, meta: Option<&JobMeta>) -> JobOutcome {
        // Admission gate for tagged jobs: a cancelled or deadline-expired
        // request must never reach kernel dispatch — checked here, at the
        // last moment before execution.
        let mut timing = None;
        if let Some(m) = meta {
            let now = self.clock.now_ns();
            let queue_ns = now.saturating_sub(m.enqueued_ns);
            if m.cancelled() {
                return JobOutcome::Cancelled { queue_ns };
            }
            if m.expired(now) {
                return JobOutcome::DroppedDeadline { queue_ns };
            }
            timing = Some((now, queue_ns));
        }
        let run = run_task_ws(ws, task, &self.pipeline.scoring, &self.pipeline.config);
        let (queue_ns, service_ns) = match timing {
            Some((start, queue_ns)) => (queue_ns, self.clock.now_ns().saturating_sub(start)),
            None => (0, 0),
        };
        JobOutcome::Completed { run, queue_ns, service_ns }
    }
}

/// A persistent alignment worker pool for one [`Pipeline`] configuration:
/// the calling thread plus `threads − 1` helper threads.
///
/// Dropping the engine shuts the pool down and joins every helper.
pub struct BatchEngine {
    shared: Arc<Shared>,
    /// Worker 0's workspace: the calling thread claims jobs like any helper.
    ws: KernelWorkspace,
    /// One chunk channel per helper, so a chunk wakes exactly as many
    /// helpers as it can occupy.
    helpers: Vec<(Sender<Arc<Chunk>>, JoinHandle<()>)>,
    /// Where every woken helper answers, once per chunk.
    done_rx: Receiver<WorkerBatch>,
}

impl BatchEngine {
    /// Spawn the pool (`pipeline.host_threads` workers, or all available
    /// cores when 0, counting the calling thread). Each worker owns one
    /// [`KernelWorkspace`] for its entire lifetime. Deadlines are evaluated
    /// against the real monotonic clock; use [`BatchEngine::with_clock`] to
    /// inject a test clock.
    pub fn new(pipeline: Pipeline) -> BatchEngine {
        BatchEngine::with_clock(pipeline, Arc::new(SystemClock::new()))
    }

    /// [`BatchEngine::new`] with an explicit time source for the tagged-job
    /// deadline checks (tests pass [`crate::clock::MockClock`]).
    pub fn with_clock(pipeline: Pipeline, clock: Arc<dyn Clock>) -> BatchEngine {
        let helper_count = pipeline.worker_threads().max(1) - 1;
        let shared = Arc::new(Shared { pipeline, clock });
        let (done_tx, done_rx) = channel();
        let helpers = (0..helper_count)
            .map(|_| {
                let (chunk_tx, chunk_rx) = channel::<Arc<Chunk>>();
                let shared = Arc::clone(&shared);
                let done_tx = done_tx.clone();
                let handle = std::thread::spawn(move || {
                    let mut ws = KernelWorkspace::new();
                    while let Ok(chunk) = chunk_rx.recv() {
                        let batch = shared.work(&chunk, &mut ws);
                        // Let go of the chunk before answering: the caller
                        // takes the task buffer back once everyone has.
                        drop(chunk);
                        if done_tx.send(batch).is_err() {
                            break;
                        }
                    }
                });
                (chunk_tx, handle)
            })
            .collect();
        BatchEngine { shared, ws: KernelWorkspace::new(), helpers, done_rx }
    }

    /// The pipeline configuration this engine serves.
    pub fn pipeline(&self) -> &Pipeline {
        &self.shared.pipeline
    }

    /// Worker threads in the pool, the calling thread included.
    pub fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// The one dispatch primitive: publish `tasks` (with `metas` either
    /// empty or one per task) as a chunk, work on it alongside as many
    /// helpers as it can occupy, and return one outcome per job in input
    /// order — worker interleaving never changes the output. `tasks` is
    /// left empty with its capacity intact, so an inline stream reuses one
    /// chunk buffer throughout.
    ///
    /// A panic in any worker is re-raised here with its original payload,
    /// after every woken helper has answered: nothing of an aborted chunk
    /// is left in flight and the engine stays usable.
    fn dispatch(&mut self, tasks: &mut Vec<Task>, metas: Vec<JobMeta>) -> Vec<JobOutcome> {
        let count = tasks.len();
        debug_assert!(metas.is_empty() || metas.len() == count, "one meta per tagged task");
        let chunk =
            Arc::new(Chunk { tasks: std::mem::take(tasks), metas, next: AtomicUsize::new(0) });
        let woken = self.helpers.len().min(count.saturating_sub(1));
        for (chunk_tx, _) in &self.helpers[..woken] {
            chunk_tx.send(Arc::clone(&chunk)).expect("helper threads live until drop");
        }
        let own = self.shared.work(&chunk, &mut self.ws);
        let answers: Vec<WorkerBatch> =
            (0..woken).map(|_| self.done_rx.recv().expect("every woken helper answers")).collect();
        let mut out: Vec<Option<JobOutcome>> = (0..count).map(|_| None).collect();
        for batch in std::iter::once(own).chain(answers) {
            match batch {
                Ok(done) => done.into_iter().for_each(|(idx, outcome)| out[idx] = Some(outcome)),
                Err(payload) => resume_unwind(payload),
            }
        }
        let chunk = Arc::into_inner(chunk).expect("helpers drop the chunk before answering");
        *tasks = chunk.tasks;
        tasks.clear();
        out.into_iter().map(|o| o.expect("every job answered")).collect()
    }

    /// Execute one chunk of owned tasks on the pool, returning the runs in
    /// input order.
    pub fn run_tasks(&mut self, mut tasks: Vec<Task>) -> Vec<TaskRun> {
        self.run_chunk(&mut tasks)
    }

    fn run_chunk(&mut self, tasks: &mut Vec<Task>) -> Vec<TaskRun> {
        self.dispatch(tasks, Vec::new())
            .into_iter()
            .map(|outcome| match outcome {
                JobOutcome::Completed { run, .. } => run,
                // Untagged jobs carry no deadline or cancel flag, so no
                // other outcome is reachable.
                other => unreachable!("untagged job produced {other:?}"),
            })
            .collect()
    }

    /// Execute owned tasks with per-request [`JobMeta`] (deadline,
    /// cancellation, enqueue tick), returning one [`JobOutcome`] per job in
    /// input order: every job is answered exactly once — completed,
    /// deadline-dropped, or cancelled — never lost. Dropped and cancelled
    /// jobs never reach kernel dispatch.
    pub fn run_tagged(&mut self, jobs: Vec<(Task, JobMeta)>) -> Vec<JobOutcome> {
        let (mut tasks, metas) = jobs.into_iter().unzip();
        self.dispatch(&mut tasks, metas)
    }

    /// Align one owned chunk end to end (kernel runs → warp assignment →
    /// simulation → device scheduling) on its own: nothing is carried in or
    /// out. This is [`Pipeline::align_batch_with_strategy`] on a live
    /// engine.
    pub fn align_chunk(&mut self, mut tasks: Vec<Task>, strategy: OrderingStrategy) -> BatchReport {
        self.align_chunk_carry(&mut tasks, &mut Vec::new(), true, strategy)
    }

    /// The one chunk packer. All arrived tasks execute (and their
    /// results/stats report) immediately; runs that would seed an underfull
    /// trailing warp join `carry` instead of being packed, and enter the
    /// *next* chunk's largest-first fill. With `flush` the whole pool
    /// packs, draining the carry deterministically — at stream end, and for
    /// [`BatchEngine::align_chunk`], which packs a chunk alone. Kernel
    /// results and stats are packing-independent, so carry-over only ever
    /// changes the simulated warp schedule.
    fn align_chunk_carry(
        &mut self,
        arrived: &mut Vec<Task>,
        carry: &mut Vec<CarrySlot>,
        flush: bool,
        strategy: OrderingStrategy,
    ) -> BatchReport {
        // A-priori workload estimate: number of anti-diagonals (§5.6).
        let arrived_workloads: Vec<u64> = arrived.iter().map(|t| t.antidiags() as u64).collect();
        let runs = self.run_chunk(arrived);
        let pipeline = &self.shared.pipeline;
        let cfg = &pipeline.config;
        let mut stats = KernelStats::new();
        let mut results = Vec::with_capacity(runs.len());
        for r in &runs {
            stats.add(&r.stats(cfg.subwarp_lanes, cfg, &pipeline.cost));
            results.push(r.result.clone());
        }
        // Packing pool: carried-over runs first (they have waited longest),
        // then this chunk's runs in arrival order.
        let mut pool = std::mem::take(carry);
        pool.extend(
            runs.into_iter()
                .zip(arrived_workloads)
                .map(|(run, workload)| CarrySlot { run, workload }),
        );
        let capacity = cfg.subwarps_per_warp() * cfg.tasks_per_subwarp;
        let (packed, deferred) = if flush {
            (pool, Vec::new())
        } else {
            let pool_workloads: Vec<u64> = pool.iter().map(|s| s.workload).collect();
            let (_, defer) = carry_split(&pool_workloads, capacity);
            let mut deferred_flag = vec![false; pool.len()];
            for &i in &defer {
                deferred_flag[i] = true;
            }
            let mut packed = Vec::with_capacity(pool.len() - defer.len());
            let mut deferred = Vec::with_capacity(defer.len());
            for (slot, flag) in pool.into_iter().zip(deferred_flag) {
                if flag {
                    deferred.push(slot);
                } else {
                    packed.push(slot);
                }
            }
            (packed, deferred)
        };
        *carry = deferred;
        let packed_workloads: Vec<u64> = packed.iter().map(|s| s.workload).collect();
        let warps = build_warps(
            &packed_workloads,
            cfg.subwarps_per_warp(),
            cfg.tasks_per_subwarp,
            strategy,
        );
        let packed_runs: Vec<TaskRun> = packed.into_iter().map(|s| s.run).collect();
        let (warp_cycles, subwarp_blocks) = pipeline.simulate_warps(&packed_runs, &warps);
        let (devices, device) = pipeline.schedule_devices(&warp_cycles);
        BatchReport {
            results,
            elapsed_ms: pipeline.spec.cycles_to_ms(device.makespan_cycles),
            device,
            devices,
            stats,
            warp_cycles,
            subwarp_blocks,
        }
    }

    /// Shell: always 0. The engine parks no buffers — each run owns its
    /// trace — and this survives only because the frozen `benchmark/` reads
    /// it; it goes when the benchmark stops reading it.
    pub fn recycled_buffers(&self) -> usize {
        0
    }

    /// Stream an in-memory task iterator through the pool in chunks of
    /// `opts`' chunk size, driven on the calling thread (fallible sources
    /// such as FASTA go through [`BatchEngine::align_stream_prefetched`]).
    /// Only one chunk of tasks and runs is in memory at a time; iterate the
    /// returned [`StreamRun`] for per-chunk reports, then call
    /// [`StreamRun::finish`] for the folded totals. Every chunk packs with
    /// carry-over, so on one GPU steady-state memory is one chunk of tasks
    /// and runs plus at most one warp's worth of carried runs plus
    /// O(warp slots) schedule state — independent of stream length.
    ///
    /// With a chunk size larger than the stream, the chunk reports' warp
    /// latencies and the summary's device schedule are bit-identical to
    /// [`Pipeline::align_batch`]'s (at exactly the stream's length the
    /// trailing underfull warp is deferred into a carry-only flush chunk).
    pub fn align_stream_with<I>(
        &mut self,
        tasks: I,
        opts: StreamOptions,
    ) -> StreamRun<'_, I::IntoIter>
    where
        I: IntoIterator<Item = Task>,
    {
        self.stream_run(ChunkSource::Inline(tasks.into_iter()), opts)
    }

    /// Stream from a fallible task source with a bounded prefetch stage: a
    /// reader thread drives `source` and parses ahead of kernel execution,
    /// keeping at most `prefetch_depth` chunks queued (backpressure blocks
    /// the reader beyond that, so memory stays bounded at
    /// `prefetch_depth + 2` chunks in flight plus the carry/schedule state
    /// of [`BatchEngine::align_stream_with`]).
    ///
    /// A source error ends the stream at the task where it occurred: tasks
    /// parsed before it still execute and report, iteration then stops, and
    /// [`StreamRun::finish_checked`] returns a [`StreamError`] naming the
    /// chunk and task offset. The reader thread never panics the process
    /// for a source error.
    ///
    /// # Panics
    ///
    /// `prefetch_depth == 0` is a usage error — an in-memory source goes
    /// through [`BatchEngine::align_stream_with`].
    pub fn align_stream_prefetched<S>(
        &mut self,
        source: S,
        prefetch_depth: usize,
        opts: StreamOptions,
    ) -> StreamRun<'_, std::iter::Empty<Task>>
    where
        S: Iterator<Item = Result<Task, String>> + Send + 'static,
    {
        assert!(
            prefetch_depth >= 1,
            "prefetch_depth must be at least 1 (use align_stream_with for a synchronous stream)"
        );
        let pf = PrefetchedChunks::spawn(source, opts.chunk_size, prefetch_depth);
        self.stream_run(ChunkSource::Prefetched(pf), opts)
    }

    fn stream_run<I: Iterator<Item = Task>>(
        &mut self,
        source: ChunkSource<I>,
        opts: StreamOptions,
    ) -> StreamRun<'_, I> {
        let pipeline = &self.shared.pipeline;
        let schedule = if pipeline.gpus == 1 {
            StreamSchedule::Pooled(SlotSchedule::new(pipeline.spec.warp_slots()))
        } else {
            StreamSchedule::Retained(Vec::new())
        };
        let strategy = pipeline.default_strategy();
        let buf = Vec::with_capacity(opts.chunk_size.min(STREAM_BUF_RESERVE));
        StreamRun {
            engine: self,
            source,
            chunk_size: opts.chunk_size,
            strategy,
            buf,
            carry: Vec::new(),
            offset: 0,
            chunks: 0,
            stats: KernelStats::new(),
            schedule,
            error: None,
            source_done: false,
        }
    }
}

/// Initial capacity clamp for the reusable stream chunk buffer: a
/// whole-stream-sized `chunk_size` grows organically instead of reserving
/// it all up front.
const STREAM_BUF_RESERVE: usize = 8192;

/// A run executed but not yet packed into a warp: deferred from the chunk
/// it arrived in so it can join a later chunk's largest-first fill instead
/// of seeding an underfull trailing warp.
struct CarrySlot {
    run: TaskRun,
    /// A-priori workload estimate (anti-diagonals), cached from the task.
    workload: u64,
}

/// The configuration of a stream ([`BatchEngine::align_stream_with`] /
/// [`BatchEngine::align_stream_prefetched`]): its chunk size, which is at
/// least 1. Nothing else is configurable — every stream packs its warps
/// with carry-over.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    chunk_size: usize,
}

impl StreamOptions {
    /// A stream of `chunk_size` tasks per chunk.
    ///
    /// # Panics
    ///
    /// `chunk_size == 0` is a usage error.
    pub fn new(chunk_size: usize) -> StreamOptions {
        assert!(chunk_size >= 1, "stream chunk_size must be at least 1 (got 0)");
        StreamOptions { chunk_size }
    }
}

/// How a stream folds its warps into the device schedule.
enum StreamSchedule {
    /// One GPU: the pooled slot schedule, extended chunk by chunk in
    /// O(warp slots) memory.
    Pooled(SlotSchedule),
    /// Several GPUs: the split is contiguous over the *whole* stream's
    /// warps, so every latency is retained until the stream ends.
    Retained(Vec<f64>),
}

/// Where a [`StreamRun`] draws its chunks from.
enum ChunkSource<I> {
    /// The caller's iterator, driven synchronously on this thread.
    Inline(I),
    /// A prefetch reader thread parsing ahead of execution.
    Prefetched(PrefetchedChunks),
}

/// A stream source failure (e.g. malformed FASTA mid-stream), attributed
/// to the chunk and task offset where it occurred. Tasks before the error
/// were executed and reported normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// Index of the chunk the error occurred in (0-based; the chunk the
    /// failing task would have belonged to).
    pub chunk: usize,
    /// Stream-wide index of the task at which the source failed.
    pub offset: usize,
    /// The source's error message.
    pub message: String,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stream source failed in chunk {} (task offset {}): {}",
            self.chunk, self.offset, self.message
        )
    }
}

impl std::error::Error for StreamError {}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        // Closing a helper's chunk channel makes its recv fail and exit.
        for (chunk_tx, handle) in self.helpers.drain(..) {
            drop(chunk_tx);
            let _ = handle.join();
        }
    }
}

/// One chunk's worth of output from [`BatchEngine::align_stream_with`].
#[derive(Debug, Clone)]
pub struct ChunkReport {
    /// Index of the chunk's first task within the stream.
    pub offset: usize,
    /// Full batch report for the chunk alone.
    pub report: BatchReport,
}

/// Folded totals of a finished stream.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Tasks processed.
    pub tasks: usize,
    /// Chunks processed (including a final carry-flush chunk, if any).
    pub chunks: usize,
    /// Aggregate execution statistics (identical to a whole-batch run's).
    pub stats: KernelStats,
    /// Straggler-device schedule of all the stream's warps as one pooled
    /// submission sequence on the configured device(s) — a chunk's warps
    /// may start in slots freed mid-way through the previous chunk, which
    /// is why a chunk size larger than the stream reproduces `align_batch`
    /// exactly. The warps' latencies are in the chunk reports
    /// ([`BatchReport::warp_cycles`]), in submission order.
    pub device: DeviceReport,
    /// Simulated kernel time of the whole stream in milliseconds.
    pub elapsed_ms: f64,
}

/// Lazy chunk-by-chunk driver returned by [`BatchEngine::align_stream_with`]
/// and [`BatchEngine::align_stream_prefetched`].
pub struct StreamRun<'e, I: Iterator<Item = Task>> {
    engine: &'e mut BatchEngine,
    source: ChunkSource<I>,
    chunk_size: usize,
    strategy: OrderingStrategy,
    /// The chunk to run next: an inline source refills it in place after
    /// the engine drains it; a prefetched stream replaces it with each chunk
    /// the reader parsed.
    buf: Vec<Task>,
    /// Runs deferred by the carry-over bucket, awaiting a later pack.
    carry: Vec<CarrySlot>,
    offset: usize,
    chunks: usize,
    stats: KernelStats,
    schedule: StreamSchedule,
    error: Option<StreamError>,
    source_done: bool,
}

impl<I: Iterator<Item = Task>> StreamRun<'_, I> {
    /// Pull up to `chunk_size` tasks into `buf`, setting `source_done` (and
    /// `error`) when the source ends.
    fn fill_buf(&mut self) {
        if self.source_done {
            return;
        }
        debug_assert!(self.buf.is_empty(), "chunk buffer drained each iteration");
        match &mut self.source {
            ChunkSource::Inline(tasks) => {
                while self.buf.len() < self.chunk_size {
                    match tasks.next() {
                        Some(t) => self.buf.push(t),
                        None => {
                            self.source_done = true;
                            break;
                        }
                    }
                }
            }
            ChunkSource::Prefetched(pf) => {
                let mut terminal = match pf.next_msg() {
                    ChunkMsg::Chunk(chunk) => {
                        self.buf = chunk;
                        // A partial chunk is always the last: resolve its
                        // terminator now (the reader sent it right behind)
                        // so this chunk can flush the carry.
                        (self.buf.len() < self.chunk_size).then(|| pf.next_msg())
                    }
                    msg => Some(msg),
                };
                match terminal.take() {
                    None => {}
                    Some(ChunkMsg::Done) => self.source_done = true,
                    Some(ChunkMsg::Failed(message)) => {
                        self.source_done = true;
                        self.error = Some(StreamError {
                            chunk: self.chunks,
                            offset: self.offset + self.buf.len(),
                            message,
                        });
                    }
                    Some(ChunkMsg::Chunk(_)) => {
                        unreachable!("prefetch protocol: a partial chunk is terminal")
                    }
                }
            }
        }
    }
}

impl<I: Iterator<Item = Task>> Iterator for StreamRun<'_, I> {
    type Item = ChunkReport;

    fn next(&mut self) -> Option<ChunkReport> {
        self.fill_buf();
        if self.buf.is_empty() && (self.carry.is_empty() || !self.source_done) {
            // Nothing arrived and nothing to flush (an empty carry, or a
            // source that merely hasn't ended — unreachable for well-formed
            // sources, which never yield an empty non-final chunk).
            return None;
        }
        let offset = self.offset;
        self.offset += self.buf.len();
        self.chunks += 1;
        // The final chunk (or a trailing carry-only chunk) packs the whole
        // pool.
        let flush = self.source_done;
        let report =
            self.engine.align_chunk_carry(&mut self.buf, &mut self.carry, flush, self.strategy);
        self.stats.add(&report.stats);
        match &mut self.schedule {
            StreamSchedule::Pooled(sched) => sched.extend(&report.warp_cycles),
            StreamSchedule::Retained(cycles) => cycles.extend_from_slice(&report.warp_cycles),
        }
        Some(ChunkReport { offset, report })
    }
}

impl<I: Iterator<Item = Task>> StreamRun<'_, I> {
    /// Drain any unprocessed chunks, then fold the totals. The final device
    /// schedule treats all warps of the stream as one submission sequence on
    /// the pipeline's device(s).
    ///
    /// # Panics
    ///
    /// Panics if the stream's source failed mid-stream; sources that can
    /// fail (see [`BatchEngine::align_stream_prefetched`]) should use
    /// [`StreamRun::finish_checked`].
    pub fn finish(self) -> StreamSummary {
        self.finish_checked()
            .unwrap_or_else(|e| panic!("{e}; use finish_checked to handle stream source errors"))
    }

    /// [`StreamRun::finish`] surfacing a mid-stream source failure as a
    /// [`StreamError`] instead of a panic. Tasks that arrived before the
    /// failure were fully executed and reported through iteration either
    /// way; the engine is left clean and reusable.
    pub fn finish_checked(mut self) -> Result<StreamSummary, StreamError> {
        while self.next().is_some() {}
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        let pipeline = self.engine.pipeline();
        let device = match &self.schedule {
            StreamSchedule::Pooled(sched) => sched.report(),
            StreamSchedule::Retained(cycles) => pipeline.schedule_devices(cycles).1,
        };
        Ok(StreamSummary {
            tasks: self.offset,
            chunks: self.chunks,
            stats: std::mem::replace(&mut self.stats, KernelStats::new()),
            elapsed_ms: pipeline.spec.cycles_to_ms(device.makespan_cycles),
            device,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::AgathaConfig;
    use agatha_align::Scoring;

    fn mk_tasks(count: usize, len_base: usize, seed: u64) -> Vec<Task> {
        let mut tasks = Vec::new();
        let mut x = seed | 1;
        for id in 0..count {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let len = len_base + (x >> 33) as usize % len_base;
            let mut r = String::new();
            let mut q = String::new();
            for k in 0..len {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
                r.push(c);
                q.push(if k % 19 == 0 { 'T' } else { c });
            }
            tasks.push(Task::from_strs(id as u32, &r, &q));
        }
        tasks
    }

    fn pipeline() -> Pipeline {
        Pipeline::new(Scoring::new(2, 4, 4, 2, 60, 16), AgathaConfig::agatha())
    }

    fn pipeline_on(threads: usize) -> Pipeline {
        let mut p = pipeline();
        p.host_threads = threads;
        p
    }

    fn align_chunk(engine: &mut BatchEngine, tasks: Vec<Task>) -> BatchReport {
        let strategy = engine.pipeline().default_strategy();
        engine.align_chunk(tasks, strategy)
    }

    #[test]
    fn chunked_stream_matches_whole_batch() {
        let tasks = mk_tasks(30, 110, 41);
        let whole = pipeline().align_batch(&tasks);
        for chunk_size in [1, 7, 30, 64] {
            let mut engine = pipeline().engine();
            let mut results = Vec::new();
            let mut run =
                engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(chunk_size));
            for chunk in run.by_ref() {
                assert_eq!(chunk.offset, results.len());
                results.extend(chunk.report.results);
            }
            let summary = run.finish();
            assert_eq!(results, whole.results, "chunk_size {chunk_size}");
            assert_eq!(summary.stats, whole.stats, "chunk_size {chunk_size}");
            assert_eq!(summary.tasks, tasks.len());
        }
    }

    #[test]
    fn whole_stream_is_bit_identical_including_schedule() {
        // One chunk larger than the stream — even the warp latencies and the
        // device schedule must match align_batch exactly, on one GPU (the
        // pooled schedule) and on several (the retained latencies).
        let tasks = mk_tasks(18, 90, 7);
        for gpus in [1, 3] {
            let whole = pipeline().with_gpus(gpus).align_batch(&tasks);
            let mut engine = pipeline().with_gpus(gpus).engine();
            let opts = StreamOptions::new(tasks.len() + 1);
            let mut run = engine.align_stream_with(tasks.iter().cloned(), opts);
            let cycles: Vec<f64> = run.by_ref().flat_map(|c| c.report.warp_cycles).collect();
            let summary = run.finish();
            assert_eq!(cycles, whole.warp_cycles, "{gpus} GPUs");
            assert_eq!(summary.device, whole.device, "{gpus} GPUs");
            assert_eq!(summary.elapsed_ms, whole.elapsed_ms, "{gpus} GPUs");
            assert_eq!(summary.chunks, 1, "{gpus} GPUs");
        }
    }

    #[test]
    fn engine_survives_many_chunks() {
        let mut engine = pipeline().engine();
        let tasks = mk_tasks(12, 70, 3);
        let a = align_chunk(&mut engine, tasks.clone());
        let b = align_chunk(&mut engine, tasks.clone());
        assert_eq!(a.results, b.results);
        let c = align_chunk(&mut engine, Vec::new());
        assert!(c.results.is_empty());
        assert_eq!(c.elapsed_ms, 0.0);
    }

    #[test]
    fn empty_stream() {
        let mut engine = pipeline().engine();
        let summary = engine.align_stream_with(std::iter::empty(), StreamOptions::new(8)).finish();
        assert_eq!(summary.tasks, 0);
        assert_eq!(summary.chunks, 0);
        assert_eq!(summary.elapsed_ms, 0.0);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be at least 1")]
    fn zero_chunk_size_is_a_usage_error() {
        let mut engine = pipeline().engine();
        let _ = engine.align_stream_with(mk_tasks(3, 40, 5), StreamOptions::new(0));
    }

    #[test]
    fn carry_over_results_and_stats_stay_bit_identical() {
        // Carry-over re-shapes warp packing only; results and aggregate
        // stats must equal align_batch exactly at every chunk size.
        let tasks = mk_tasks(29, 100, 23);
        let whole = pipeline().align_batch(&tasks);
        for chunk_size in [1, 5, 8, 29, 64] {
            let mut engine = pipeline().engine();
            let mut results = Vec::new();
            let mut run =
                engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(chunk_size));
            for chunk in run.by_ref() {
                assert_eq!(chunk.offset, results.len(), "chunk_size {chunk_size}");
                results.extend(chunk.report.results);
            }
            let summary = run.finish();
            assert_eq!(results, whole.results, "chunk_size {chunk_size}");
            assert_eq!(summary.stats, whole.stats, "chunk_size {chunk_size}");
            assert_eq!(summary.tasks, tasks.len());
        }
    }

    #[test]
    fn carry_over_defers_the_trailing_underfull_warp() {
        // Default capacity is subwarps_per_warp × tasks_per_subwarp = 8.
        // 13 tasks in a chunk → 5 would seed an underfull warp; with carry
        // the first chunk packs exactly one full warp and the flush packs
        // the rest.
        let tasks = mk_tasks(13, 80, 31);
        let mut engine = pipeline().engine();
        let cfg = &engine.pipeline().config;
        let capacity = cfg.subwarps_per_warp() * cfg.tasks_per_subwarp;
        assert_eq!(capacity, 8, "test assumes the paper's default geometry");
        let mut run = engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(13));
        let first = run.next().expect("one chunk of tasks");
        assert_eq!(first.report.results.len(), 13, "all arrived results report at once");
        assert_eq!(first.report.warp_cycles.len(), 1, "only the full warp packs");
        let flush = run.next().expect("stream end flushes the carry");
        assert!(flush.report.results.is_empty(), "flush chunk re-emits nothing");
        assert_eq!(flush.report.warp_cycles.len(), 1, "5 deferred tasks pack one warp");
        assert!(run.next().is_none());
        let summary = run.finish();
        assert_eq!(summary.tasks, 13);
        assert_eq!(summary.chunks, 2);
    }

    #[test]
    fn carry_over_reduces_trailing_warp_count() {
        // 4 chunks of 13 tasks: each packed alone takes ceil(13/8) = 2 warps
        // (8 in all, 4 underfull); the stream packs full warps throughout
        // and only the flush may run short.
        let tasks = mk_tasks(52, 70, 37);
        let mut engine = pipeline().engine();
        let mut alone_stats = KernelStats::new();
        let mut alone_warps = Vec::new();
        for slice in tasks.chunks(13) {
            let report = align_chunk(&mut engine, slice.to_vec());
            alone_stats.add(&report.stats);
            alone_warps.push(report.warp_cycles.len());
        }
        let mut run = engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(13));
        let stream_warps: usize = run.by_ref().map(|c| c.report.warp_cycles.len()).sum();
        let summary = run.finish();
        assert_eq!(alone_warps, vec![2, 2, 2, 2]);
        // 52 tasks = 6 full warps + one flush warp of the last 4.
        assert_eq!(stream_warps, 7);
        assert_eq!(summary.stats, alone_stats);
        // No makespan direction assert: with 7–8 warps on a device whose
        // slots exceed them, makespan is just the max warp latency and
        // fuller warps run longer. The carry-over win is a saturated-device
        // property this small stream cannot show.
    }

    #[test]
    fn prefetched_stream_matches_inline() {
        // Chunk 41 ends the stream on a full chunk of 5 warps + 1 task: that
        // task is deferred into a carry-only flush chunk.
        let tasks = mk_tasks(41, 90, 43);
        for chunk_size in [4, 16, 41, 64] {
            let mut inline_results = Vec::new();
            let inline_summary = {
                let mut engine = pipeline().engine();
                let mut run =
                    engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(chunk_size));
                for chunk in run.by_ref() {
                    inline_results.extend(chunk.report.results);
                }
                run.finish()
            };
            if chunk_size == tasks.len() {
                assert_eq!(inline_summary.chunks, 2, "one full chunk, then the carry flush");
            }
            for depth in [2, 4] {
                let what = format!("chunk_size {chunk_size}, prefetch {depth}");
                let mut pf_results = Vec::new();
                let pf_summary = {
                    let mut engine = pipeline().engine();
                    let source = tasks.clone().into_iter().map(Ok::<Task, String>);
                    let mut run = engine.align_stream_prefetched(
                        source,
                        depth,
                        StreamOptions::new(chunk_size),
                    );
                    for chunk in run.by_ref() {
                        pf_results.extend(chunk.report.results);
                    }
                    run.finish_checked().expect("no source errors")
                };
                assert_eq!(pf_results, inline_results, "{what}");
                assert_eq!(pf_summary.stats, inline_summary.stats, "{what}");
                assert_eq!(pf_summary.device, inline_summary.device, "{what}");
                assert_eq!(pf_summary.tasks, inline_summary.tasks, "{what}");
                assert_eq!(pf_summary.chunks, inline_summary.chunks, "{what}");
            }
        }
    }

    #[test]
    fn incremental_schedule_matches_recorded_cycles() {
        // The summary's device report must be what pooling the chunk
        // reports' latencies would give.
        let tasks = mk_tasks(33, 85, 47);
        let mut engine = pipeline().engine();
        let mut run = engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(6));
        let cycles: Vec<f64> = run.by_ref().flat_map(|c| c.report.warp_cycles).collect();
        let summary = run.finish();
        assert!(!cycles.is_empty());
        let (_, pooled) = engine.pipeline().schedule_devices(&cycles);
        assert_eq!(summary.device, pooled);
    }

    #[test]
    fn source_error_surfaces_on_the_right_chunk_and_drains_cleanly() {
        let tasks = mk_tasks(7, 60, 53);
        let reference = pipeline().align_batch(&tasks);
        let mut engine = pipeline().engine();
        let source = tasks
            .into_iter()
            .map(Ok::<Task, String>)
            .chain(std::iter::once(Err("synthetic parse failure".to_string())));
        let mut results = Vec::new();
        let mut run = engine.align_stream_prefetched(source, 2, StreamOptions::new(3));
        for chunk in run.by_ref() {
            results.extend(chunk.report.results);
        }
        // Every task that parsed before the error executed and reported.
        assert_eq!(results, reference.results);
        let err = run.finish_checked().expect_err("the source failed");
        // 7 tasks at chunk 3 → chunks 0 and 1 full, the error hit while
        // filling chunk 2, after stream-wide task 7.
        assert_eq!(err.chunk, 2);
        assert_eq!(err.offset, 7);
        assert_eq!(err.message, "synthetic parse failure");
        assert!(err.to_string().contains("chunk 2"), "{err}");
        // The engine stays clean and reusable after a failed stream.
        let again = align_chunk(&mut engine, mk_tasks(7, 60, 53));
        assert_eq!(again.results, reference.results);
    }

    #[test]
    fn immediate_source_error_yields_no_chunks() {
        let mut engine = pipeline().engine();
        let source = std::iter::once(Err::<Task, String>("broken header".to_string()));
        let mut run = engine.align_stream_prefetched(source, 1, StreamOptions::new(8));
        assert!(run.next().is_none());
        let err = run.finish_checked().expect_err("the source failed");
        assert_eq!((err.chunk, err.offset), (0, 0));
    }

    #[test]
    #[should_panic(expected = "use finish_checked")]
    fn plain_finish_panics_on_source_error() {
        let mut engine = pipeline().engine();
        let source = std::iter::once(Err::<Task, String>("boom".to_string()));
        let _ = engine.align_stream_prefetched(source, 1, StreamOptions::new(8)).finish();
    }

    #[test]
    fn stream_buffer_is_reused_across_chunks() {
        // The chunk buffer is drained in place each iteration; dropping a
        // half-consumed run must not leak carried runs or break the engine.
        let tasks = mk_tasks(20, 70, 59);
        let mut engine = pipeline().engine();
        {
            let mut run = engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(6));
            let _ = run.next();
            let _ = run.next();
            // Dropped mid-stream: carried runs just drop with it.
        }
        let rep = align_chunk(&mut engine, tasks.clone());
        assert_eq!(rep.results.len(), 20);
    }

    use crate::clock::MockClock;

    fn tagged_engine_on(threads: usize) -> (BatchEngine, Arc<MockClock>) {
        let clock = Arc::new(MockClock::new());
        (BatchEngine::with_clock(pipeline_on(threads), clock.clone()), clock)
    }

    #[test]
    fn cancelled_jobs_never_reach_kernel_dispatch() {
        // The gate runs on whichever worker claims the job — with one thread,
        // on the caller itself.
        for threads in [1, 2] {
            let (mut engine, _clock) = tagged_engine_on(threads);
            let cancel = Arc::new(AtomicBool::new(true));
            let jobs: Vec<(Task, JobMeta)> = mk_tasks(8, 60, 11)
                .into_iter()
                .map(|t| {
                    (
                        t,
                        JobMeta {
                            enqueued_ns: 0,
                            deadline_ns: None,
                            cancel: Some(Arc::clone(&cancel)),
                        },
                    )
                })
                .collect();
            let outcomes = engine.run_tagged(jobs);
            assert_eq!(outcomes.len(), 8);
            assert!(outcomes.iter().all(|o| matches!(o, JobOutcome::Cancelled { .. })));
        }
    }

    #[test]
    fn expired_deadlines_drop_before_dispatch() {
        // The gate runs on whichever worker claims the job — with one thread,
        // on the caller itself.
        for threads in [1, 2] {
            let (mut engine, clock) = tagged_engine_on(threads);
            clock.set_ns(5_000_000);
            let tasks = mk_tasks(6, 60, 13);
            let jobs: Vec<(Task, JobMeta)> = tasks
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, t)| {
                    // Even indices expired 1ms ago; odd ones have 10ms left.
                    let deadline = if i % 2 == 0 { 4_000_000 } else { 15_000_000 };
                    (
                        t,
                        JobMeta {
                            enqueued_ns: 1_000_000,
                            deadline_ns: Some(deadline),
                            cancel: None,
                        },
                    )
                })
                .collect();
            let outcomes = engine.run_tagged(jobs);
            assert_eq!(outcomes.len(), tasks.len());
            let reference = pipeline().align_batch(&tasks);
            for (i, o) in outcomes.iter().enumerate() {
                match o {
                    JobOutcome::DroppedDeadline { queue_ns } => {
                        assert_eq!(i % 2, 0, "only expired jobs may drop");
                        assert_eq!(*queue_ns, 4_000_000);
                    }
                    JobOutcome::Completed { run, .. } => {
                        assert_eq!(i % 2, 1, "live jobs must complete");
                        // The surviving results are bit-identical to the batch
                        // path on the same tasks.
                        assert_eq!(run.result, reference.results[i]);
                    }
                    JobOutcome::Cancelled { .. } => panic!("no cancel flags were set"),
                }
            }
        }
    }

    #[test]
    fn dropped_jobs_leave_later_chunks_bit_identical() {
        // Interleaving dropped work must leave no trace on the workers:
        // chunks aligned after an all-dropped batch stay bit-identical to
        // the first.
        let (mut engine, clock) = tagged_engine_on(2);
        let tasks = mk_tasks(12, 70, 17);
        let reference = align_chunk(&mut engine, tasks.clone());
        clock.set_ns(1_000);
        let dead: Vec<(Task, JobMeta)> = tasks
            .iter()
            .cloned()
            .map(|t| (t, JobMeta { enqueued_ns: 0, deadline_ns: Some(500), cancel: None }))
            .collect();
        let outcomes = engine.run_tagged(dead);
        assert!(outcomes.iter().all(|o| matches!(o, JobOutcome::DroppedDeadline { .. })));
        let again = align_chunk(&mut engine, tasks.clone());
        assert_eq!(again.results, reference.results);
        assert_eq!(again.stats, reference.stats);
    }

    #[test]
    fn tagged_queue_and_service_latencies_are_measured() {
        let (mut engine, clock) = tagged_engine_on(2);
        clock.set_ns(2_000_000);
        let jobs: Vec<(Task, JobMeta)> = mk_tasks(3, 50, 19)
            .into_iter()
            .map(|t| (t, JobMeta { enqueued_ns: 500_000, deadline_ns: None, cancel: None }))
            .collect();
        for o in engine.run_tagged(jobs) {
            match o {
                JobOutcome::Completed { queue_ns, .. } => {
                    // MockClock does not advance during service, but the
                    // queue wait is exact: dispatch tick − enqueue tick.
                    assert_eq!(queue_ns, 1_500_000);
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
    }
    /// A long-tailed mix: a few kb-scale tasks among short ones, the long
    /// ones first, last and in the middle so every worker meets both kinds.
    fn long_tailed_tasks() -> Vec<Task> {
        let mut tasks = mk_tasks(37, 60, 61);
        for (at, long) in [0, 18, 36].into_iter().zip(mk_tasks(3, 1500, 67)) {
            tasks[at] = long;
        }
        tasks
    }

    #[test]
    fn pool_matches_a_sequential_kernel_loop() {
        // The pool against the kernel with no pool involved: whichever
        // worker claims a task, the run equals `run_task` field for field,
        // in input order — fewer tasks than threads and none at all
        // included.
        let mix = long_tailed_tasks();
        for tasks in [Vec::new(), mix[..2].to_vec(), mix] {
            let p = pipeline();
            let want: Vec<TaskRun> =
                tasks.iter().map(|t| crate::kernel::run_task(t, &p.scoring, &p.config)).collect();
            for threads in [1, 2, 3, 8] {
                let mut engine = pipeline_on(threads).engine();
                assert_eq!(engine.threads(), threads);
                // Twice: the second pass runs on warm workspaces and
                // through whatever the first left behind.
                for pass in 0..2 {
                    let got = engine.run_tasks(tasks.clone());
                    assert_eq!(got, want, "{} tasks, {threads} threads, pass {pass}", tasks.len());
                }
            }
        }
    }

    /// Reads as 0 forever, except that the `fail_on`-th read panics.
    struct FailingClock {
        reads: AtomicUsize,
        fail_on: usize,
    }

    impl Clock for FailingClock {
        fn now_ns(&self) -> u64 {
            let read = self.reads.fetch_add(1, Ordering::SeqCst) + 1;
            assert!(read != self.fail_on, "test clock failed on read {read}");
            0
        }
    }

    /// Run `body` on its own thread and fail, instead of hanging the suite,
    /// if it has not finished within a minute.
    fn within_a_minute(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => runner.join().expect("body finished"),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("engine call hung"),
            // The body panicked: fail with its own message.
            Err(_) => resume_unwind(runner.join().expect_err("body panicked")),
        }
    }

    fn live_jobs(tasks: &[Task]) -> Vec<(Task, JobMeta)> {
        tasks.iter().cloned().map(|t| (t, JobMeta::default())).collect()
    }

    fn completed_runs(outcomes: Vec<JobOutcome>) -> Vec<TaskRun> {
        outcomes
            .into_iter()
            .map(|o| match o {
                JobOutcome::Completed { run, .. } => run,
                other => panic!("expected completion, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn panic_in_the_admission_gate_unwinds_on_the_caller_and_the_engine_recovers() {
        within_a_minute(|| {
            let tasks = mk_tasks(24, 60, 71);
            for threads in [1, 3] {
                // Every job reads the clock at the gate and again after its
                // kernel run, so read 8 falls in the middle of the chunk.
                let clock = Arc::new(FailingClock { reads: AtomicUsize::new(0), fail_on: 8 });
                let reads = || clock.reads.load(Ordering::SeqCst);
                let mut engine = BatchEngine::with_clock(pipeline_on(threads), clock.clone());
                let payload =
                    catch_unwind(AssertUnwindSafe(|| engine.run_tagged(live_jobs(&tasks))))
                        .expect_err("the clock's panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some("test clock failed on read 8"),
                    "{threads} threads: the original payload is re-raised"
                );
                let aborted = reads();
                assert!(aborted < 2 * tasks.len(), "the chunk stopped early: {aborted} reads");

                // The same engine now behaves exactly like a new one: no
                // stale answer from the aborted chunk, no lost helper.
                let mut fresh = pipeline_on(threads).engine();
                assert_eq!(engine.threads(), fresh.threads());
                let got = completed_runs(engine.run_tagged(live_jobs(&tasks)));
                assert_eq!(got, completed_runs(fresh.run_tagged(live_jobs(&tasks))));
                // Each job passed the gate and was timed once: two reads apiece.
                assert_eq!(reads(), aborted + 2 * tasks.len());

                let stream = |engine: &mut BatchEngine| {
                    let mut run =
                        engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(7));
                    let reports: Vec<BatchReport> = run.by_ref().map(|c| c.report).collect();
                    (reports, run.finish())
                };
                let (got_reports, got_summary) = stream(&mut engine);
                let (want_reports, want_summary) = stream(&mut fresh);
                assert_eq!(got_reports.len(), want_reports.len());
                for (got, want) in got_reports.iter().zip(&want_reports) {
                    assert_eq!(got.results, want.results);
                    assert_eq!(got.stats, want.stats);
                    assert_eq!(got.warp_cycles, want.warp_cycles);
                }
                assert_eq!(got_summary.stats, want_summary.stats);
                assert_eq!(got_summary.device, want_summary.device);
                assert_eq!(got_summary.chunks, want_summary.chunks);
            }
        });
    }
}
