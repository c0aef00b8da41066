//! Streaming batch engine: a persistent host worker pool with per-worker
//! reusable [`KernelWorkspace`]s, processing task streams in bounded-memory
//! chunks.
//!
//! [`Pipeline::align_batch`] materialises every [`TaskRun`] for a batch it
//! borrows; that is fine for figure reproduction but not for serving
//! traffic. [`BatchEngine`] instead owns its worker threads for its whole
//! lifetime: workers pull owned tasks from a shared queue, execute them
//! with [`run_task_ws`] into their private workspace (zero steady-state
//! allocation on the kernel hot path), and only one chunk of runs is alive
//! at a time. Chunk results are yielded as they complete and the
//! per-chunk [`KernelStats`] / warp latencies are folded incrementally into
//! a [`StreamSummary`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use agatha_align::Task;
use agatha_gpu_sim::sched::SlotSchedule;
use agatha_gpu_sim::{DeviceReport, KernelStats};

use crate::bucketing::{build_warps, carry_split, OrderingStrategy};
use crate::clock::{Clock, SystemClock};
use crate::kernel::{run_task_ws, KernelWorkspace, TaskRun};
use crate::pipeline::{BatchReport, Pipeline};
use crate::prefetch::{ChunkMsg, PrefetchedChunks};
use crate::trace::SliceUnit;

/// Upper bound on buffers parked in the engine-wide recycle pool. Steady
/// state needs roughly one buffer per in-flight task; the cap only guards
/// against pathological chunk sizes hoarding memory.
const RECYCLE_POOL_CAP: usize = 4096;

struct Job {
    /// Chunk generation the job belongs to; results from an older
    /// generation (e.g. after a caught worker panic aborted a chunk) are
    /// discarded instead of corrupting the next chunk.
    gen: u64,
    idx: usize,
    task: Task,
    /// Request metadata for the serve path; `None` for plain batch jobs,
    /// which skip the clock reads and admission checks entirely.
    meta: Option<JobMeta>,
}

/// Per-request metadata attached to a tagged job: when it entered the
/// queue, when it stops being worth executing, and a kill switch flipped
/// when the requesting client goes away. Times are in the engine clock's
/// nanosecond domain (see [`crate::clock::Clock`]).
#[derive(Debug, Clone, Default)]
pub struct JobMeta {
    /// Clock tick at which the request was admitted (for queue-latency
    /// accounting).
    pub enqueued_ns: u64,
    /// Absolute deadline: a job still undisptached at this tick is dropped
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

/// Monotonic counters for the tagged-job admission decisions, readable at
/// any time via [`BatchEngine::tag_counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagCounters {
    /// Tagged jobs that reached kernel dispatch.
    pub dispatched: u64,
    /// Tagged jobs dropped because their deadline passed while queued.
    pub dropped_deadline: u64,
    /// Tagged jobs dropped because their cancel flag was set.
    pub cancelled: u64,
}

#[derive(Default)]
struct TagCountersAtomic {
    dispatched: AtomicU64,
    dropped_deadline: AtomicU64,
    cancelled: AtomicU64,
}

/// A persistent alignment worker pool for one [`Pipeline`] configuration.
///
/// Dropping the engine shuts the pool down and joins every worker.
pub struct BatchEngine {
    pipeline: Pipeline,
    threads: usize,
    gen: u64,
    job_tx: Option<Sender<Job>>,
    result_rx: Receiver<(u64, usize, std::thread::Result<JobOutcome>)>,
    workers: Vec<JoinHandle<()>>,
    /// Spent `TaskRun` output buffers (cost-descriptor vectors) returned by
    /// the per-chunk stats fold; workers drain this into their
    /// [`KernelWorkspace`] so steady-state streaming allocates nothing per
    /// task, not even the run outputs (ROADMAP "TaskRun buffer recycling").
    recycle: Arc<Mutex<Vec<Vec<SliceUnit>>>>,
    counters: Arc<TagCountersAtomic>,
    /// Caller-thread workspace for the single-worker fast path: with one
    /// worker the per-task channel round trip buys no parallelism — it only
    /// adds two context switches per job — so untagged chunks run inline on
    /// the calling thread instead (see [`BatchEngine::run_tasks_drain`]).
    host_ws: KernelWorkspace,
}

impl BatchEngine {
    /// Spawn the worker pool (`pipeline.host_threads`, or all available
    /// cores when 0). Each worker owns one [`KernelWorkspace`] for its
    /// entire lifetime. Deadlines are evaluated against the real monotonic
    /// clock; use [`BatchEngine::with_clock`] to inject a test clock.
    pub fn new(pipeline: Pipeline) -> BatchEngine {
        BatchEngine::with_clock(pipeline, Arc::new(SystemClock::new()))
    }

    /// [`BatchEngine::new`] with an explicit time source for the tagged-job
    /// deadline checks (tests pass [`crate::clock::MockClock`]).
    pub fn with_clock(pipeline: Pipeline, clock: Arc<dyn Clock>) -> BatchEngine {
        let threads = pipeline.worker_threads().max(1);
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = channel();
        let recycle: Arc<Mutex<Vec<Vec<SliceUnit>>>> = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(TagCountersAtomic::default());
        let workers = (0..threads)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let result_tx = result_tx.clone();
                let recycle = Arc::clone(&recycle);
                let counters = Arc::clone(&counters);
                let clock = Arc::clone(&clock);
                let scoring = pipeline.scoring;
                let config = pipeline.config.clone();
                std::thread::spawn(move || {
                    let mut ws = KernelWorkspace::new();
                    loop {
                        // Hold the queue lock only while drawing a job, not
                        // while executing it.
                        let job = { job_rx.lock().expect("queue lock poisoned").recv() };
                        let Ok(Job { gen, idx, task, meta }) = job else { break };
                        // Admission gate for tagged jobs: a cancelled or
                        // deadline-expired request must never reach kernel
                        // dispatch — checked here, at the last moment
                        // before execution.
                        let dispatch_ns = meta.as_ref().map(|m| {
                            let now = clock.now_ns();
                            (now, now.saturating_sub(m.enqueued_ns))
                        });
                        if let (Some(m), Some((now, queue_ns))) = (&meta, dispatch_ns) {
                            let skipped = if m.cancelled() {
                                counters.cancelled.fetch_add(1, Ordering::Relaxed);
                                Some(JobOutcome::Cancelled { queue_ns })
                            } else if m.expired(now) {
                                counters.dropped_deadline.fetch_add(1, Ordering::Relaxed);
                                Some(JobOutcome::DroppedDeadline { queue_ns })
                            } else {
                                counters.dispatched.fetch_add(1, Ordering::Relaxed);
                                None
                            };
                            if let Some(outcome) = skipped {
                                if result_tx.send((gen, idx, Ok(outcome))).is_err() {
                                    break;
                                }
                                continue;
                            }
                        }
                        // Catch panics so the collector can re-raise them
                        // instead of deadlocking on a result that never
                        // arrives. The workspace is safe to reuse after a
                        // panic: every run fully reinitialises it. The
                        // recycle drain sits inside the guard too: a
                        // poisoned pool lock must surface as a re-raised
                        // panic on the caller, not kill this worker and
                        // strand the job.
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            // Top up the workspace with spent output buffers
                            // so the run's cost descriptors reuse their
                            // capacity. Drain a small batch under one lock,
                            // and only when the local pool is dry, so the
                            // per-task hot path doesn't pay a global lock
                            // per job.
                            if ws.recycled_buffers().0 == 0 {
                                let mut pool = recycle.lock().expect("recycle pool lock poisoned");
                                let from = pool.len() - pool.len().min(4);
                                for units in pool.drain(from..) {
                                    ws.recycle_units(units);
                                }
                            }
                            run_task_ws(&mut ws, &task, &scoring, &config)
                        }));
                        let outcome = run.map(|run| {
                            let (queue_ns, service_ns) = match dispatch_ns {
                                Some((start, queue_ns)) => {
                                    (queue_ns, clock.now_ns().saturating_sub(start))
                                }
                                None => (0, 0),
                            };
                            JobOutcome::Completed { run, queue_ns, service_ns }
                        });
                        if result_tx.send((gen, idx, outcome)).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        BatchEngine {
            pipeline,
            threads,
            gen: 0,
            job_tx: Some(job_tx),
            result_rx,
            workers,
            recycle,
            counters,
            host_ws: KernelWorkspace::new(),
        }
    }

    /// The pipeline configuration this engine serves.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute one chunk of owned tasks on the pool, returning the runs in
    /// input order. Deterministic: results are reassembled by index, so
    /// worker interleaving never changes the output.
    pub fn run_tasks(&mut self, mut tasks: Vec<Task>) -> Vec<TaskRun> {
        self.run_tasks_drain(&mut tasks)
    }

    /// [`BatchEngine::run_tasks`] that drains `tasks` in place, leaving the
    /// vector empty with its capacity intact — the streaming path reuses
    /// one chunk buffer across the whole stream instead of allocating per
    /// chunk.
    pub fn run_tasks_drain(&mut self, tasks: &mut Vec<Task>) -> Vec<TaskRun> {
        // Single-worker fast path: with one worker there is no parallelism
        // to exploit, and routing each task through the job/result channels
        // costs two context switches per job (measured ~8% of streaming
        // throughput on short reads on a one-core host). Run the chunk on
        // the calling thread instead. Bit-identical to the pooled path:
        // kernels are deterministic and results are index-ordered either
        // way. Tagged jobs ([`BatchEngine::run_tagged`]) keep the pool for
        // their last-moment deadline/cancel admission gate.
        if self.threads == 1 {
            return self.run_tasks_inline(tasks);
        }
        let count = tasks.len();
        self.gen += 1;
        let gen = self.gen;
        let job_tx = self.job_tx.as_ref().expect("engine pool is live until drop");
        for (idx, task) in tasks.drain(..).enumerate() {
            job_tx.send(Job { gen, idx, task, meta: None }).expect("worker pool alive");
        }
        self.collect_outcomes(gen, count)
            .into_iter()
            .map(|outcome| match outcome {
                JobOutcome::Completed { run, .. } => run,
                // Untagged jobs carry no deadline or cancel flag, so no
                // other outcome is reachable.
                other => unreachable!("untagged job produced {other:?}"),
            })
            .collect()
    }

    /// The caller-thread half of the single-worker fast path: same recycle
    /// discipline as a pool worker (drain a small batch of spent buffers
    /// under one lock, only when the local pool is dry), same workspace
    /// reuse across the engine's lifetime.
    fn run_tasks_inline(&mut self, tasks: &mut Vec<Task>) -> Vec<TaskRun> {
        let mut out = Vec::with_capacity(tasks.len());
        for task in tasks.drain(..) {
            if self.host_ws.recycled_buffers().0 == 0 {
                let mut pool = self.recycle.lock().expect("recycle pool lock poisoned");
                let from = pool.len() - pool.len().min(4);
                for units in pool.drain(from..) {
                    self.host_ws.recycle_units(units);
                }
            }
            out.push(run_task_ws(
                &mut self.host_ws,
                &task,
                &self.pipeline.scoring,
                &self.pipeline.config,
            ));
        }
        out
    }

    /// Execute owned tasks with per-request [`JobMeta`] (deadline,
    /// cancellation, enqueue tick), returning one [`JobOutcome`] per job in
    /// input order: every job is answered exactly once — completed,
    /// deadline-dropped, or cancelled — never lost. Dropped and cancelled
    /// jobs never reach kernel dispatch (see [`BatchEngine::tag_counters`]).
    pub fn run_tagged(&mut self, jobs: Vec<(Task, JobMeta)>) -> Vec<JobOutcome> {
        self.run_jobs(jobs.into_iter().map(|(t, m)| (t, Some(m))).collect())
    }

    fn run_jobs(&mut self, jobs: Vec<(Task, Option<JobMeta>)>) -> Vec<JobOutcome> {
        let count = jobs.len();
        self.gen += 1;
        let gen = self.gen;
        let job_tx = self.job_tx.as_ref().expect("engine pool is live until drop");
        for (idx, (task, meta)) in jobs.into_iter().enumerate() {
            job_tx.send(Job { gen, idx, task, meta }).expect("worker pool alive");
        }
        self.collect_outcomes(gen, count)
    }

    /// Gather `count` results of generation `gen` by index, re-raising any
    /// worker panic on the calling thread.
    fn collect_outcomes(&mut self, gen: u64, count: usize) -> Vec<JobOutcome> {
        let mut out: Vec<Option<JobOutcome>> = (0..count).map(|_| None).collect();
        let mut received = 0;
        while received < count {
            let (g, idx, run) = self.result_rx.recv().expect("worker pool alive");
            if g != gen {
                // Leftover from a chunk aborted by a re-raised panic.
                continue;
            }
            received += 1;
            match run {
                Ok(outcome) => out[idx] = Some(outcome),
                // Re-raise a worker panic on the calling thread.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out.into_iter().map(|r| r.expect("every job answered")).collect()
    }

    /// Snapshot of the tagged-job admission counters (dispatched /
    /// deadline-dropped / cancelled).
    pub fn tag_counters(&self) -> TagCounters {
        TagCounters {
            dispatched: self.counters.dispatched.load(Ordering::Relaxed),
            dropped_deadline: self.counters.dropped_deadline.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Align one owned chunk end to end (kernel runs → warp assignment →
    /// simulation → device scheduling), with the configuration's implied
    /// ordering strategy. Bit-identical to [`Pipeline::align_batch`] on the
    /// same tasks.
    pub fn align_chunk(&mut self, mut tasks: Vec<Task>) -> BatchReport {
        let strategy = self.pipeline.default_strategy();
        self.align_chunk_drain(&mut tasks, strategy)
    }

    /// [`BatchEngine::align_chunk`] with an explicit ordering strategy.
    pub fn align_chunk_with_strategy(
        &mut self,
        mut tasks: Vec<Task>,
        strategy: OrderingStrategy,
    ) -> BatchReport {
        self.align_chunk_drain(&mut tasks, strategy)
    }

    /// Chunk alignment draining `tasks` in place (capacity preserved for
    /// the caller's next fill).
    fn align_chunk_drain(
        &mut self,
        tasks: &mut Vec<Task>,
        strategy: OrderingStrategy,
    ) -> BatchReport {
        let workloads: Vec<u64> = tasks.iter().map(|t| t.antidiags() as u64).collect();
        let runs = self.run_tasks_drain(tasks);
        // After the stats fold the runs' unit buffers are surplus; park them
        // for the workers to reuse on the next chunk.
        let recycle = Arc::clone(&self.recycle);
        self.pipeline.assemble_report_recycling(&workloads, runs, strategy, move |units| {
            if units.capacity() == 0 {
                return; // nothing worth round-tripping
            }
            let mut pool = recycle.lock().expect("recycle pool lock poisoned");
            if pool.len() < RECYCLE_POOL_CAP {
                pool.push(units);
            }
        })
    }

    /// Chunk alignment with a cross-chunk carry-over bucket. All arrived
    /// tasks execute (and their results/stats report) immediately; runs
    /// that would seed an underfull trailing warp join `carry` instead of
    /// being packed, and enter the *next* chunk's largest-first fill. With
    /// `flush` the whole pool packs, draining the carry deterministically
    /// at stream end. Kernel results and stats are packing-independent, so
    /// carry-over only ever changes the simulated warp schedule.
    fn align_chunk_carry(
        &mut self,
        arrived: &mut Vec<Task>,
        carry: &mut Vec<CarrySlot>,
        flush: bool,
        strategy: OrderingStrategy,
    ) -> BatchReport {
        let arrived_workloads: Vec<u64> = arrived.iter().map(|t| t.antidiags() as u64).collect();
        let runs = self.run_tasks_drain(arrived);
        let cfg = &self.pipeline.config;
        let mut stats = KernelStats::new();
        let mut results = Vec::with_capacity(runs.len());
        for r in &runs {
            stats.add(&r.stats(cfg.subwarp_lanes, cfg, &self.pipeline.cost));
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
        let (warp_cycles, subwarp_blocks) = self.pipeline.simulate_warps(&packed_runs, &warps);
        let (devices, device) = self.pipeline.schedule_devices(&warp_cycles);
        // Packed runs are spent: park their unit buffers for worker reuse.
        {
            let mut recycled = self.recycle.lock().expect("recycle pool lock poisoned");
            for mut r in packed_runs {
                let units = std::mem::take(&mut r.units);
                if units.capacity() > 0 && recycled.len() < RECYCLE_POOL_CAP {
                    recycled.push(units);
                }
            }
        }
        BatchReport {
            results,
            elapsed_ms: self.pipeline.spec.cycles_to_ms(device.makespan_cycles),
            device,
            devices,
            stats,
            warp_cycles,
            subwarp_blocks,
        }
    }

    /// Buffers currently parked in the recycle pool (test visibility).
    ///
    /// # Panics
    ///
    /// Panics if the pool mutex is poisoned — a worker died while holding
    /// it, which must fail tests loudly rather than read as "empty pool".
    pub fn recycled_buffers(&self) -> usize {
        self.recycle.lock().expect("recycle pool lock poisoned").len()
    }

    /// Stream `tasks` through the pool in chunks of `chunk_size`. Only one
    /// chunk of tasks and runs is in memory at a time; iterate the returned
    /// [`StreamRun`] for per-chunk reports, then call [`StreamRun::finish`]
    /// for the folded totals. For whole-stream-as-one-chunk behaviour pass
    /// a chunk size at least as large as the stream.
    ///
    /// Compatibility entry point: carry-over off and warp-cycle recording
    /// on, so the summary (including `warp_cycles` and the device schedule)
    /// is bit-identical to [`Pipeline::align_batch`] when one chunk spans
    /// the stream. Note that recording keeps O(stream) warp latencies in
    /// memory; long-running streams should prefer
    /// [`BatchEngine::align_stream_with`], whose default options fold the
    /// device schedule incrementally in O(warp slots) state.
    ///
    /// # Panics
    ///
    /// `chunk_size == 0` is a usage error (it used to silently mean
    /// "unbounded", defeating the memory bound that is the point of
    /// streaming) and panics with a descriptive message; CLI layers must
    /// validate `--chunk` before calling.
    pub fn align_stream<I>(&mut self, tasks: I, chunk_size: usize) -> StreamRun<'_, I::IntoIter>
    where
        I: IntoIterator<Item = Task>,
    {
        let opts = StreamOptions::new(chunk_size).carry_over(false).record_warp_cycles(true);
        self.align_stream_with(tasks, opts)
    }

    /// [`BatchEngine::align_stream`] with explicit [`StreamOptions`]. With
    /// the default options (carry-over on, recording off) steady-state
    /// memory is one chunk of tasks and runs plus at most one warp's worth
    /// of carried runs plus O(warp slots) schedule state — independent of
    /// stream length.
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
    /// `prefetch_depth == 0` is a usage error — use
    /// [`BatchEngine::align_stream_with`] for a synchronous stream.
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
        let gpus = self.pipeline.gpus;
        // Single-GPU streams fold the device schedule incrementally; the
        // multi-GPU split is contiguous over the *whole* stream's warps, so
        // it must retain the latency vector regardless of recording.
        let sched = (gpus == 1).then(|| SlotSchedule::new(self.pipeline.spec.warp_slots()));
        let keep_cycles = opts.record_warp_cycles || gpus > 1;
        let strategy = self.pipeline.default_strategy();
        let buf = Vec::with_capacity(opts.chunk_size.min(STREAM_BUF_RESERVE));
        StreamRun {
            engine: self,
            source,
            chunk_size: opts.chunk_size,
            carry_over: opts.carry_over,
            keep_cycles,
            strategy,
            buf,
            carry: Vec::new(),
            offset: 0,
            chunks: 0,
            stats: KernelStats::new(),
            warp_cycles: Vec::new(),
            sched,
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

/// Knobs for [`BatchEngine::align_stream_with`] /
/// [`BatchEngine::align_stream_prefetched`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    chunk_size: usize,
    carry_over: bool,
    record_warp_cycles: bool,
}

impl StreamOptions {
    /// Streaming defaults: carry-over on, warp-cycle recording off.
    ///
    /// # Panics
    ///
    /// `chunk_size == 0` is a usage error.
    pub fn new(chunk_size: usize) -> StreamOptions {
        assert!(chunk_size >= 1, "stream chunk_size must be at least 1 (got 0)");
        StreamOptions { chunk_size, carry_over: true, record_warp_cycles: false }
    }

    /// Defer tasks that would seed an underfull trailing warp into the next
    /// chunk's fill (results and stats are unaffected; only the simulated
    /// warp schedule changes). Default on.
    pub fn carry_over(mut self, on: bool) -> StreamOptions {
        self.carry_over = on;
        self
    }

    /// Retain every warp latency in [`StreamSummary::warp_cycles`]. Off by
    /// default because it grows O(stream length), defeating the streaming
    /// memory bound; the summary's device schedule is folded incrementally
    /// either way.
    pub fn record_warp_cycles(mut self, on: bool) -> StreamOptions {
        self.record_warp_cycles = on;
        self
    }
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
        // Closing the job channel makes every worker's recv fail and exit.
        drop(self.job_tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One chunk's worth of output from [`BatchEngine::align_stream`].
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
    /// Per-warp latencies across all chunks, in submission order. Empty
    /// unless recording was requested
    /// ([`StreamOptions::record_warp_cycles`], or multi-GPU pipelines,
    /// whose contiguous split needs the full vector) — the device schedule
    /// below is folded incrementally either way.
    pub warp_cycles: Vec<f64>,
    /// Straggler-device schedule of all the stream's warps as one pooled
    /// submission sequence on the configured device(s) — a chunk's warps
    /// may start in slots freed mid-way through the previous chunk, which
    /// is why a chunk size spanning the whole stream reproduces
    /// `align_batch` exactly.
    pub device: DeviceReport,
    /// Simulated kernel time of the whole stream in milliseconds.
    pub elapsed_ms: f64,
}

/// Lazy chunk-by-chunk driver returned by [`BatchEngine::align_stream`]
/// and friends.
pub struct StreamRun<'e, I: Iterator<Item = Task>> {
    engine: &'e mut BatchEngine,
    source: ChunkSource<I>,
    chunk_size: usize,
    carry_over: bool,
    keep_cycles: bool,
    strategy: OrderingStrategy,
    /// Reusable chunk buffer: drained by the engine each chunk, refilled in
    /// place, so steady-state streaming allocates nothing per chunk.
    buf: Vec<Task>,
    /// Runs deferred by the carry-over bucket, awaiting a later pack.
    carry: Vec<CarrySlot>,
    offset: usize,
    chunks: usize,
    stats: KernelStats,
    warp_cycles: Vec<f64>,
    /// Incremental pooled device schedule (single-GPU pipelines).
    sched: Option<SlotSchedule>,
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
                    ChunkMsg::Chunk(mut chunk) => {
                        // Swap our spent buffer for the parsed chunk and
                        // send the old one back to the reader for reuse.
                        std::mem::swap(&mut self.buf, &mut chunk);
                        pf.recycle(chunk);
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
        let report = if self.carry_over {
            // Flush when the source has ended: the final chunk (or a
            // trailing carry-only chunk) packs the whole pool.
            self.engine.align_chunk_carry(
                &mut self.buf,
                &mut self.carry,
                self.source_done,
                self.strategy,
            )
        } else {
            self.engine.align_chunk_drain(&mut self.buf, self.strategy)
        };
        self.stats.add(&report.stats);
        if self.keep_cycles {
            self.warp_cycles.extend_from_slice(&report.warp_cycles);
        }
        if let Some(sched) = &mut self.sched {
            sched.extend(&report.warp_cycles);
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
        let pipeline = &self.engine.pipeline;
        let device = match &self.sched {
            Some(sched) => sched.report(),
            None => pipeline.schedule_devices(&self.warp_cycles).1,
        };
        Ok(StreamSummary {
            tasks: self.offset,
            chunks: self.chunks,
            stats: std::mem::replace(&mut self.stats, KernelStats::new()),
            elapsed_ms: pipeline.spec.cycles_to_ms(device.makespan_cycles),
            device,
            warp_cycles: std::mem::take(&mut self.warp_cycles),
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

    // Kernel stats and unit schedules follow the geometry `Auto` resolves
    // from the installed backend; tests that compare them across separate
    // runs hold this so the kernel tests' backend sweep cannot flip it in
    // between.
    use crate::kernel::backend_lock;

    fn pipeline() -> Pipeline {
        Pipeline::new(Scoring::new(2, 4, 4, 2, 60, 16), AgathaConfig::agatha())
    }

    #[test]
    fn chunked_stream_matches_whole_batch() {
        let _guard = backend_lock();
        let tasks = mk_tasks(30, 110, 41);
        let whole = pipeline().align_batch(&tasks);
        for chunk_size in [1, 7, 30, 64] {
            let mut engine = pipeline().engine();
            let mut results = Vec::new();
            let mut run = engine.align_stream(tasks.iter().cloned(), chunk_size);
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
        let _guard = backend_lock();
        // One chunk spanning the stream — even the warp latencies and the
        // device schedule must match align_batch exactly.
        let tasks = mk_tasks(18, 90, 7);
        let whole = pipeline().align_batch(&tasks);
        let mut engine = pipeline().engine();
        let summary = engine.align_stream(tasks.iter().cloned(), tasks.len()).finish();
        assert_eq!(summary.warp_cycles, whole.warp_cycles);
        assert_eq!(summary.device, whole.device);
        assert_eq!(summary.elapsed_ms, whole.elapsed_ms);
        assert_eq!(summary.chunks, 1);
    }

    #[test]
    fn engine_survives_many_chunks() {
        let mut engine = pipeline().engine();
        let tasks = mk_tasks(12, 70, 3);
        let a = engine.align_chunk(tasks.clone());
        let b = engine.align_chunk(tasks.clone());
        assert_eq!(a.results, b.results);
        let c = engine.align_chunk(Vec::new());
        assert!(c.results.is_empty());
        assert_eq!(c.elapsed_ms, 0.0);
    }

    #[test]
    fn chunk_folding_parks_spent_buffers_for_reuse() {
        let mut engine = pipeline().engine();
        let tasks = mk_tasks(16, 80, 9);
        let a = engine.align_chunk(tasks.clone());
        // After the first chunk every run's unit buffer is parked (workers
        // had nothing to drain yet).
        assert!(engine.recycled_buffers() > 0, "spent buffers must be parked");
        // Subsequent chunks drain the pool back through the workers and
        // re-park; results stay bit-identical throughout.
        let parked = engine.recycled_buffers();
        for _ in 0..3 {
            let b = engine.align_chunk(tasks.clone());
            assert_eq!(a.results, b.results);
        }
        assert!(
            engine.recycled_buffers() <= parked + tasks.len(),
            "pool must not grow unboundedly"
        );
    }

    #[test]
    fn empty_stream() {
        let mut engine = pipeline().engine();
        let summary = engine.align_stream(std::iter::empty(), 8).finish();
        assert_eq!(summary.tasks, 0);
        assert_eq!(summary.chunks, 0);
        assert_eq!(summary.elapsed_ms, 0.0);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be at least 1")]
    fn zero_chunk_size_is_a_usage_error() {
        let mut engine = pipeline().engine();
        let _ = engine.align_stream(mk_tasks(3, 40, 5), 0);
    }

    #[test]
    fn carry_over_results_and_stats_stay_bit_identical() {
        let _guard = backend_lock();
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
            assert!(summary.warp_cycles.is_empty(), "recording defaults off");
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
        // 4 chunks of 13 tasks: no-carry packs ceil(13/8) = 2 warps per
        // chunk (8 underfull); carry packs full warps throughout and only
        // the flush may run short.
        let tasks = mk_tasks(52, 70, 37);
        let count_warps = |carry: bool| {
            let mut engine = pipeline().engine();
            let opts = StreamOptions::new(13).carry_over(carry);
            let mut run = engine.align_stream_with(tasks.iter().cloned(), opts);
            let mut warps = Vec::new();
            for chunk in run.by_ref() {
                warps.push(chunk.report.warp_cycles.len());
            }
            (warps, run.finish())
        };
        let (warps_plain, sum_plain) = count_warps(false);
        let (warps_carry, sum_carry) = count_warps(true);
        assert_eq!(warps_plain, vec![2, 2, 2, 2]);
        // 52 tasks = 6 full warps + one flush warp of the last 4.
        assert_eq!(warps_carry.iter().sum::<usize>(), 7);
        assert_eq!(sum_plain.stats, sum_carry.stats);
        // No makespan direction assert: with 7–8 warps on a device whose
        // slots exceed them, makespan is just the max warp latency and
        // fuller warps run longer. The carry-over win is a saturated-device
        // property, measured by pipeline_bench's carryover_makespan_gain.
    }

    #[test]
    fn prefetched_stream_matches_inline() {
        let _guard = backend_lock();
        let tasks = mk_tasks(41, 90, 43);
        for chunk_size in [4, 16, 64] {
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
            let mut pf_results = Vec::new();
            let pf_summary = {
                let mut engine = pipeline().engine();
                let source = tasks.clone().into_iter().map(Ok::<Task, String>);
                let mut run =
                    engine.align_stream_prefetched(source, 2, StreamOptions::new(chunk_size));
                for chunk in run.by_ref() {
                    pf_results.extend(chunk.report.results);
                }
                run.finish_checked().expect("no source errors")
            };
            assert_eq!(pf_results, inline_results, "chunk_size {chunk_size}");
            assert_eq!(pf_summary.stats, inline_summary.stats);
            assert_eq!(pf_summary.device, inline_summary.device);
            assert_eq!(pf_summary.tasks, inline_summary.tasks);
            assert_eq!(pf_summary.chunks, inline_summary.chunks);
        }
    }

    #[test]
    fn incremental_schedule_matches_recorded_cycles() {
        let _guard = backend_lock();
        // The summary's device report must be what pooling the recorded
        // cycles would give — recording on exposes both in one run.
        let tasks = mk_tasks(33, 85, 47);
        let mut engine = pipeline().engine();
        let opts = StreamOptions::new(6).record_warp_cycles(true);
        let summary = engine.align_stream_with(tasks.iter().cloned(), opts).finish();
        assert!(!summary.warp_cycles.is_empty());
        let (_, pooled) = engine.pipeline().schedule_devices(&summary.warp_cycles);
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
        let again = engine.align_chunk(mk_tasks(7, 60, 53));
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
        let rep = engine.align_chunk(tasks.clone());
        assert_eq!(rep.results.len(), 20);
    }

    use crate::clock::MockClock;

    fn tagged_engine() -> (BatchEngine, Arc<MockClock>) {
        let clock = Arc::new(MockClock::new());
        let mut p = pipeline();
        p.host_threads = 2;
        (BatchEngine::with_clock(p, clock.clone()), clock)
    }

    #[test]
    fn cancelled_jobs_never_reach_kernel_dispatch() {
        let (mut engine, _clock) = tagged_engine();
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
        let c = engine.tag_counters();
        assert_eq!(c, TagCounters { dispatched: 0, dropped_deadline: 0, cancelled: 8 });
        // Nothing executed, so nothing was parked for recycling either: a
        // cancelled request's buffers cannot leak into another request.
        assert_eq!(engine.recycled_buffers(), 0);
    }

    #[test]
    fn expired_deadlines_drop_before_dispatch() {
        let (mut engine, clock) = tagged_engine();
        clock.set_ns(5_000_000);
        let tasks = mk_tasks(6, 60, 13);
        let jobs: Vec<(Task, JobMeta)> = tasks
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, t)| {
                // Even indices expired 1ms ago; odd ones have 10ms left.
                let deadline = if i % 2 == 0 { 4_000_000 } else { 15_000_000 };
                (t, JobMeta { enqueued_ns: 1_000_000, deadline_ns: Some(deadline), cancel: None })
            })
            .collect();
        let outcomes = engine.run_tagged(jobs);
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
        let c = engine.tag_counters();
        assert_eq!(c, TagCounters { dispatched: 3, dropped_deadline: 3, cancelled: 0 });
    }

    #[test]
    fn dropped_jobs_leave_recycling_bit_identical() {
        let _guard = backend_lock();
        // Interleaving dropped work must not corrupt or cross-serve the
        // recycled unit buffers: chunks aligned after drops stay
        // bit-identical to the reference.
        let (mut engine, clock) = tagged_engine();
        let tasks = mk_tasks(12, 70, 17);
        let reference = engine.align_chunk(tasks.clone());
        let parked = engine.recycled_buffers();
        assert!(parked > 0);
        clock.set_ns(1_000);
        let dead: Vec<(Task, JobMeta)> = tasks
            .iter()
            .cloned()
            .map(|t| (t, JobMeta { enqueued_ns: 0, deadline_ns: Some(500), cancel: None }))
            .collect();
        let outcomes = engine.run_tagged(dead);
        assert!(outcomes.iter().all(|o| matches!(o, JobOutcome::DroppedDeadline { .. })));
        // Dropped jobs produced no runs: the pool neither grew nor served
        // buffers to phantom requests.
        assert_eq!(engine.recycled_buffers(), parked);
        let again = engine.align_chunk(tasks.clone());
        assert_eq!(again.results, reference.results);
        assert_eq!(again.stats, reference.stats);
    }

    #[test]
    fn tagged_queue_and_service_latencies_are_measured() {
        let (mut engine, clock) = tagged_engine();
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
}
