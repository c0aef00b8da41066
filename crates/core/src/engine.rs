//! The host execution path: one job-claim worker loop that every batch,
//! stream chunk and serve request runs through.
//!
//! Guided alignment's workload is long-tailed and unpredictable, so work is
//! claimed dynamically, never dealt out statically (static chunking would
//! recreate on the host exactly the imbalance the paper fixes on the GPU).
//! A chunk is published once behind an `Arc` with its list of jobs; workers
//! claim job indices from one atomic counter, run each on their private
//! [`KernelWorkspace`] scratch, and hand back one batch of keyed outputs per
//! worker per chunk. The calling thread is worker 0; the engine keeps
//! `threads − 1` persistent helper threads for its whole lifetime, so one
//! thread simply means "no helpers", and a chunk wakes only as many helpers
//! as it has jobs beyond the caller's first. Outputs are owned: each run
//! allocates its own trace and whoever consumes the run drops it — no
//! memory flows back to the workers.
//!
//! A job is one of three kinds. [`BatchEngine::run_tasks`] claims tasks and
//! runs [`run_task_ws`] (align, then walk the device trace);
//! [`BatchEngine::run_tagged`] claims serve requests and runs the admission
//! gate, then [`align_task_ws`] alone — a request is never priced. The
//! chunk packer claims *warps*: no packing decision needs a kernel result,
//! since `carry_split` and `build_warps` read only the a-priori workload
//! (`Task::antidiags`, §5.6), so the packer splits the carry and builds the
//! warps first, as the paper assigns tasks to warps before launch (§4.4).
//! A warp job aligns the warp's new tasks, folds their [`KernelStats`] into
//! its worker's total, walks and prices their traces, runs the rejoining
//! simulation over them plus any carried runs, and drops the units: a
//! packed run's trace lives for one warp on one core, and a chunk's traces
//! never coexist. A comparator engine ([`crate::BaselinePlan`]) runs through
//! the same packer and warp jobs; its plan aligns and prices each task. A
//! deferred job aligns and prices one arrival into the
//! next chunk's carry. The calling thread only assembles the report —
//! results in arrival order, warp latencies in submission order, the carry
//! in pool order — and schedules the devices. [`Pipeline::align_batch`] is
//! a stream of one chunk; [`BatchEngine::align_stream_with`] keeps only one
//! chunk alive at a time, yields chunk reports as they complete and folds
//! the per-chunk [`KernelStats`] and device schedule incrementally into a
//! [`StreamSummary`].
//!
//! A stream cuts its chunks by one rule, `fill_chunk`: a chunk closes at
//! the chunk size or where the source ends. The inline source runs it on
//! the calling thread; the prefetch reader (`crate::prefetch`) runs it
//! on its own and hands over each chunk with its verdict. Either way the
//! chunk in which the source ended — short, or empty when the end falls on
//! a chunk boundary — carries how it ended: that chunk packs the whole
//! carry, and a source error becomes the [`StreamError`] that
//! [`StreamRun::finish_checked`] returns, at the chunk and task offset
//! where the source failed.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use agatha_align::{GuidedResult, Task};
use agatha_gpu_sim::sched::SlotSchedule;
use agatha_gpu_sim::{DeviceReport, KernelStats};

use crate::bucketing::{build_warps, carry_split, OrderingStrategy, WarpAssignment};
use crate::clock::{Clock, SystemClock};
use crate::kernel::{align_task_ws, run_task_ws, HostRun, KernelWorkspace, TaskRun};
use crate::pipeline::{BaselineRun, BatchReport, Pipeline};
use crate::prefetch::PrefetchedChunks;
use crate::warp_sim::simulate_warp;

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
    /// the kernel execution time. A request is aligned, never priced: `run`
    /// is the host half alone, with no device trace.
    Completed { run: HostRun, queue_ns: u64, service_ns: u64 },
    /// Deadline passed while the job was still queued; the kernel was
    /// never dispatched.
    DroppedDeadline { queue_ns: u64 },
    /// Cancel flag was set before dispatch; the kernel was never
    /// dispatched.
    Cancelled { queue_ns: u64 },
}

/// One published chunk: the tasks, what its jobs are, and the claim counter
/// every worker draws from.
struct Chunk {
    tasks: Vec<Task>,
    jobs: Jobs,
    /// Next unclaimed job. Only hands out indices: the jobs reach a worker
    /// through the channel that delivers the chunk and the outputs return
    /// through the answer channel, so `Relaxed` suffices.
    next: AtomicUsize,
}

/// What a chunk's jobs are.
enum Jobs {
    /// One job per task: align it and walk its device trace
    /// ([`BatchEngine::run_tasks`]).
    Runs,
    /// One job per tagged request, indexed like the tasks: the admission
    /// gate, then the alignment alone ([`BatchEngine::run_tagged`]).
    Tagged(Vec<JobMeta>),
    /// The packer's plan, made before any kernel runs: one job per warp in
    /// submission order, then one per deferred arrival.
    Pack(Packing),
}

/// A chunk's packing plan. Pool index `p` names carried run `carry[p]`
/// when `p < carry.len()`, else arrived task `p − carry.len()`.
struct Packing {
    /// Runs carried in from earlier chunks, already aligned and priced.
    carry: Vec<CarrySlot>,
    /// The warps, their queues holding pool indices.
    warps: Vec<WarpAssignment>,
    /// Arrivals the carry split defers to the next chunk, ascending.
    deferred: Vec<usize>,
}

impl Chunk {
    /// How many jobs the chunk holds: what its helpers can claim.
    fn job_count(&self) -> usize {
        match &self.jobs {
            Jobs::Runs | Jobs::Tagged(_) => self.tasks.len(),
            Jobs::Pack(pack) => pack.warps.len() + pack.deferred.len(),
        }
    }
}

/// One simulated warp: its latency in cycles and, per subwarp slot,
/// (assigned device blocks, executed device blocks after rejoining).
struct SimulatedWarp {
    cycles: f64,
    subwarp_blocks: Vec<(u64, f64)>,
}

/// What one worker — or, merged, a whole chunk — produced. Every entry is
/// keyed by its job index, except `results`, keyed by arrival index; each
/// kind of chunk fills only its own fields.
#[derive(Default)]
struct Done {
    /// [`Jobs::Runs`]: the priced runs.
    runs: Vec<(usize, TaskRun)>,
    /// [`Jobs::Tagged`]: the outcomes.
    outcomes: Vec<(usize, JobOutcome)>,
    /// [`Jobs::Pack`]: the simulated warps.
    warps: Vec<(usize, SimulatedWarp)>,
    /// [`Jobs::Pack`]: the deferred arrivals, priced, for the next carry.
    carry: Vec<(usize, CarrySlot)>,
    /// [`Jobs::Pack`]: every arrival's result.
    results: Vec<(usize, GuidedResult)>,
    /// [`Jobs::Pack`]: the stats of every arrival the worker priced.
    stats: KernelStats,
}

impl Done {
    /// Fold another worker's output into this one, unordered.
    fn absorb(&mut self, other: Done) {
        self.runs.extend(other.runs);
        self.outcomes.extend(other.outcomes);
        self.warps.extend(other.warps);
        self.carry.extend(other.carry);
        self.results.extend(other.results);
        self.stats.add(&other.stats);
    }

    /// Put every list in key order: worker interleaving never shows.
    fn sort(&mut self) {
        self.runs.sort_unstable_by_key(|e| e.0);
        self.outcomes.sort_unstable_by_key(|e| e.0);
        self.warps.sort_unstable_by_key(|e| e.0);
        self.carry.sort_unstable_by_key(|e| e.0);
        self.results.sort_unstable_by_key(|e| e.0);
    }
}

/// What one worker did on one chunk, or the payload of the panic that
/// stopped it.
type WorkerBatch = std::thread::Result<Done>;

/// Everything the calling thread and the helpers share.
struct Shared {
    pipeline: Pipeline,
    clock: Arc<dyn Clock>,
}

impl Shared {
    /// The worker loop: claim jobs until the chunk is exhausted. The whole
    /// loop sits inside the panic guard — the admission gate calls a
    /// user-supplied [`Clock`], whose panic must surface on the caller —
    /// and the first panic exhausts the counter so no worker starts another
    /// job of an aborted chunk. The workspace is safe to reuse after a
    /// panic: every run fully reinitialises it.
    fn work(&self, chunk: &Chunk, ws: &mut KernelWorkspace) -> WorkerBatch {
        let jobs = chunk.job_count();
        let batch = catch_unwind(AssertUnwindSafe(|| {
            let mut done = Done::default();
            loop {
                let idx = chunk.next.fetch_add(1, Ordering::Relaxed);
                if idx >= jobs {
                    break;
                }
                self.run_job(ws, chunk, idx, &mut done);
            }
            done
        }));
        if batch.is_err() {
            chunk.next.store(jobs, Ordering::Relaxed);
        }
        batch
    }

    fn run_job(&self, ws: &mut KernelWorkspace, chunk: &Chunk, idx: usize, done: &mut Done) {
        let Pipeline { scoring, config, .. } = &self.pipeline;
        match &chunk.jobs {
            Jobs::Runs => {
                done.runs.push((idx, run_task_ws(ws, &chunk.tasks[idx], scoring, config)))
            }
            Jobs::Tagged(metas) => {
                done.outcomes.push((idx, self.run_tagged_job(ws, &chunk.tasks[idx], &metas[idx])))
            }
            Jobs::Pack(pack) => match pack.warps.get(idx) {
                Some(warp) => {
                    let simulated = self.run_warp(ws, &chunk.tasks, pack, warp, done);
                    done.warps.push((idx, simulated));
                }
                None => {
                    let i = pack.deferred[idx - pack.warps.len()];
                    let task = &chunk.tasks[i];
                    let run = self.price_arrival(ws, task, i, done);
                    done.carry.push((idx, CarrySlot { run, workload: task.antidiags() as u64 }));
                }
            },
        }
    }

    fn run_tagged_job(&self, ws: &mut KernelWorkspace, task: &Task, meta: &JobMeta) -> JobOutcome {
        // Admission gate: a cancelled or deadline-expired request must never
        // reach kernel dispatch — checked here, at the last moment before
        // execution.
        let start = self.clock.now_ns();
        let queue_ns = start.saturating_sub(meta.enqueued_ns);
        if meta.cancelled() {
            return JobOutcome::Cancelled { queue_ns };
        }
        if meta.expired(start) {
            return JobOutcome::DroppedDeadline { queue_ns };
        }
        let run = align_task_ws(ws, task, &self.pipeline.scoring, &self.pipeline.config);
        let service_ns = self.clock.now_ns().saturating_sub(start);
        JobOutcome::Completed { run, queue_ns, service_ns }
    }

    /// Align and price arrival `i`: its result joins the chunk's, its stats
    /// the worker's total. A baseline's plan does both in place of the
    /// kernel and its device trace.
    fn price_arrival(
        &self,
        ws: &mut KernelWorkspace,
        task: &Task,
        i: usize,
        done: &mut Done,
    ) -> Priced {
        let pipeline = &self.pipeline;
        if let Some(plan) = &pipeline.baseline {
            // A baseline prices no steps or traffic of its own.
            let BaselineRun { result, cells, cycles } = (plan.run)(ws, task, pipeline);
            done.stats.add(&KernelStats {
                device_cells: cells,
                reference_cells: result.cells,
                zdropped_tasks: u64::from(result.stop.z_dropped()),
                tasks: 1,
                ..KernelStats::new()
            });
            done.results.push((i, result));
            return Priced::Cycles(cycles);
        }
        let Pipeline { scoring, config, cost, .. } = pipeline;
        let run = run_task_ws(ws, task, scoring, config);
        done.stats.add(&run.stats(config.subwarp_lanes, config, cost));
        done.results.push((i, run.result.clone()));
        Priced::Trace(run)
    }

    /// A warp job: align and price the warp's arrivals, simulate the warp
    /// over them and its carried runs, and drop the arrivals' units — they
    /// live for this one warp, on this one worker.
    fn run_warp(
        &self,
        ws: &mut KernelWorkspace,
        tasks: &[Task],
        pack: &Packing,
        warp: &WarpAssignment,
        done: &mut Done,
    ) -> SimulatedWarp {
        let Pipeline { config, cost, baseline, .. } = &self.pipeline;
        let carried = pack.carry.len();
        // Per queue slot, the arrival priced here, or `None` for a run the
        // chunk that executed it priced.
        let fresh: Vec<Vec<Option<Priced>>> = warp
            .queues
            .iter()
            .map(|q| {
                q.iter()
                    .map(|&p| {
                        let i = p.checked_sub(carried)?;
                        Some(self.price_arrival(ws, &tasks[i], i, done))
                    })
                    .collect()
            })
            .collect();
        let queues = warp.queues.iter().zip(&fresh).map(move |(q, f)| {
            q.iter().zip(f).map(move |(&p, run)| run.as_ref().unwrap_or_else(|| &pack.carry[p].run))
        });
        if baseline.is_some() {
            // A baseline's queues run side by side, each its tasks in turn.
            let cycles = queues.map(|q| q.map(Priced::cycles).sum::<f64>()).fold(0.0, f64::max);
            return SimulatedWarp { cycles, subwarp_blocks: Vec::new() };
        }
        let queues: Vec<Vec<&TaskRun>> = queues.map(|q| q.map(Priced::trace).collect()).collect();
        let outcome = simulate_warp(&queues, config, cost);
        let subwarp_blocks = queues
            .iter()
            .zip(outcome.subwarp_blocks)
            .map(|(q, executed)| (q.iter().map(|r| r.device_blocks()).sum(), executed))
            .collect();
        SimulatedWarp { cycles: outcome.cycles, subwarp_blocks }
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

    /// The one dispatch primitive: publish `tasks` and their `jobs` as a
    /// chunk, work on it alongside as many helpers as it has jobs to claim,
    /// and return what the workers did, merged and in key order — worker
    /// interleaving never changes the output — with the jobs handed back.
    /// `tasks` is left empty with its capacity intact, so an inline stream
    /// reuses one chunk buffer throughout.
    ///
    /// A panic in any worker is re-raised here with its original payload,
    /// after every woken helper has answered: nothing of an aborted chunk
    /// is left in flight and the engine stays usable.
    fn dispatch(&mut self, tasks: &mut Vec<Task>, jobs: Jobs) -> (Done, Jobs) {
        let chunk =
            Arc::new(Chunk { tasks: std::mem::take(tasks), jobs, next: AtomicUsize::new(0) });
        let woken = self.helpers.len().min(chunk.job_count().saturating_sub(1));
        for (chunk_tx, _) in &self.helpers[..woken] {
            chunk_tx.send(Arc::clone(&chunk)).expect("helper threads live until drop");
        }
        let own = self.shared.work(&chunk, &mut self.ws);
        let answers: Vec<WorkerBatch> =
            (0..woken).map(|_| self.done_rx.recv().expect("every woken helper answers")).collect();
        let mut done = Done::default();
        for batch in std::iter::once(own).chain(answers) {
            match batch {
                Ok(batch) => done.absorb(batch),
                Err(payload) => resume_unwind(payload),
            }
        }
        done.sort();
        let chunk = Arc::into_inner(chunk).expect("helpers drop the chunk before answering");
        *tasks = chunk.tasks;
        tasks.clear();
        (done, chunk.jobs)
    }

    /// Execute one chunk of owned tasks on the pool — each aligned and its
    /// device trace walked — returning the runs in input order.
    pub fn run_tasks(&mut self, mut tasks: Vec<Task>) -> Vec<TaskRun> {
        let (done, _) = self.dispatch(&mut tasks, Jobs::Runs);
        done.runs.into_iter().map(|(_, run)| run).collect()
    }

    /// Execute owned tasks with per-request [`JobMeta`] (deadline,
    /// cancellation, enqueue tick), returning one [`JobOutcome`] per job in
    /// input order: every job is answered exactly once — completed,
    /// deadline-dropped, or cancelled — never lost. Dropped and cancelled
    /// jobs never reach kernel dispatch, and a completed one is aligned but
    /// never priced: the serve path walks no device trace.
    pub fn run_tagged(&mut self, jobs: Vec<(Task, JobMeta)>) -> Vec<JobOutcome> {
        let (mut tasks, metas) = jobs.into_iter().unzip();
        let (done, _) = self.dispatch(&mut tasks, Jobs::Tagged(metas));
        done.outcomes.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// Align one owned chunk end to end (warp plan → warp jobs → device
    /// scheduling) on its own: nothing is carried in or out. This is
    /// [`Pipeline::align_batch`] on a live engine.
    pub fn align_chunk(&mut self, mut tasks: Vec<Task>) -> BatchReport {
        self.align_chunk_carry(&mut tasks, &mut Vec::new(), true)
    }

    /// The one chunk packer. Packing needs no kernel result — `carry_split`
    /// and `build_warps` read only the a-priori workload (§5.6), as the
    /// paper assigns tasks to warps before launch (§4.4) — so the plan comes
    /// first, and the warp is what the workers claim. A warp job aligns its
    /// arrivals, prices them and simulates the warp over them plus any
    /// carried runs; a deferred job aligns and prices one arrival into the
    /// next chunk's carry, where it enters that chunk's largest-first fill
    /// instead of seeding an underfull trailing warp. Every arrival's result
    /// and stats report in this chunk, and a carried run's in the chunk
    /// that ran it, so results and stats are packing-independent and
    /// carry-over only ever changes the simulated warp schedule. With
    /// `flush` the whole pool packs, draining the carry deterministically —
    /// at stream end, and for [`BatchEngine::align_chunk`], which packs a
    /// chunk alone.
    fn align_chunk_carry(
        &mut self,
        arrived: &mut Vec<Task>,
        carry: &mut Vec<CarrySlot>,
        flush: bool,
    ) -> BatchReport {
        let pipeline = &self.shared.pipeline;
        let (queues, per_queue) = pipeline.warp_shape();
        let strategy = pipeline.default_strategy();
        // The packing pool: carried runs first (they have waited longest),
        // then this chunk's arrivals, each keyed by its a-priori workload
        // estimate, the number of anti-diagonals (§5.6).
        let carried = std::mem::take(carry);
        let pool: Vec<u64> = carried
            .iter()
            .map(|s| s.workload)
            .chain(arrived.iter().map(|t| t.antidiags() as u64))
            .collect();
        // What the carry split keeps packs now; the rest is the next carry.
        // Incoming order carries its trailing arrivals, so its warps are the
        // same consecutive tasks at every chunk size; a flush packs them all.
        let (t, capacity) = (pool.len(), queues * per_queue);
        let (keep, defer) = if flush || strategy == OrderingStrategy::Original {
            let kept = if flush { t } else { t - t % capacity };
            ((0..kept).collect(), (kept..t).collect())
        } else {
            carry_split(&pool, capacity)
        };
        let packed: Vec<u64> = keep.iter().map(|&p| pool[p]).collect();
        let mut warps = build_warps(&packed, queues, per_queue, strategy);
        for slot in warps.iter_mut().flat_map(|w| w.queues.iter_mut().flatten()) {
            *slot = keep[*slot];
        }
        // Carried runs deferred again just wait; each deferred arrival is a
        // job.
        let (again, deferred) = defer.split_at(defer.partition_point(|&p| p < carried.len()));
        let deferred = deferred.iter().map(|&p| p - carried.len()).collect();
        let arrivals = arrived.len();
        let (done, jobs) =
            self.dispatch(arrived, Jobs::Pack(Packing { carry: carried, warps, deferred }));
        let Jobs::Pack(Packing { carry: carried, .. }) = jobs else {
            unreachable!("dispatch hands back the jobs it was given")
        };
        // The next carry, in pool order: the carried runs deferred again,
        // then the deferred arrivals. The packed carried runs drop here.
        let mut again = again.iter().copied().peekable();
        carry.extend(
            carried.into_iter().enumerate().filter_map(|(p, s)| again.next_if_eq(&p).map(|_| s)),
        );
        carry.extend(done.carry.into_iter().map(|(_, slot)| slot));
        debug_assert_eq!(done.results.len(), arrivals, "every arrival is in one job");
        let mut warp_cycles = Vec::with_capacity(done.warps.len());
        let mut subwarp_blocks = Vec::new();
        for (_, warp) in done.warps {
            warp_cycles.push(warp.cycles);
            subwarp_blocks.extend(warp.subwarp_blocks);
        }
        let pipeline = &self.shared.pipeline;
        let (devices, device) = pipeline.schedule_devices(&warp_cycles);
        BatchReport {
            results: done.results.into_iter().map(|(_, r)| r).collect(),
            elapsed_ms: pipeline.elapsed_ms(&device, &done.stats),
            device,
            devices,
            stats: done.stats,
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
    /// Only one chunk of tasks and results is in memory at a time, with the
    /// device traces of one warp per worker; iterate the returned
    /// [`StreamRun`] for per-chunk reports, then call [`StreamRun::finish`]
    /// for the folded totals. Every chunk packs with carry-over, so on one
    /// GPU steady-state memory is that plus at most one warp's worth of
    /// carried runs plus O(warp slots) schedule state — independent of
    /// stream length.
    ///
    /// With a chunk size larger than the stream, the chunk reports' warp
    /// latencies and the summary's device schedule are bit-identical to
    /// [`Pipeline::align_batch`]'s (at exactly the stream's length the
    /// trailing underfull warp is deferred into a carry-only flush chunk).
    pub fn align_stream_with<'e, I>(&'e mut self, tasks: I, opts: StreamOptions) -> StreamRun<'e>
    where
        I: IntoIterator<Item = Task>,
        I::IntoIter: 'e,
    {
        let mut tasks = tasks.into_iter().map(Ok);
        self.stream_run(move |buf| fill_chunk(&mut tasks, opts.chunk_size, buf))
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
    ) -> StreamRun<'_>
    where
        S: Iterator<Item = Result<Task, String>> + Send + 'static,
    {
        assert!(
            prefetch_depth >= 1,
            "prefetch_depth must be at least 1 (use align_stream_with for a synchronous stream)"
        );
        let mut pf = PrefetchedChunks::spawn(source, opts.chunk_size, prefetch_depth);
        self.stream_run(move |buf| pf.next_chunk(buf))
    }

    fn stream_run<'e>(
        &'e mut self,
        source: impl FnMut(&mut Vec<Task>) -> SourceEnd + 'e,
    ) -> StreamRun<'e> {
        let pipeline = &self.shared.pipeline;
        let schedule = if pipeline.gpus == 1 {
            StreamSchedule::Pooled(SlotSchedule::new(pipeline.spec.warp_slots()))
        } else {
            StreamSchedule::Retained(Vec::new())
        };
        StreamRun {
            engine: self,
            source: Some(Box::new(source)),
            buf: Vec::new(),
            carry: Vec::new(),
            offset: 0,
            chunks: 0,
            stats: KernelStats::new(),
            schedule,
            error: None,
        }
    }
}

/// How a stream source ended, as of the chunk just filled: `None` while it
/// has more tasks, else `Ok` for a clean end or the source's error.
pub(crate) type SourceEnd = Option<Result<(), String>>;

/// A stream's source: fills the chunk buffer and says how the source ended,
/// if it did, by [`fill_chunk`]'s contract.
type ChunkFill<'e> = Box<dyn FnMut(&mut Vec<Task>) -> SourceEnd + 'e>;

/// Initial capacity clamp for a chunk buffer: a whole-stream-sized
/// `chunk_size` grows organically instead of reserving it all up front.
const CHUNK_RESERVE: usize = 8192;

/// The one rule for where a stream cuts its chunks: pull tasks from `source`
/// into `buf` until it holds `chunk_size` or the source ends. Returns how
/// the source ended — cleanly, or with its error — if it did in this chunk,
/// and `None` for a full chunk (the source is not probed past it). An empty
/// `buf` first gets room for the chunk, up to [`CHUNK_RESERVE`] tasks.
///
/// Both stream sources cut through it: the inline source on the calling
/// thread, the prefetch reader on its own.
pub(crate) fn fill_chunk<S>(source: &mut S, chunk_size: usize, buf: &mut Vec<Task>) -> SourceEnd
where
    S: Iterator<Item = Result<Task, String>>,
{
    buf.reserve_exact(chunk_size.min(CHUNK_RESERVE));
    while buf.len() < chunk_size {
        match source.next() {
            Some(Ok(task)) => buf.push(task),
            Some(Err(e)) => return Some(Err(e)),
            None => return Some(Ok(())),
        }
    }
    None
}

/// A run executed but not yet packed into a warp: deferred from the chunk
/// it arrived in so it can join a later chunk's largest-first fill instead
/// of seeding an underfull trailing warp.
struct CarrySlot {
    run: Priced,
    /// A-priori workload estimate (anti-diagonals), cached from the task.
    workload: u64,
}

/// An arrival aligned and priced for the warp that packs it. A pipeline
/// prices every run one way, so a warp never mixes the two.
enum Priced {
    /// AGAThA's: the device trace the warp simulation walks.
    Trace(TaskRun),
    /// A baseline's: the cycles the task occupies its queue.
    Cycles(f64),
}

impl Priced {
    fn trace(&self) -> &TaskRun {
        let Priced::Trace(run) = self else { unreachable!("an AGAThA warp packs traces") };
        run
    }

    fn cycles(&self) -> f64 {
        let Priced::Cycles(cycles) = self else { unreachable!("a baseline warp packs cycles") };
        *cycles
    }
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
pub struct StreamRun<'e> {
    engine: &'e mut BatchEngine,
    /// `None` once the source has ended.
    source: Option<ChunkFill<'e>>,
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
}

impl Iterator for StreamRun<'_> {
    type Item = ChunkReport;

    fn next(&mut self) -> Option<ChunkReport> {
        if let Some(fill) = &mut self.source {
            if let Some(end) = fill(&mut self.buf) {
                self.source = None;
                if let Err(message) = end {
                    self.error = Some(StreamError {
                        chunk: self.chunks,
                        offset: self.offset + self.buf.len(),
                        message,
                    });
                }
            }
        }
        if self.buf.is_empty() && self.carry.is_empty() {
            // Nothing arrived and nothing carried: the stream is over.
            return None;
        }
        let offset = self.offset;
        self.offset += self.buf.len();
        self.chunks += 1;
        // The chunk the source ended in (or a trailing carry-only chunk)
        // packs the whole pool.
        let flush = self.source.is_none();
        let report = self.engine.align_chunk_carry(&mut self.buf, &mut self.carry, flush);
        self.stats.add(&report.stats);
        match &mut self.schedule {
            StreamSchedule::Pooled(sched) => sched.extend(&report.warp_cycles),
            StreamSchedule::Retained(cycles) => cycles.extend_from_slice(&report.warp_cycles),
        }
        Some(ChunkReport { offset, report })
    }
}

impl StreamRun<'_> {
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
            elapsed_ms: pipeline.elapsed_ms(&device, &self.stats),
            stats: std::mem::replace(&mut self.stats, KernelStats::new()),
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

    #[test]
    fn chunked_stream_matches_whole_batch() {
        let tasks = mk_tasks(30, 110, 41);
        let whole = pipeline().align_batch(&tasks);
        for chunk_size in [1, 7, 30, 64] {
            let mut engine = pipeline().engine();
            let mut results = Vec::new();
            let mut chunks = 0;
            let mut run =
                engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(chunk_size));
            for chunk in run.by_ref() {
                assert_eq!(chunk.offset, results.len());
                results.extend(chunk.report.results);
                chunks += 1;
            }
            let summary = run.finish();
            assert_eq!(results, whole.results, "chunk_size {chunk_size}");
            assert_eq!(summary.stats, whole.stats, "chunk_size {chunk_size}");
            assert_eq!(summary.tasks, tasks.len());
            assert_eq!(summary.chunks, chunks, "chunk_size {chunk_size}");
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
        let a = engine.align_chunk(tasks.clone());
        let b = engine.align_chunk(tasks.clone());
        assert_eq!(a.results, b.results);
        let c = engine.align_chunk(Vec::new());
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
    fn an_incoming_order_stream_reports_the_same_at_every_chunk_size() {
        // Under `Original` order the carry is the trailing arrivals, so every
        // warp is the same run of consecutive tasks at every chunk size: the
        // warp latencies, the pooled schedule and the results all equal one
        // whole chunk's. (Deferring the smallest tasks would reorder them.)
        let tasks = mk_tasks(131, 40, 103);
        let baseline = |threads| {
            let mut p = Pipeline::new(Scoring::new(2, 4, 4, 2, 60, 16), AgathaConfig::baseline());
            p.host_threads = threads;
            assert_eq!(p.default_strategy(), OrderingStrategy::Original);
            p
        };
        let stream = |threads, chunk_size| {
            let mut engine = baseline(threads).engine();
            let mut run =
                engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(chunk_size));
            let (mut results, mut cycles) = (Vec::new(), Vec::new());
            for chunk in run.by_ref() {
                results.extend(chunk.report.results);
                cycles.extend(chunk.report.warp_cycles);
            }
            (results, cycles, run.finish().elapsed_ms)
        };
        let whole = stream(1, tasks.len() + 1);
        assert_eq!(whole.1.len(), tasks.len().div_ceil(8));
        for (threads, chunk_size) in [(1, 7), (2, 7), (2, 100)] {
            assert_eq!(stream(threads, chunk_size), whole, "chunk {chunk_size}, {threads} threads");
        }
    }

    #[test]
    fn a_stream_follows_the_plans_ordering() {
        // The packer takes its ordering from the plan, so under every
        // ordering a whole-chunk stream is `align_batch` to the bit, and
        // cutting it into chunks of 7 on two workers moves only the warps.
        let tasks = mk_tasks(29, 100, 61);
        let mut schedules = Vec::new();
        for ordering in [
            OrderingStrategy::Original,
            OrderingStrategy::Sorted,
            OrderingStrategy::UnevenBucketing,
        ] {
            let plan = |threads| {
                let mut p = Pipeline::new(
                    Scoring::new(2, 4, 4, 2, 60, 16),
                    AgathaConfig::agatha().with_ordering(ordering),
                );
                p.host_threads = threads;
                p
            };
            let stream = |threads, chunk_size| {
                let mut engine = plan(threads).engine();
                let mut run =
                    engine.align_stream_with(tasks.iter().cloned(), StreamOptions::new(chunk_size));
                let (mut results, mut cycles) = (Vec::new(), Vec::new());
                for chunk in run.by_ref() {
                    results.extend(chunk.report.results);
                    cycles.extend(chunk.report.warp_cycles.iter().map(|c| c.to_bits()));
                }
                (results, cycles, run.finish())
            };
            let batch = plan(0).align_batch(&tasks);
            let (results, cycles, whole) = stream(1, tasks.len() + 1);
            let batch_cycles: Vec<u64> = batch.warp_cycles.iter().map(|c| c.to_bits()).collect();
            assert_eq!(results, batch.results, "{ordering:?}");
            assert_eq!(cycles, batch_cycles, "{ordering:?}");
            assert_eq!(whole.elapsed_ms.to_bits(), batch.elapsed_ms.to_bits(), "{ordering:?}");
            let (chunked, _, summary) = stream(2, 7);
            assert_eq!(chunked, results, "{ordering:?}");
            assert_eq!(summary.stats, whole.stats, "{ordering:?}");
            schedules.push(cycles);
        }
        // Each ordering packs its own warps.
        assert_ne!(schedules[0], schedules[1]);
        assert_ne!(schedules[1], schedules[2]);
        assert_ne!(schedules[0], schedules[2]);
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
            let report = engine.align_chunk(slice.to_vec());
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

    /// Each chunk of a stream as `(offset, results, warp latencies)`, and
    /// the stream's end.
    type Cut = (Vec<(usize, usize, Vec<f64>)>, Result<StreamSummary, StreamError>);

    fn cut(mut run: StreamRun<'_>) -> Cut {
        let chunks = run
            .by_ref()
            .map(|c| (c.offset, c.report.results.len(), c.report.warp_cycles))
            .collect();
        (chunks, run.finish_checked())
    }

    #[test]
    fn inline_and_prefetched_streams_cut_the_same_chunks() {
        // Every length up to a few warps against chunk sizes below, at and
        // past the capacity of a warp (8) and the stream: short, full and
        // carry-only final chunks all arise.
        let tasks = mk_tasks(40, 8, 73);
        let mut engine = pipeline().engine();
        for len in 0..=tasks.len() {
            for chunk_size in [1, 2, 3, 7, 40, 41] {
                let opts = StreamOptions::new(chunk_size);
                let (want, want_end) =
                    cut(engine.align_stream_with(tasks[..len].iter().cloned(), opts.clone()));
                let want_end = want_end.expect("an in-memory source cannot fail");
                for depth in [1, 2] {
                    let what = format!("{len} tasks, chunk_size {chunk_size}, prefetch {depth}");
                    let owned = tasks[..len].to_vec();
                    let source = owned.into_iter().map(Ok::<Task, String>);
                    let (got, got_end) =
                        cut(engine.align_stream_prefetched(source, depth, opts.clone()));
                    let got_end = got_end.expect("an in-memory source cannot fail");
                    assert_eq!(got, want, "{what}");
                    assert_eq!(got_end.tasks, want_end.tasks, "{what}");
                    assert_eq!(got_end.chunks, want_end.chunks, "{what}");
                    assert_eq!(got_end.stats, want_end.stats, "{what}");
                    assert_eq!(got_end.device, want_end.device, "{what}");
                    assert_eq!(got_end.elapsed_ms, want_end.elapsed_ms, "{what}");
                }
            }
        }
    }

    #[test]
    fn a_source_failing_on_a_chunk_boundary_still_flushes_the_carry() {
        // The source fails right after its 6th task, at chunk size 3: two
        // full chunks (each leaving an underfull warp's worth deferred), then
        // the chunk the failure ended the source in, which arrives empty and
        // flushes the carry.
        let tasks = mk_tasks(6, 60, 79);
        for depth in [1, 2] {
            let mut engine = pipeline().engine();
            let source = tasks
                .clone()
                .into_iter()
                .map(Ok::<Task, String>)
                .chain(std::iter::once(Err("bad record".to_string())));
            let (chunks, end) =
                cut(engine.align_stream_prefetched(source, depth, StreamOptions::new(3)));
            let shape: Vec<(usize, usize)> = chunks.iter().map(|c| (c.0, c.1)).collect();
            assert_eq!(shape, [(0, 3), (3, 3), (6, 0)], "prefetch {depth}");
            assert!(chunks[..2].iter().all(|c| c.2.is_empty()), "both chunks defer everything");
            assert_eq!(chunks[2].2.len(), 1, "the flush packs the six carried runs");
            let err = end.expect_err("the source failed");
            assert_eq!((err.chunk, err.offset), (2, 6), "prefetch {depth}");
            assert_eq!(err.message, "bad record");
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
        let reference = engine.align_chunk(tasks.clone());
        clock.set_ns(1_000);
        let dead: Vec<(Task, JobMeta)> = tasks
            .iter()
            .cloned()
            .map(|t| (t, JobMeta { enqueued_ns: 0, deadline_ns: Some(500), cancel: None }))
            .collect();
        let outcomes = engine.run_tagged(dead);
        assert!(outcomes.iter().all(|o| matches!(o, JobOutcome::DroppedDeadline { .. })));
        let again = engine.align_chunk(tasks.clone());
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

    /// One task per length: an LCG reference of `len` bases and a copy
    /// with a mismatch every 19th, so workloads order like the lengths.
    fn sized_tasks(lens: &[usize], seed: u64) -> Vec<Task> {
        let mut x = seed | 1;
        let mut tasks = Vec::new();
        for (id, &len) in lens.iter().enumerate() {
            let (mut r, mut q) = (String::new(), String::new());
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

    /// Every chunk report of a stream and its summary, rendered whole:
    /// `Debug` prints each f64 in its shortest round-trip form, so equal
    /// strings mean equal fields, floats by their bits.
    fn stream_reports(threads: usize, tasks: &[Task], chunk_size: usize) -> Vec<String> {
        let mut engine = pipeline_on(threads).engine();
        let opts = StreamOptions::new(chunk_size);
        let mut run = engine.align_stream_with(tasks.iter().cloned(), opts);
        let mut reports: Vec<String> = run.by_ref().map(|c| format!("{c:?}")).collect();
        reports.push(format!("{:?}", run.finish()));
        reports
    }

    #[test]
    fn every_claim_shape_reports_the_same_on_any_worker_count() {
        // A warp holds 8 tasks (`carry_over_defers_the_trailing_underfull_
        // warp` pins it). Each stream puts the packer's job list in one
        // shape, and its chunk reports must not depend on who claims what.
        let lens = [90, 80, 70, 60, 20, 95, 85, 75, 65, 30];
        let mixed = sized_tasks(&lens, 83);
        // The mixed stream's second chunk pools the five carried runs with
        // five arrivals, and the split defers one of each.
        let workloads: Vec<u64> = mixed.iter().map(|t| t.antidiags() as u64).collect();
        assert_eq!(carry_split(&workloads, 8).1, [4, 9], "one carried run, one arrival");
        let cases: [(&str, Vec<Task>, usize); 6] = [
            // One full chunk of one warp: a single job, so at 3 and 8
            // threads most helpers stay asleep.
            ("one warp", mk_tasks(8, 70, 89), 8),
            // A chunk under one warp's capacity defers every arrival: only
            // deferred jobs, then a carry-only flush chunk packs them.
            ("only deferred jobs, then a carry-only flush", mk_tasks(5, 70, 97), 5),
            ("a carry-only flush after full warps", mk_tasks(13, 60, 101), 13),
            ("an empty stream", Vec::new(), 4),
            ("a deferred set of carried runs and arrivals", mixed, 5),
            ("warps and deferred arrivals of a long tail", long_tailed_tasks(), 12),
        ];
        for (what, tasks, chunk_size) in cases {
            let want = stream_reports(1, &tasks, chunk_size);
            for threads in [2, 3, 8] {
                let got = stream_reports(threads, &tasks, chunk_size);
                assert_eq!(got, want, "{what}: {threads} threads");
            }
        }
    }

    #[test]
    fn a_claim_shape_shows_in_its_chunk_reports() {
        // The shapes the test above relies on, as the reports see them.
        let shape = |tasks: &[Task], chunk_size: usize| -> Vec<(usize, usize)> {
            let mut engine = pipeline_on(2).engine();
            let run = engine.align_stream_with(tasks.to_vec(), StreamOptions::new(chunk_size));
            run.map(|c| (c.report.results.len(), c.report.warp_cycles.len())).collect()
        };
        assert_eq!(shape(&mk_tasks(8, 70, 89), 8), [(8, 1)]);
        assert_eq!(shape(&mk_tasks(5, 70, 97), 5), [(5, 0), (0, 1)]);
        let mixed = sized_tasks(&[90, 80, 70, 60, 20, 95, 85, 75, 65, 30], 83);
        assert_eq!(shape(&mixed, 5), [(5, 0), (5, 1), (0, 1)]);
        assert_eq!(shape(&[], 4), []);
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

    fn completed_runs(outcomes: Vec<JobOutcome>) -> Vec<HostRun> {
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
