//! End-to-end batch alignment: tasks → kernel runs → warp assignment →
//! warp simulation → device scheduling → scores + simulated time.
//!
//! [`Pipeline`] is the configuration (scoring, kernel options, device) and
//! the simulation half of a report; execution lives in
//! [`crate::engine::BatchEngine`], and [`Pipeline::align_batch`] is a
//! stream of one chunk on a short-lived engine.

use agatha_align::{GuidedResult, Scoring, Task};
use agatha_gpu_sim::{sched, CostModel, DeviceReport, GpuSpec, KernelStats};

use crate::bucketing::{OrderingStrategy, WarpAssignment};
use crate::engine::BatchEngine;
use crate::kernel::TaskRun;
use crate::options::AgathaConfig;
use crate::warp_sim::simulate_warp;

/// A configured aligner: scoring, kernel options and target device.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Alignment scoring parameters.
    pub scoring: Scoring,
    /// Kernel configuration.
    pub config: AgathaConfig,
    /// Target GPU.
    pub spec: GpuSpec,
    /// Cost model (derived from `spec` unless overridden).
    pub cost: CostModel,
    /// Number of identical GPUs (tasks split evenly; §5.8).
    pub gpus: usize,
    /// Host threads for the simulation itself (0 = all available).
    pub host_threads: usize,
}

/// Everything a batch run produces.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Alignment results, indexed like the input tasks.
    pub results: Vec<GuidedResult>,
    /// Simulated kernel time in milliseconds (max across GPUs).
    pub elapsed_ms: f64,
    /// Scheduling detail of the straggler device — the one whose makespan
    /// determines `elapsed_ms` (with one GPU, simply that device).
    pub device: DeviceReport,
    /// Per-GPU scheduling reports, in device order (`gpus` entries).
    pub devices: Vec<DeviceReport>,
    /// Aggregate execution statistics.
    pub stats: KernelStats,
    /// Per-warp latencies in submission order (cycles).
    pub warp_cycles: Vec<f64>,
    /// Fig. 12 data: per subwarp slot, (a-priori assigned device blocks,
    /// actually executed device blocks after rejoining).
    pub subwarp_blocks: Vec<(u64, f64)>,
}

impl Pipeline {
    /// AGAThA on a single RTX A6000 (the paper's primary setup).
    pub fn new(scoring: Scoring, config: AgathaConfig) -> Pipeline {
        let spec = GpuSpec::rtx_a6000();
        let cost = CostModel::for_spec(&spec);
        Pipeline { scoring, config, spec, cost, gpus: 1, host_threads: 0 }
    }

    /// Change the target GPU.
    pub fn with_spec(mut self, spec: GpuSpec) -> Pipeline {
        self.cost = CostModel::for_spec(&spec);
        self.spec = spec;
        self
    }

    /// Use `gpus` identical devices.
    pub fn with_gpus(mut self, gpus: usize) -> Pipeline {
        assert!(gpus >= 1);
        self.gpus = gpus;
        self
    }

    /// The ordering strategy implied by the configuration.
    pub fn default_strategy(&self) -> OrderingStrategy {
        if self.config.uneven_bucketing {
            OrderingStrategy::UnevenBucketing
        } else {
            OrderingStrategy::Original
        }
    }

    /// Align a batch using the configuration's implied ordering.
    pub fn align_batch(&self, tasks: &[Task]) -> BatchReport {
        self.align_batch_with_strategy(tasks, self.default_strategy())
    }

    /// Align a batch with an explicit ordering strategy (Fig. 11 compares
    /// several on otherwise identical configurations): one chunk on an
    /// engine of at most one worker per task.
    pub fn align_batch_with_strategy(
        &self,
        tasks: &[Task],
        strategy: OrderingStrategy,
    ) -> BatchReport {
        let mut sized = self.clone();
        sized.host_threads = self.worker_threads().min(tasks.len().max(1));
        BatchEngine::new(sized).align_chunk(tasks.to_vec(), strategy)
    }

    /// Spin up a persistent engine for this configuration: the calling
    /// thread plus `host_threads − 1` helpers, each reusing one
    /// [`crate::kernel::KernelWorkspace`] across every task it ever
    /// executes — the entry point for bounded-memory
    /// [`BatchEngine::align_stream_with`] runs.
    pub fn engine(&self) -> BatchEngine {
        BatchEngine::new(self.clone())
    }

    /// Schedule warp latencies onto the configured device(s): one report
    /// per GPU, plus the straggler whose makespan bounds the launch —
    /// `device`/`elapsed_ms` in every report derive from this one place.
    pub(crate) fn schedule_devices(
        &self,
        warp_cycles: &[f64],
    ) -> (Vec<DeviceReport>, DeviceReport) {
        let devices = if self.gpus == 1 {
            vec![sched::schedule(warp_cycles, self.spec.warp_slots())]
        } else {
            sched::multi_gpu_schedule(warp_cycles, self.spec.warp_slots(), self.gpus)
        };
        let straggler = devices
            .iter()
            .max_by(|a, b| a.makespan_cycles.total_cmp(&b.makespan_cycles))
            .cloned()
            .expect("at least one device");
        (devices, straggler)
    }

    /// Number of host worker threads implied by the configuration.
    pub(crate) fn worker_threads(&self) -> usize {
        if self.host_threads > 0 {
            self.host_threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// Simulate all warps, returning per-warp cycles (submission order) and
    /// per-subwarp-slot block accounting, for the engine's chunk packer
    /// (whose pool may mix a chunk's runs with runs carried over from
    /// earlier chunks).
    pub(crate) fn simulate_warps(
        &self,
        runs: &[TaskRun],
        warps: &[WarpAssignment],
    ) -> (Vec<f64>, Vec<(u64, f64)>) {
        let mut warp_cycles = Vec::with_capacity(warps.len());
        let mut subwarp_blocks = Vec::new();
        for w in warps {
            let queues: Vec<Vec<&TaskRun>> =
                w.queues.iter().map(|q| q.iter().map(|&i| &runs[i]).collect()).collect();
            let outcome = simulate_warp(&queues, &self.config, &self.cost);
            warp_cycles.push(outcome.cycles);
            for (s, q) in w.queues.iter().enumerate() {
                let assigned: u64 = q.iter().map(|&i| runs[i].device_blocks()).sum();
                subwarp_blocks.push((assigned, outcome.subwarp_blocks[s]));
            }
        }
        (warp_cycles, subwarp_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agatha_align::guided::guided_align;

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

    #[test]
    fn batch_results_are_exact() {
        let scoring = Scoring::new(2, 4, 4, 2, 60, 16);
        let tasks = mk_tasks(24, 120, 77);
        let p = Pipeline::new(scoring, AgathaConfig::agatha());
        let rep = p.align_batch(&tasks);
        assert_eq!(rep.results.len(), tasks.len());
        for (t, got) in tasks.iter().zip(&rep.results) {
            let want = guided_align(&t.reference, &t.query, &scoring);
            assert!(got.same_alignment(&want), "task {}", t.id);
        }
        assert!(rep.elapsed_ms > 0.0);
    }

    #[test]
    fn strategies_do_not_change_scores() {
        let scoring = Scoring::new(2, 4, 4, 2, 60, 16);
        let tasks = mk_tasks(17, 100, 99);
        let p = Pipeline::new(scoring, AgathaConfig::agatha());
        let a = p.align_batch_with_strategy(&tasks, OrderingStrategy::Original);
        let b = p.align_batch_with_strategy(&tasks, OrderingStrategy::Sorted);
        let c = p.align_batch_with_strategy(&tasks, OrderingStrategy::UnevenBucketing);
        for i in 0..tasks.len() {
            assert!(a.results[i].same_alignment(&b.results[i]));
            assert!(a.results[i].same_alignment(&c.results[i]));
        }
    }

    #[test]
    fn multi_gpu_is_faster() {
        let scoring = Scoring::new(2, 4, 4, 2, 60, 16);
        let tasks = mk_tasks(64, 100, 5);
        let one = Pipeline::new(scoring, AgathaConfig::agatha()).align_batch(&tasks);
        let four = Pipeline::new(scoring, AgathaConfig::agatha()).with_gpus(4).align_batch(&tasks);
        assert!(four.elapsed_ms <= one.elapsed_ms);
    }

    #[test]
    fn multi_gpu_device_report_agrees_with_elapsed() {
        let scoring = Scoring::new(2, 4, 4, 2, 60, 16);
        let tasks = mk_tasks(64, 100, 5);
        let p = Pipeline::new(scoring, AgathaConfig::agatha()).with_gpus(4);
        let rep = p.align_batch(&tasks);
        assert_eq!(rep.devices.len(), 4, "one report per GPU");
        // `device` is the straggler shard, so its makespan IS the elapsed
        // time (the old code reported the single-device schedule here).
        assert!((rep.elapsed_ms - rep.device.ms(&p.spec)).abs() < 1e-12);
        let worst = rep.devices.iter().map(|d| d.makespan_cycles).fold(0.0, f64::max);
        assert_eq!(rep.device.makespan_cycles, worst);
        let warps: usize = rep.devices.iter().map(|d| d.warps).sum();
        assert_eq!(warps, rep.warp_cycles.len());
    }

    #[test]
    fn single_threaded_host_matches_parallel() {
        let scoring = Scoring::new(2, 4, 4, 2, 60, 16);
        let tasks = mk_tasks(9, 80, 13);
        let mut p = Pipeline::new(scoring, AgathaConfig::agatha());
        let par = p.align_batch(&tasks);
        p.host_threads = 1;
        let ser = p.align_batch(&tasks);
        assert_eq!(par.results, ser.results);
        assert!((par.elapsed_ms - ser.elapsed_ms).abs() < 1e-12);
    }

    #[test]
    fn subwarp_block_accounting_conserves_work() {
        use agatha_align::simd::{supported_backends, BackendChoice};
        let scoring = Scoring::new(2, 4, 4, 2, 60, 16);
        let tasks = mk_tasks(20, 90, 21);
        // The accounting is in device blocks, whatever tile the host ran
        // (`sse41`, where the host has it, runs 8×8; the others 16×16).
        for backend in supported_backends() {
            let cfg = AgathaConfig::agatha().with_backend(BackendChoice::Fixed(backend));
            let rep = Pipeline::new(scoring, cfg).align_batch(&tasks);
            let assigned: u64 = rep.subwarp_blocks.iter().map(|&(a, _)| a).sum();
            let executed: f64 = rep.subwarp_blocks.iter().map(|&(_, e)| e).sum();
            assert_eq!(assigned, rep.stats.device_cells / 64, "{}", backend.name());
            assert!((executed - assigned as f64).abs() / (assigned as f64) < 1e-9);
        }
    }

    #[test]
    fn a_dpx_spec_is_priced_with_dpx() {
        // §6: DPX comes from the device spec alone, so a Hopper-like
        // pipeline prices its cells with DPX and simulates faster than the
        // same pipeline with it cleared.
        let scoring = Scoring::new(2, 4, 4, 2, 60, 16);
        let tasks = mk_tasks(24, 120, 31);
        let hopper =
            Pipeline::new(scoring, AgathaConfig::agatha()).with_spec(GpuSpec::hopper_like());
        assert!(hopper.cost.use_dpx, "the spec declares DPX");
        let mut cleared = hopper.clone();
        cleared.cost.use_dpx = false;
        let dpx = hopper.align_batch(&tasks).elapsed_ms;
        let plain = cleared.align_batch(&tasks).elapsed_ms;
        assert!(dpx < plain, "DPX must help: {dpx} vs {plain}");
    }

    #[test]
    fn empty_batch() {
        let p = Pipeline::new(Scoring::default(), AgathaConfig::agatha());
        let rep = p.align_batch(&[]);
        assert!(rep.results.is_empty());
        assert_eq!(rep.elapsed_ms, 0.0);
    }
}
