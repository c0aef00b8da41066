//! End-to-end pipeline tests: datasets through the full batch aligner,
//! scheduling invariants, feature interactions and performance-direction
//! sanity checks. The paper's figure claims are checked on the nine
//! datasets by the scorecard (`cargo bench -p agatha-bench --bench
//! scorecard`), and chunk invariance by `tests/work_ledger.rs`.

use agatha_suite::core::{AgathaConfig, OrderingStrategy, Pipeline, StreamOptions};
use agatha_suite::datasets::{generate, long_short_mix, DatasetSpec, Tech};
use agatha_suite::gpu_sim::sched::schedule;

fn dataset(tech: Tech, seed: u64, reads: usize) -> agatha_suite::datasets::Dataset {
    generate(&DatasetSpec { name: format!("{} e2e", tech.name()), tech, seed, reads })
}

#[test]
fn report_invariants() {
    let d = dataset(Tech::Clr, 3, 60);
    let rep = Pipeline::new(d.scoring, AgathaConfig::agatha()).align_batch(&d.tasks);
    assert_eq!(rep.results.len(), d.tasks.len());
    assert!(rep.elapsed_ms > 0.0);
    assert!(rep.device.utilization > 0.0 && rep.device.utilization <= 1.0);
    assert!(rep.stats.computed_cells >= rep.stats.reference_cells);
    assert_eq!(rep.stats.tasks, d.tasks.len() as u64);
    assert!(rep.stats.zdropped_tasks > 0, "CLR data must include failing candidates");
    // Warp latencies must cover all warps and be positive.
    assert!(!rep.warp_cycles.is_empty());
    assert!(rep.warp_cycles.iter().all(|&c| c >= 0.0));
}

#[test]
fn uneven_bucketing_beats_original_on_skewed_mix() {
    // Fig. 13's regime: few long reads among many short ones.
    let d = long_short_mix(10.0, 240, 77);
    let ms = |ordering| {
        Pipeline::new(d.scoring, AgathaConfig::agatha().with_ordering(ordering))
            .align_batch(&d.tasks)
            .elapsed_ms
    };
    let (orig, ub) = (ms(OrderingStrategy::Original), ms(OrderingStrategy::UnevenBucketing));
    assert!(ub <= orig * 1.02, "UB must not lose on skewed mixes: {ub} vs {orig}");
}

#[test]
fn multi_gpu_scales() {
    // Needs enough warps that each device slice stays busy for several
    // rounds; with tiny batches the longest warp bounds every device count.
    // The warps do not depend on the device count, so one GPU's time is the
    // four-GPU run's warps scheduled on one device.
    let d = dataset(Tech::Clr, 31, 480);
    let pipeline = Pipeline::new(d.scoring, AgathaConfig::agatha()).with_gpus(4);
    let rep = pipeline.align_batch(&d.tasks);
    let spec = &pipeline.spec;
    let p1 = spec.cycles_to_ms(schedule(&rep.warp_cycles, spec.warp_slots()).makespan_cycles);
    let p4 = rep.elapsed_ms;
    assert!(p4 < p1, "4 GPUs must be faster: {p4} vs {p1}");
    assert!(p1 / p4 > 1.5, "scaling should be visible: {:.2}x", p1 / p4);
}

#[test]
fn streaming_engine_reusable_across_datasets() {
    // One engine, several independent streams: workspace reuse across
    // heterogeneous workloads must not leak state between runs.
    let p = Pipeline::new(dataset(Tech::Clr, 3, 40).scoring, AgathaConfig::agatha());
    let mut engine = p.engine();
    let d = dataset(Tech::Clr, 3, 40);
    let first = engine.align_stream_with(d.tasks.iter().cloned(), StreamOptions::new(16)).finish();
    let second = engine.align_stream_with(d.tasks.iter().cloned(), StreamOptions::new(16)).finish();
    assert_eq!(first.stats, second.stats);
    assert_eq!(first.elapsed_ms, second.elapsed_ms);
}

#[test]
fn dpx_discussion_speedup() {
    // §6: DPX accelerates the compute term; the kernel should get faster
    // but far less than the raw instruction speedup (memory-bound).
    let d = dataset(Tech::Clr, 11, 80);
    let mut pipeline = Pipeline::new(d.scoring, AgathaConfig::agatha());
    let plain = pipeline.align_batch(&d.tasks).elapsed_ms;
    pipeline.cost.use_dpx = true;
    let dpx = pipeline.align_batch(&d.tasks).elapsed_ms;
    assert!(dpx < plain, "DPX must help: {dpx} vs {plain}");
    assert!(plain / dpx < 2.2, "DPX gain is bounded by the memory share");
}
