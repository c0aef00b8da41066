//! End-to-end pipeline tests: datasets through the full batch aligner,
//! scheduling invariants, feature interactions and performance-direction
//! sanity checks (the qualitative claims of the paper, asserted).

use agatha_suite::core::{AgathaConfig, OrderingStrategy, Pipeline, StreamOptions};
use agatha_suite::datasets::{generate, long_short_mix, DatasetSpec, Tech};
use agatha_suite::gpu_sim::GpuSpec;

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
fn techniques_point_the_right_direction() {
    let d = dataset(Tech::Ont, 17, 120);
    let ms = |cfg: AgathaConfig| Pipeline::new(d.scoring, cfg).align_batch(&d.tasks).elapsed_ms;
    let baseline = ms(AgathaConfig::baseline());
    let rw = ms(AgathaConfig::baseline().with_rw(true));
    let sd = ms(AgathaConfig::baseline().with_rw(true).with_sd(true));
    let full = ms(AgathaConfig::agatha());
    assert!(rw < baseline, "RW must speed up the baseline: {rw} vs {baseline}");
    assert!(sd < rw, "SD must further improve: {sd} vs {rw}");
    assert!(full < rw, "full AGAThA beats +RW: {full} vs {rw}");
    assert!(full < baseline / 5.0, "overall gain should be substantial");
}

#[test]
fn uneven_bucketing_beats_original_on_skewed_mix() {
    // Fig. 13's regime: few long reads among many short ones.
    let d = long_short_mix(10.0, 240, 77);
    let cfg = AgathaConfig::agatha().with_ub(false);
    let orig = Pipeline::new(d.scoring, cfg.clone())
        .align_batch_with_strategy(&d.tasks, OrderingStrategy::Original)
        .elapsed_ms;
    let ub = Pipeline::new(d.scoring, cfg)
        .align_batch_with_strategy(&d.tasks, OrderingStrategy::UnevenBucketing)
        .elapsed_ms;
    assert!(ub <= orig * 1.02, "UB must not lose on skewed mixes: {ub} vs {orig}");
}

#[test]
fn multi_gpu_scales() {
    // Needs enough warps that each device slice stays busy for several
    // rounds; with tiny batches the longest warp bounds every device count.
    let d = dataset(Tech::Clr, 31, 480);
    let p1 = Pipeline::new(d.scoring, AgathaConfig::agatha()).align_batch(&d.tasks).elapsed_ms;
    let p4 = Pipeline::new(d.scoring, AgathaConfig::agatha())
        .with_gpus(4)
        .align_batch(&d.tasks)
        .elapsed_ms;
    assert!(p4 < p1, "4 GPUs must be faster: {p4} vs {p1}");
    assert!(p1 / p4 > 1.5, "scaling should be visible: {:.2}x", p1 / p4);
}

#[test]
fn chunked_streaming_is_bit_identical_to_whole_batch() {
    // The tentpole equivalence: a real dataset driven through the
    // persistent streaming engine in bounded chunks must reproduce the
    // whole-batch results and aggregate stats exactly.
    let d = dataset(Tech::Clr, 47, 150);
    let p = Pipeline::new(d.scoring, AgathaConfig::agatha());
    let whole = p.align_batch(&d.tasks);
    // The final size spans the whole 150-task stream in one chunk (a bare
    // `0` is a usage error since the serve hardening).
    for chunk_size in [11, 64, 1024] {
        let mut engine = p.engine();
        let mut results = Vec::new();
        let mut chunks = 0;
        let mut run =
            engine.align_stream_with(d.tasks.iter().cloned(), StreamOptions::new(chunk_size));
        for chunk in run.by_ref() {
            assert_eq!(chunk.offset, results.len());
            assert!(chunk.report.elapsed_ms >= 0.0);
            results.extend(chunk.report.results);
            chunks += 1;
        }
        let summary = run.finish();
        assert_eq!(results, whole.results, "chunk_size {chunk_size}");
        assert_eq!(summary.stats, whole.stats, "chunk_size {chunk_size}");
        assert_eq!(summary.tasks, d.tasks.len());
        assert_eq!(summary.chunks, chunks);
        assert!(summary.elapsed_ms > 0.0);
    }
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
fn gpu_ordering_matches_paper() {
    // §5.8: A6000 > A100 > 2080Ti for this kernel.
    let d = dataset(Tech::HiFi, 9, 100);
    let ms = |spec: GpuSpec| {
        Pipeline::new(d.scoring, AgathaConfig::agatha())
            .with_spec(spec)
            .align_batch(&d.tasks)
            .elapsed_ms
    };
    let a6000 = ms(GpuSpec::rtx_a6000());
    let a100 = ms(GpuSpec::a100());
    let t2080 = ms(GpuSpec::rtx_2080ti());
    assert!(a6000 < a100, "A6000 {a6000} vs A100 {a100}");
    assert!(a100 < t2080, "A100 {a100} vs 2080Ti {t2080}");
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

#[test]
fn scores_stable_across_devices_and_strategies() {
    let d = dataset(Tech::Ont, 23, 60);
    let base = Pipeline::new(d.scoring, AgathaConfig::agatha()).align_batch(&d.tasks);
    for spec in [GpuSpec::a100(), GpuSpec::rtx_2080ti(), GpuSpec::hopper_like()] {
        let rep =
            Pipeline::new(d.scoring, AgathaConfig::agatha()).with_spec(spec).align_batch(&d.tasks);
        assert_eq!(rep.results, base.results, "scores must not depend on the device");
    }
    for strat in [OrderingStrategy::Sorted, OrderingStrategy::UnevenBucketing] {
        let rep = Pipeline::new(d.scoring, AgathaConfig::agatha())
            .align_batch_with_strategy(&d.tasks, strat);
        assert_eq!(rep.results, base.results, "scores must not depend on scheduling");
    }
}
