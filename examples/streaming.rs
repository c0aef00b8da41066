//! Streaming alignment: serve an unbounded task stream through the
//! persistent [`BatchEngine`] worker pool with bounded memory.
//!
//! ```text
//! cargo run --release --example streaming
//! ```
//!
//! Contrast with `examples/full_pipeline.rs`, which materialises the whole
//! batch: here tasks are produced lazily, aligned chunk by chunk on workers
//! that each reuse one kernel workspace, and dropped as soon as their chunk
//! is reported — memory is bounded by the chunk size, not the stream.

use agatha_suite::core::{AgathaConfig, Pipeline, StreamOptions};
use agatha_suite::datasets::{generate, DatasetSpec, Tech};

fn main() {
    let ds = generate(&DatasetSpec {
        name: "streaming demo".to_string(),
        tech: Tech::Clr,
        seed: 42,
        reads: 600,
    });
    let pipeline = Pipeline::new(ds.scoring, AgathaConfig::agatha());
    let mut engine = pipeline.engine();
    println!(
        "streaming {} tasks on {} worker threads, chunks of 128",
        ds.tasks.len(),
        engine.threads()
    );

    // Any in-memory `Iterator<Item = Task>` works here; chunks are yielded
    // as soon as they are aligned. A fallible source — `open_fasta_pairs`
    // from agatha-io streams `Result`s straight off disk — goes through
    // `align_stream_prefetched`, which parses on a reader thread.
    let mut run = engine.align_stream_with(ds.tasks.iter().cloned(), StreamOptions::new(128));
    let mut reported = 0;
    for chunk in run.by_ref() {
        let r = &chunk.report;
        assert_eq!(chunk.offset, reported, "chunk offsets must be contiguous");
        reported += r.results.len();
        println!(
            "  chunk @{:>4}: {:>3} tasks, {:>2} warps, {:.3} ms simulated, {:.1}% run-ahead",
            chunk.offset,
            r.results.len(),
            r.warp_cycles.len(),
            r.elapsed_ms,
            100.0 * r.stats.runahead_ratio(),
        );
    }

    let summary = run.finish();
    assert_eq!(summary.tasks, 600, "every task of the stream is reported");
    assert_eq!(reported, summary.tasks);
    println!(
        "done: {} tasks in {} chunks, {:.3} ms simulated total, {} device cells, {} z-dropped",
        summary.tasks,
        summary.chunks,
        summary.elapsed_ms,
        summary.stats.device_cells,
        summary.stats.zdropped_tasks,
    );
}
