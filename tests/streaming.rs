//! Streaming-path properties: cross-chunk carry-over packing (every stream
//! packs with it) and the prefetched reader must be invisible in results —
//! bit-identical to the whole-batch aligner at every chunk size and thread
//! count — and a source that fails mid-stream must surface a clean
//! [`StreamError`], never a reader-thread panic.

use proptest::prelude::*;

use agatha_suite::align::{Scoring, Task};
use agatha_suite::core::{AgathaConfig, Pipeline, StreamOptions};

/// Deterministic task mix (LCG): lengths vary around `len_base`, mismatch
/// sprinkled every 19 bases, so warps carry genuinely uneven workloads.
fn lcg_tasks(count: usize, len_base: usize, seed: u64) -> Vec<Task> {
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

fn pipeline(threads: usize) -> Pipeline {
    let mut p = Pipeline::new(Scoring::new(2, 4, 4, 2, 60, 16), AgathaConfig::agatha());
    p.host_threads = threads;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whole-batch, in-memory streaming and prefetched streaming all
    /// produce the same results and stats.
    #[test]
    fn stream_carryover_bit_identity(
        count in 1usize..40,
        seed in 1u64..1_000_000,
        chunk_ix in 0usize..3,
        threads in 1usize..3,
    ) {
        let chunk_size = [1usize, 7, 64][chunk_ix];
        let tasks = lcg_tasks(count, 60, seed);
        let whole = pipeline(threads).align_batch(&tasks);

        for prefetch in [0, 2] {
            let mut engine = pipeline(threads).engine();
            let opts = StreamOptions::new(chunk_size);
            let mut results = Vec::new();
            let summary = if prefetch > 0 {
                let source = tasks.clone().into_iter().map(Ok::<Task, String>);
                let mut run = engine.align_stream_prefetched(source, prefetch, opts);
                for chunk in run.by_ref() {
                    results.extend(chunk.report.results);
                }
                run.finish_checked().expect("no source errors")
            } else {
                let mut run = engine.align_stream_with(tasks.iter().cloned(), opts);
                for chunk in run.by_ref() {
                    results.extend(chunk.report.results);
                }
                run.finish()
            };
            prop_assert_eq!(&results, &whole.results);
            prop_assert_eq!(&summary.stats, &whole.stats);
            prop_assert_eq!(summary.tasks, tasks.len());
        }
    }
}

#[test]
fn midstream_source_error_is_a_clean_stream_error() {
    // Five good tasks, then the source fails. With chunk 2 the first two
    // chunks align normally; the error lands on the chunk it interrupted
    // and `finish_checked` reports it instead of panicking the reader.
    let good = lcg_tasks(5, 50, 97);
    let source = good
        .clone()
        .into_iter()
        .map(Ok)
        .chain(std::iter::once(Err("fasta truncated mid-record".to_string())));
    let mut engine = pipeline(2).engine();
    let mut run = engine.align_stream_prefetched(source, 2, StreamOptions::new(2));
    let mut results = Vec::new();
    for chunk in run.by_ref() {
        results.extend(chunk.report.results);
    }
    let err = run.finish_checked().expect_err("source failure must surface");
    assert!(err.message.contains("fasta truncated"), "{err}");
    assert_eq!(err.offset, 5, "all five good tasks precede the failure");
    assert!(results.len() >= 4, "complete chunks before the error still align");
}
