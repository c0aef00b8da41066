//! # agatha-suite
//!
//! Umbrella crate for the AGAThA reproduction workspace: re-exports the
//! public surface of every member crate so examples and integration tests
//! have one import root, and is the home of the workspace-level `examples/`
//! and `tests/`.
//!
//! Start with [`align`] for the alignment substrate, [`core`] for the
//! AGAThA kernel and pipeline, [`baselines`] for the comparator engines,
//! [`datasets`] for synthetic workloads, and [`gpu_sim`] for the execution
//! model.

#![forbid(unsafe_code)]

pub use agatha_align as align;
pub use agatha_baselines as baselines;
pub use agatha_core as core;
pub use agatha_datasets as datasets;
pub use agatha_gpu_sim as gpu_sim;
pub use agatha_io as io;

/// Convenience: align one pair of ASCII sequences with AGAThA's exact
/// guided semantics and default long-read scoring.
pub fn quick_align(reference: &str, query: &str) -> agatha_align::GuidedResult {
    let r = agatha_align::PackedSeq::from_str_seq(reference);
    let q = agatha_align::PackedSeq::from_str_seq(query);
    agatha_align::guided::guided_align(&r, &q, &agatha_align::Scoring::default())
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_align_works() {
        let r = super::quick_align("ACGTACGTACGT", "ACGTACGTACGT");
        assert_eq!(r.score, 24);
    }
}
