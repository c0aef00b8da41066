//! The reproduction scorecard: every figure and table of the paper's
//! evaluation, in paper order, each with its claim checked
//! ([`agatha_bench::scorecard`]).
//!
//! ```text
//! cargo bench -p agatha-bench --bench scorecard
//! ```
//!
//! Exits 1 when a claim's verdict differs from the one recorded for it.

fn main() {
    if agatha_bench::scorecard::run() > 0 {
        std::process::exit(1);
    }
}
