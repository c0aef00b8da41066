//! The reproduction scorecard and the criterion microbenchmarks.
//!
//! `cargo bench -p agatha-bench --bench scorecard` regenerates every figure
//! and table of the paper's evaluation on the nine synthetic datasets, in
//! paper order, and checks the claim the paper makes of each
//! ([`scorecard`]); it exits non-zero when a claim's recorded verdict flips.
//! `--bench kernels_criterion` times the host kernels, the FASTA parser and
//! the packer.

#![forbid(unsafe_code)]

pub mod scorecard;

/// Geometric mean (the paper's aggregate for speedups).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Render one formatted row: a label column then fixed-width numeric cells.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<28}");
    for c in cells {
        s.push_str(&format!("{c:>12}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn row_widths() {
        let r = row("x", &["1".into(), "2".into()]);
        assert!(r.starts_with("x"));
        assert!(r.len() > 28);
    }
}
