//! Shared harness utilities for the figure/table benchmarks.
//!
//! Every bench target regenerates one table or figure of the paper: it
//! loads the nine synthetic datasets (size controlled by `AGATHA_READS`),
//! runs the relevant engines, and prints rows in the paper's layout so the
//! output of `cargo bench` can be compared side by side with the paper's
//! published figures.

#![forbid(unsafe_code)]

use agatha_datasets::{generate, Dataset, DatasetSpec};

/// Load the nine paper datasets at the configured benchmark scale.
pub fn nine_datasets() -> Vec<Dataset> {
    let reads = DatasetSpec::default_reads();
    DatasetSpec::nine_paper_datasets(reads).iter().map(generate).collect()
}

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

/// Header line for the nine datasets plus a geometric-mean column.
pub fn dataset_header(datasets: &[Dataset]) -> String {
    let mut cells: Vec<String> = datasets.iter().map(|d| d.name.replace(' ', "")).collect();
    cells.push("GeoMean".to_string());
    row("", &cells)
}

/// Print a standard figure banner.
pub fn banner(figure: &str, what: &str) {
    println!();
    println!("==== {figure}: {what} ====");
    println!(
        "(synthetic datasets, {} tasks each; simulated device time — compare shapes, \
         not absolute ms)",
        DatasetSpec::default_reads()
    );
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
