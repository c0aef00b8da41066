//! Sample statistics and the host block stamped into every result.

use std::process::Command;

use crate::json::Json;

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `samples`. Panics on an empty slice: a metric with no
    /// sample is a bug in the caller, not a value.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&s);
        Summary { n: s.len(), min: s[0], q1, median, q3, max: s[s.len() - 1] }
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance rule compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
        ])
    }
}

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// `(q1, median, q3)` of an ascending slice, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so the spreads
/// printed here are the ones the acceptance check computes. One sample is
/// its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at least
/// ten samples beyond it, or `None` under twenty samples (where even the
/// median has fewer than ten on its far side).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0].into_iter().find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything about the host and the resolved configuration that a number
/// from this run depends on.
pub fn host_block(seed: u64) -> Json {
    use agatha_align::block::{default_fill_mode, FillMode};
    use agatha_core::options::{default_block_dim, default_fill_precision, default_prefetch_depth};
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("detected_backend", Json::Str(agatha_align::simd::detected_backend().name().to_string())),
        ("rustc", Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown))),
        (
            "default_fill",
            Json::Str(
                match default_fill_mode() {
                    FillMode::Simd => "simd",
                    FillMode::Scalar => "scalar",
                }
                .to_string(),
            ),
        ),
        ("default_precision", Json::Str(default_fill_precision().name().to_string())),
        ("default_block", Json::Str(default_block_dim().name().to_string())),
        ("default_prefetch", Json::Num(default_prefetch_depth() as f64)),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Refuse to measure anything but the one resolved configuration: no
/// `AGATHA_*` override in the environment, and the vectorised default fill
/// compiled into this benchmark (the measured binary is checked separately,
/// from its own `--verbose` tally).
pub fn check_environment() -> Result<(), String> {
    let vars = crate::child::agatha_env_vars();
    if !vars.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration only",
            vars.join(", ")
        ));
    }
    if agatha_align::block::default_fill_mode() != agatha_align::block::FillMode::Simd {
        return Err("refusing to run a scalar build: build with the `simd` feature".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (4.0, 4.0, 4.0, 0.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(16_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn host_block_names_what_results_depend_on() {
        let host = host_block(99);
        for key in [
            "nproc",
            "cpu_model",
            "detected_backend",
            "rustc",
            "default_fill",
            "default_precision",
            "default_block",
            "default_prefetch",
            "git_commit",
            "seed",
        ] {
            assert!(host.get(key).is_some(), "host block lacks {key}");
        }
        assert_eq!(host.get("seed").and_then(Json::as_f64), Some(99.0));
        assert_eq!(host.get("default_fill").and_then(Json::as_str), Some("simd"));
    }
}
