//! Lock-free fixed-bucket latency recording.
//!
//! [`LatencyHistogram`] is an HdrHistogram-style two-level layout: the
//! exponent of the value picks a major bucket, the next five mantissa bits
//! a minor bucket, giving ≤ 1/32 (~3%) relative error across the full
//! `u64` nanosecond range in 1920 buckets. Recording is a single relaxed
//! `fetch_add` — safe from any number of threads with no locks, which is
//! what lets the daemon's connection and batcher threads all write into
//! the same recorder on the hot path.
//!
//! [`ServeMetrics`] aggregates the three per-request histograms (queue /
//! service / total) plus the outcome counters the SLO report needs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Minor buckets per major (power-of-two) bucket.
const SUB: usize = 32;
/// Bucket count: values below 32 map directly, larger values use
/// (exponent − 4) majors of 32 minors; exponent ≤ 63 → major ≤ 59.
const BUCKETS: usize = 60 * SUB;

/// Map a nanosecond value to its bucket.
fn bucket_index(v: u64) -> usize {
    let v = v.max(1);
    let top = 63 - v.leading_zeros() as usize;
    if top < 5 {
        v as usize
    } else {
        let major = top - 4;
        let minor = ((v >> (top - 5)) & (SUB as u64 - 1)) as usize;
        major * SUB + minor
    }
}

/// Lower bound of a bucket (the value reported for percentiles falling in
/// it — percentile estimates are conservative, never inflated).
fn bucket_value(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let major = idx / SUB;
        let minor = (idx % SUB) as u64;
        (SUB as u64 + minor) << (major - 1)
    }
}

/// A lock-free fixed-bucket histogram of nanosecond latencies.
pub struct LatencyHistogram {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one latency. Lock-free; callable concurrently.
    pub fn record_ns(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(v, Ordering::Relaxed);
        self.max_ns.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot for reporting (concurrent records may or
    /// may not be included; never tears a recorded value).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        HistogramSnapshot {
            counts,
            total,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Frozen histogram state with percentile accessors.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.total).unwrap_or(0)
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Value at quantile `q` in `[0, 1]` (lower bucket bound; 0 if empty).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based, clamped into range.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(idx);
            }
        }
        self.max_ns
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_ns(0.50) as f64 / 1_000.0
    }

    pub fn p99_us(&self) -> f64 {
        self.quantile_ns(0.99) as f64 / 1_000.0
    }

    pub fn p999_us(&self) -> f64 {
        self.quantile_ns(0.999) as f64 / 1_000.0
    }

    /// The JSON fragment used in stats dumps:
    /// `{"count":N,"p50_us":...,"p99_us":...,"p999_us":...,"max_us":...,"mean_us":...}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1},\
             \"max_us\":{:.1},\"mean_us\":{:.1}}}",
            self.total,
            self.p50_us(),
            self.p99_us(),
            self.p999_us(),
            self.max_ns as f64 / 1_000.0,
            self.mean_ns() as f64 / 1_000.0,
        )
    }
}

/// All the service-level recorders: one histogram per latency phase plus
/// the outcome counters. Every field is updated lock-free.
#[derive(Default)]
pub struct ServeMetrics {
    /// Admission → kernel dispatch (or drop decision).
    pub queue: LatencyHistogram,
    /// Kernel execution alone.
    pub service: LatencyHistogram,
    /// Admission → response written.
    pub total: LatencyHistogram,
    /// Requests answered `ok`.
    pub completed: AtomicU64,
    /// Requests dropped because their deadline passed before dispatch.
    pub dropped_deadline: AtomicU64,
    /// Requests rejected at admission (queue full).
    pub rejected: AtomicU64,
    /// Requests cancelled by client disconnect before dispatch.
    pub cancelled: AtomicU64,
    /// Requests whose queue wait exceeded the starvation threshold.
    pub starved: AtomicU64,
    /// Batches dispatched to the engine.
    pub batches: AtomicU64,
}

impl ServeMetrics {
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Freeze every recorder into a plain-data snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queue: self.queue.snapshot(),
            service: self.service.snapshot(),
            total: self.total.snapshot(),
            completed: self.completed.load(Ordering::Relaxed),
            dropped_deadline: self.dropped_deadline.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            starved: self.starved.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data metrics snapshot (what stats dumps and the bench serialise).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub queue: HistogramSnapshot,
    pub service: HistogramSnapshot,
    pub total: HistogramSnapshot,
    pub completed: u64,
    pub dropped_deadline: u64,
    pub rejected: u64,
    pub cancelled: u64,
    pub starved: u64,
    pub batches: u64,
}

impl MetricsSnapshot {
    /// Requests that received *some* terminal answer.
    pub fn answered(&self) -> u64 {
        self.completed + self.dropped_deadline + self.rejected + self.cancelled
    }

    /// One-line JSON stats document (the `{"cmd":"stats"}` reply and the
    /// shutdown dump).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"completed\":{},\"dropped_deadline\":{},\"rejected\":{},\"cancelled\":{},\
             \"starved\":{},\"batches\":{},\"queue_latency\":{},\"service_latency\":{},\
             \"total_latency\":{}}}",
            self.completed,
            self.dropped_deadline,
            self.rejected,
            self.cancelled,
            self.starved,
            self.batches,
            self.queue.to_json(),
            self.service.to_json(),
            self.total.to_json(),
        )
    }

    /// Human-readable percentile table for the shutdown report.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "outcomes: completed={} dropped(deadline)={} rejected(503)={} cancelled={} \
             starved={} batches={}\n",
            self.completed,
            self.dropped_deadline,
            self.rejected,
            self.cancelled,
            self.starved,
            self.batches,
        ));
        out.push_str("latency (µs)      p50        p99       p999        max       mean\n");
        for (name, h) in
            [("queue", &self.queue), ("service", &self.service), ("total", &self.total)]
        {
            out.push_str(&format!(
                "{name:<10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                h.p50_us(),
                h.p99_us(),
                h.p999_us(),
                h.max_ns() as f64 / 1_000.0,
                h.mean_ns() as f64 / 1_000.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in 0..1_000_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease: v {v}");
            last = idx;
            // Lower bound property: bucket_value(idx) <= v, and relative
            // error of the lower bound is within 1/32.
            let lo = bucket_value(idx);
            assert!(lo <= v.max(1), "lo {lo} v {v}");
            if v >= 64 {
                assert!((v - lo) as f64 / v as f64 <= 1.0 / 32.0 + 1e-9, "v {v} lo {lo}");
            }
        }
        // Large values stay in range with the same error bound.
        for k in 20..63 {
            for v in [1u64 << k, (1u64 << k) + (1 << (k - 3)), (1u64 << k) - 1] {
                let lo = bucket_value(bucket_index(v));
                assert!(lo <= v && (v - lo) as f64 / v as f64 <= 1.0 / 32.0 + 1e-9);
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record_ns(v * 1_000); // 1ms ramp in µs steps
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100_000);
        // ~3% bucket error plus the lower-bound bias.
        let p50 = s.quantile_ns(0.5) as f64;
        assert!((p50 - 50_000_000.0).abs() / 50_000_000.0 < 0.05, "p50 {p50}");
        let p99 = s.quantile_ns(0.99) as f64;
        assert!((p99 - 99_000_000.0).abs() / 99_000_000.0 < 0.05, "p99 {p99}");
        assert_eq!(s.max_ns(), 100_000_000);
        assert!(s.quantile_ns(1.0) <= 100_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_ns((t * 10_000 + i) % 1_000_000 + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 80_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.quantile_ns(0.99), 0);
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn metrics_json_shape() {
        let m = ServeMetrics::new();
        m.completed.fetch_add(3, Ordering::Relaxed);
        m.total.record_ns(1_500_000);
        let j = m.snapshot().to_json();
        assert!(j.contains("\"completed\":3"));
        assert!(j.contains("\"total_latency\":{\"count\":1"));
        assert!(m.snapshot().render_table().contains("p999"));
    }
}
