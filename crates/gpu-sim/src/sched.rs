//! Warp-to-slot scheduling: converts per-warp latencies into a kernel
//! makespan, and splits batches across multiple GPUs (§5.8).
//!
//! Warps are placed in submission order onto the device's concurrent warp
//! slots ("existing approaches assign tasks to warps in the order in which
//! the input is given", §3.1) — the slot that frees earliest takes the next
//! warp. This is classic list scheduling; with a long-tailed latency
//! distribution the makespan is dominated by straggler warps, which is the
//! inter-warp imbalance uneven bucketing attacks.

use crate::spec::GpuSpec;

/// Outcome of scheduling one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Kernel makespan in simulated cycles.
    pub makespan_cycles: f64,
    /// Sum of warp latencies (the work the device actually did).
    pub busy_cycles: f64,
    /// `busy / (makespan × slots)` — fraction of slot-time doing work.
    pub utilization: f64,
    /// Number of warps scheduled.
    pub warps: usize,
    /// Slots used.
    pub slots: usize,
}

impl DeviceReport {
    /// Makespan in milliseconds on the given device.
    pub fn ms(&self, spec: &GpuSpec) -> f64 {
        spec.cycles_to_ms(self.makespan_cycles)
    }
}

/// List-schedule warp latencies (in submission order) onto `slots`
/// concurrent slots; returns the makespan in cycles.
pub fn makespan_cycles(latencies: &[f64], slots: usize) -> f64 {
    schedule(latencies, slots).makespan_cycles
}

/// Full scheduling report.
pub fn schedule(latencies: &[f64], slots: usize) -> DeviceReport {
    let mut sched = SlotSchedule::new(slots);
    sched.extend(latencies);
    sched.report()
}

/// Incrementally foldable list schedule: feed warp latencies in submission
/// order — across any chunk boundaries — and [`SlotSchedule::report`]
/// produces exactly what the pooled [`schedule`] would for the concatenated
/// sequence ([`schedule`] itself is implemented on top of this). State is
/// O(slots), so a streaming consumer can fold per-chunk latencies without
/// retaining the whole stream's latency vector.
#[derive(Debug, Clone)]
pub struct SlotSchedule {
    slots: usize,
    // Binary-heap of slot free times (min first). With up to ~10⁵ warps and
    // ~10² slots this is comfortably fast.
    free: std::collections::BinaryHeap<std::cmp::Reverse<F64Ord>>,
    busy: f64,
    makespan: f64,
    warps: usize,
}

impl SlotSchedule {
    /// An empty schedule over `slots` concurrent warp slots.
    pub fn new(slots: usize) -> SlotSchedule {
        assert!(slots > 0, "device must have at least one warp slot");
        SlotSchedule {
            slots,
            free: std::collections::BinaryHeap::with_capacity(slots),
            busy: 0.0,
            makespan: 0.0,
            warps: 0,
        }
    }

    /// Place the next warp (submission order) on the earliest-free slot.
    pub fn push(&mut self, lat: f64) {
        debug_assert!(lat >= 0.0, "negative warp latency");
        // Slots materialise lazily: until every physical slot has taken a
        // warp, starting on a fresh slot is the same as popping one of the
        // pooled schedule's all-zero initial entries.
        let free = if self.free.len() < self.slots {
            0.0
        } else {
            let std::cmp::Reverse(F64Ord(free)) = self.free.pop().expect("slot heap never empty");
            free
        };
        let end = free + lat;
        self.busy += lat;
        self.makespan = self.makespan.max(end);
        self.warps += 1;
        self.free.push(std::cmp::Reverse(F64Ord(end)));
    }

    /// [`SlotSchedule::push`] for a whole chunk of latencies.
    pub fn extend(&mut self, latencies: &[f64]) {
        for &lat in latencies {
            self.push(lat);
        }
    }

    /// Warps folded so far.
    pub fn warps(&self) -> usize {
        self.warps
    }

    /// The schedule of everything pushed so far. Non-consuming: fold more
    /// warps afterwards and report again.
    pub fn report(&self) -> DeviceReport {
        let slots_used = self.slots.min(self.warps.max(1));
        let denom = self.makespan * slots_used as f64;
        DeviceReport {
            makespan_cycles: self.makespan,
            busy_cycles: self.busy,
            utilization: if denom > 0.0 { self.busy / denom } else { 1.0 },
            warps: self.warps,
            slots: slots_used,
        }
    }
}

/// Split `items` across `gpus` devices in contiguous equal shares
/// ("distributing equal numbers of alignment tasks to each GPU", §5.8).
/// Returns the per-GPU index ranges.
pub fn split_even(items: usize, gpus: usize) -> Vec<std::ops::Range<usize>> {
    assert!(gpus > 0);
    let base = items / gpus;
    let extra = items % gpus;
    let mut out = Vec::with_capacity(gpus);
    let mut start = 0;
    for g in 0..gpus {
        let len = base + usize::from(g < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Schedule each device's contiguous share separately, returning one
/// [`DeviceReport`] per GPU (in device order).
pub fn multi_gpu_schedule(
    latencies: &[f64],
    slots_per_gpu: usize,
    gpus: usize,
) -> Vec<DeviceReport> {
    split_even(latencies.len(), gpus)
        .into_iter()
        .map(|r| schedule(&latencies[r], slots_per_gpu))
        .collect()
}

/// Total-order wrapper for finite f64 latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
struct F64Ord(f64);

impl Eq for F64Ord {}
impl PartialOrd for F64Ord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64Ord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("latencies must be finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slot_sums() {
        let m = makespan_cycles(&[3.0, 4.0, 5.0], 1);
        assert!((m - 12.0).abs() < 1e-12);
    }

    #[test]
    fn enough_slots_takes_max() {
        let m = makespan_cycles(&[3.0, 4.0, 5.0], 8);
        assert!((m - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_hold() {
        let lats: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let slots = 7;
        let m = makespan_cycles(&lats, slots);
        let total: f64 = lats.iter().sum();
        let max = 100.0;
        assert!(m >= total / slots as f64 - 1e-9);
        assert!(m >= max);
        assert!(m <= total);
    }

    #[test]
    fn straggler_dominates() {
        // 63 tiny warps + 1 huge one on 8 slots: makespan ≈ the huge warp.
        let mut lats = vec![1.0; 63];
        lats.push(1000.0);
        let m = makespan_cycles(&lats, 8);
        assert!((1000.0..1100.0).contains(&m));
    }

    #[test]
    fn order_matters_for_list_scheduling() {
        // Long job last leaves it as the straggler; long job first overlaps.
        let short_first = makespan_cycles(&[1.0, 1.0, 1.0, 10.0], 2);
        let long_first = makespan_cycles(&[10.0, 1.0, 1.0, 1.0], 2);
        assert!(long_first <= short_first);
    }

    #[test]
    fn utilization_in_unit_range() {
        let rep = schedule(&[5.0, 1.0, 1.0, 1.0], 2);
        assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
    }

    #[test]
    fn split_even_covers_all() {
        let parts = split_even(10, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], 0..3);
        assert_eq!(parts[1], 3..6);
        assert_eq!(parts[2], 6..8);
        assert_eq!(parts[3], 8..10);
    }

    #[test]
    fn multi_gpu_schedule_agrees_with_makespan() {
        let lats: Vec<f64> = (1..=37).map(|x| (x % 11) as f64 + 1.0).collect();
        let reports = multi_gpu_schedule(&lats, 4, 3);
        assert_eq!(reports.len(), 3);
        for (report, share) in reports.iter().zip(split_even(lats.len(), 3)) {
            assert_eq!(report.makespan_cycles, makespan_cycles(&lats[share], 4));
        }
        let warps: usize = reports.iter().map(|d| d.warps).sum();
        assert_eq!(warps, lats.len());
    }

    #[test]
    fn multi_gpu_scales_down() {
        let lats = vec![10.0; 64];
        // The kernel finishes when the slowest device does.
        let makespan = |gpus| {
            multi_gpu_schedule(&lats, 4, gpus).iter().map(|d| d.makespan_cycles).fold(0.0, f64::max)
        };
        let (one, four) = (makespan(1), makespan(4));
        assert!(four < one);
        assert!((one / four - 4.0).abs() < 0.5, "expected ~4x, got {}", one / four);
    }

    #[test]
    fn empty_batch() {
        assert_eq!(makespan_cycles(&[], 8), 0.0);
    }

    #[test]
    fn incremental_fold_matches_pooled_schedule() {
        // Folding the latency sequence chunk by chunk — at every possible
        // split point, including degenerate empty chunks — must reproduce
        // the pooled schedule exactly: this is what lets the streaming
        // engine drop its warp-cycle vector.
        let mut x = 77u64;
        let lats: Vec<f64> = (0..137)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) % 1000) as f64 + 0.25
            })
            .collect();
        for slots in [1, 4, 48] {
            let pooled = schedule(&lats, slots);
            for split in [0, 1, 5, 48, 64, 136, 137] {
                let mut inc = SlotSchedule::new(slots);
                inc.extend(&lats[..split]);
                inc.extend(&[]);
                for chunk in lats[split..].chunks(7) {
                    inc.extend(chunk);
                }
                assert_eq!(inc.report(), pooled, "slots {slots}, split {split}");
                assert_eq!(inc.warps(), lats.len());
            }
        }
    }

    #[test]
    fn incremental_fold_under_subscribed() {
        // Fewer warps than slots: `slots` in the report must reflect what
        // was actually used, matching the pooled path.
        let mut inc = SlotSchedule::new(16);
        inc.extend(&[3.0, 4.0]);
        assert_eq!(inc.report(), schedule(&[3.0, 4.0], 16));
        assert_eq!(SlotSchedule::new(8).report(), schedule(&[], 8));
    }
}
