//! The simulated device's trace: what the GPU kernel would have executed for
//! a task, as per-checkpoint-unit work summaries, and their latency under
//! the cost model.
//!
//! The trace is *computed*, not recorded. The device tiles every task at the
//! paper's 8×8 blocks ([`agatha_align::BLOCK`]: eight bases per 32-bit word,
//! §2.2) and runs the §4.2 slice schedule (or horizontal chunks), whatever
//! tile, backend or schedule the host kernel used to obtain the scores. Its
//! checkpoint schedule, each unit's rows and the anti-diagonals a checkpoint
//! completes are functions of the task's shape `(n, m, band)` alone; the one
//! data-dependent input is where the task stopped, and
//! [`GuidedResult::antidiags`] carries that. So [`device_trace`] is a pure
//! function, and a simulated number cannot depend on the host.
//!
//! There is one [`SliceUnit`] per checkpoint unit — a *chunk* in horizontal
//! mode, a *slice* in sliced-diagonal mode. The walk that finds a unit's
//! block rows folds them, as it goes, into everything the cost model reads
//! of them: the unit's blocks and rows, the anti-diagonals its checkpoint
//! completes, its lockstep steps at every lane count a rejoined group can
//! reach — subwarp rejoining (§4.3) re-prices the remaining slices of a task
//! each time its group gains lanes — and, in horizontal mode, the blocks on
//! the chunk's boundary row. The walk runs once per task, on the worker that
//! aligned it; [`unit_cost`] then prices a unit in O(1) wherever it is
//! priced, and no row is stored or walked again.

use agatha_align::block::band_row_blocks;
use agatha_align::{check_dims, GuidedResult, Scoring, BLOCK};
use agatha_gpu_sim::{AccessKind, CostModel, MemCounters, WARP_LANES};

use crate::options::{AgathaConfig, MAX_SUBWARPS};

/// Global transactions per block for per-cell anti-diagonal max updates
/// when the rolling window is off (64 lane updates, partially coalesced).
pub const ANTI_TX_PER_BLOCK_NO_RW: u64 = 2;
/// Global sequence-load transactions issued per lockstep step (one packed
/// word per lane, coalescing across lanes).
pub const SEQ_STEP_TX: f64 = 1.0;
/// Boundary/west intermediate values coalesce across consecutive rows.
pub const INTER_COALESCE: u64 = 8;
/// Shared accesses per block for LMB updates (one per cell).
pub const SHARED_PER_BLOCK_LMB: u64 = 64;
/// Shared accesses per block for intra-chunk boundary exchange (packed
/// H/F vectors, write + read).
pub const SHARED_PER_BLOCK_INTER: u64 = 2;
/// Global transactions per boundary-row block across chunk boundaries
/// (H, E and F vectors plus corners; write by the bottom row + read by the
/// next chunk's top row).
pub const GLOBAL_INTER_PER_BOUNDARY_BLOCK: u64 = 6;
/// Global transactions per block-row for slice-edge intermediate values
/// (packed H/E, write at slice end + read at next slice start; the
/// "Additional Memory Access" of Fig. 5(c)).
pub const GLOBAL_WEST_PER_ROW: u64 = 2;
/// Packed-sequence loads per block (one reference word per lane).
pub const SEQ_TX_PER_BLOCK: u64 = 1;
/// Packed-sequence loads per block-row (the query word stays in registers
/// for the whole row sweep).
pub const SEQ_TX_PER_ROW: u64 = 1;
/// Fraction of sequence loads that reach DRAM (the rest hit L2/texture
/// cache): one transaction per this many loads.
pub const SEQ_CACHE_DIVISOR: u64 = 4;
/// Extra cycles per lockstep step when the rolling-window index needs a
/// modulo instead of a bitwise AND ("which is known to be slow on GPUs",
/// §5.5 — slice widths 3 and 7 avoid it).
pub const MODULO_PENALTY_CYCLES: f64 = 3.0;

/// The device's block side, as the grid arithmetic wants it.
const B: i64 = BLOCK as i64;

/// The shape of one task on the device: table dimensions and band
/// half-width, from which [`DeviceGrid::trace`] derives every unit's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeviceGrid {
    /// Reference length.
    n: u32,
    /// Query length.
    m: u32,
    /// Band half-width, `n + m` when unbanded or wider than the table.
    w: u32,
}

impl DeviceGrid {
    /// The grid of an `n × m` task under `band` ([`Scoring::band_width`]).
    ///
    /// # Panics
    ///
    /// Panics on dimensions task admission refuses ([`check_dims`]): past
    /// them the fields below would not hold the shape.
    fn new(n: usize, m: usize, band: i32) -> DeviceGrid {
        assert!(check_dims(n, m).is_ok(), "DeviceGrid: {n} × {m} is past task admission");
        // Admitted: n, m ≤ i32::MAX / 2, so n + m fits too.
        let (n, m) = (n as u32, m as u32);
        let w = if band < Scoring::NO_BAND { (band.max(0) as u32).min(n + m) } else { n + m };
        DeviceGrid { n, m, w }
    }

    /// Block rows holding an in-band cell — a prefix of the grid's rows:
    /// those whose first query row starts inside the table and above the
    /// band's lower edge at the last reference column.
    fn rows(&self) -> i64 {
        let (n, m, w) = (i64::from(self.n), i64::from(self.m), i64::from(self.w));
        if n == 0 || m == 0 {
            return 0;
        }
        (m - 1).min(n - 1 + w) / B + 1
    }

    /// Inclusive block columns of row `bj < self.rows()`.
    #[inline]
    fn row(&self, bj: i64) -> (i64, i64) {
        band_row_blocks(i64::from(self.n), i64::from(self.m), i64::from(self.w), B, bj)
            .expect("a block row above `rows()` holds an in-band cell")
    }

    /// First anti-diagonal with an in-band cell in block `(bi, bj)` of a
    /// row's range: the block's corner diagonal, pushed along the block's
    /// edge by however far the corner lies outside the band. Non-decreasing
    /// along a row and along a block anti-diagonal away from the main one.
    #[inline]
    fn first_diag(&self, bi: i64, bj: i64) -> i64 {
        let (i0, j0) = (bi * B, bj * B);
        i0 + j0 + ((i0 - j0).abs() - i64::from(self.w)).max(0)
    }

    /// Append the task's device trace to `units`: walk the checkpoint
    /// schedule of `cfg` until the anti-diagonal frontier reaches the point
    /// where `result` says the task stopped, summarising each unit's rows
    /// as they are derived.
    ///
    /// The frontier after a unit is the smallest anti-diagonal that still has
    /// an in-band cell in an unexecuted block — what
    /// [`agatha_align::diag::DiagTracker::advance`] finds by counting cells —
    /// capped at `result.antidiags`. Every row's executed blocks are a prefix
    /// of its range, so per row that is [`DeviceGrid::first_diag`] of the
    /// first unexecuted block, and among the rows no unit has reached yet the
    /// topmost decides.
    fn trace(&self, cfg: &AgathaConfig, result: &GuidedResult, units: &mut Vec<SliceUnit>) {
        let p = cfg.subwarp_lanes;
        let groups = cfg.subwarps_per_warp();
        assert!(
            groups <= MAX_SUBWARPS && WARP_LANES.is_multiple_of(p),
            "a {p}-lane subwarp does not divide the warp into at most {MAX_SUBWARPS} subwarps"
        );
        let rows = self.rows();
        let stop = i64::from(result.antidiags);
        // A slice wider than any admitted grid (< 2^29 block anti-diagonals)
        // is the whole grid; the clamp keeps `d1` below 2^31.
        let s = cfg.slice_width.clamp(1, 1 << 30) as i64;
        // The unit covers block rows `top..bot`; `k` is the next slice.
        let (mut top, mut bot, mut k, mut done) = (0i64, 0i64, 0i64, 0i64);
        // Each unit moves the frontier past at least `span` anti-diagonals
        // (a slice's `s` block diagonals, or a chunk's block rows), so the
        // trace needs at most this many units: one allocation per run.
        let span = B * if cfg.sliced_diagonal { s } else { p as i64 };
        units.reserve(((stop + span - 1) / span) as usize);
        // A slice taller than one subwarp deals its rows round-robin to a
        // group's lanes; `dealt[i % DEAL_PERIOD]` sums the blocks of its rows
        // `i` (`slot` below), enough to add up any group's lanes. Zeroed
        // after each slice.
        let mut dealt = [0u64; DEAL_PERIOD];
        while done < stop && top < rows {
            let (d0, d1) = if cfg.sliced_diagonal {
                // §4.2: slice `k` is block anti-diagonals `k·s ..= k·s + s − 1`.
                // `bj + lo` and `bj + hi` grow with `bj`, so the rows a slice
                // crosses are a window that only ever moves down.
                let d0 = k * s;
                k += 1;
                while top < rows && top + self.row(top).1 < d0 {
                    top += 1;
                }
                while bot < rows && bot + self.row(bot).0 < d0 + s {
                    bot += 1;
                }
                (d0, d0 + s - 1)
            } else {
                // Horizontal mode: chunks of `subwarp_lanes` full-band rows.
                (top, bot) = (bot, (bot + p as i64).min(rows));
                (0, i64::from(u32::MAX))
            };
            if top == bot {
                continue; // a slice between two rows of a narrow band, or past the last
            }
            // Rows and block anti-diagonals of an admitted grid are below
            // 2^29 (`d1` below 2^31, see `s`), and `frontier − done` is at
            // most `result.antidiags`: every narrowing to `u32` of them is
            // lossless.
            let height = (bot - top) as usize;
            let deals = cfg.sliced_diagonal && height > p;
            let (mut blocks, mut widest, mut last) = (0u64, 0u64, 0u64);
            let mut frontier =
                if bot < rows { self.first_diag(self.row(bot).0, bot) } else { stop };
            // Row `bj`, block columns `lo..=hi`, cut to block anti-diagonals
            // `d0..=d1` and folded into the unit.
            let mut fold_row = |bj: i64, (lo, hi): (i64, i64)| {
                let (from, to) = ((d0 - bj).max(lo), (d1 - bj).min(hi));
                let cols = (to - from + 1) as u64;
                blocks += cols;
                widest = widest.max(cols);
                if bj == bot - 1 {
                    last = cols;
                }
                if deals {
                    dealt[(bj - top) as usize % DEAL_PERIOD] += cols;
                }
                if to < hi {
                    frontier = frontier.min(self.first_diag(to + 1, bj));
                }
            };
            // Interior rows hold the whole cut: `bj + lo ≤ d0` holds on a
            // prefix of the rows and `bj + hi > d1` on a suffix (both sides
            // grow with `bj`), so they are one run `a..b`, found by folding
            // the rows outside it one by one from both ends. (A horizontal
            // chunk has no interior row: no row reaches past `d1`.)
            let (mut a, mut b) = (top, bot);
            while a < b {
                let (lo, hi) = self.row(b - 1);
                if b - 1 + lo <= d0 {
                    break;
                }
                fold_row(b - 1, (lo, hi));
                b -= 1;
            }
            while a < b {
                let (lo, hi) = self.row(a);
                if a + hi > d1 {
                    break;
                }
                fold_row(a, (lo, hi));
                a += 1;
            }
            if a < b {
                // Each interior row adds the cut's `d1 − d0 + 1` blocks, and
                // its frontier `first_diag(d1 − bj + 1, bj)` is least at the
                // row nearest the block diagonal's midpoint.
                let cols = (d1 - d0 + 1) as u64;
                blocks += cols * (b - a) as u64;
                widest = widest.max(cols);
                if b == bot {
                    last = cols;
                }
                if deals {
                    let (i0, i1) = ((a - top) as usize, (b - top) as usize);
                    let laps = (i1 - i0) / DEAL_PERIOD;
                    dealt.iter_mut().for_each(|sum| *sum += cols * laps as u64);
                    for i in i0 + laps * DEAL_PERIOD..i1 {
                        dealt[i % DEAL_PERIOD] += cols;
                    }
                }
                let r = ((d1 + 1) / 2).clamp(a, b - 1);
                frontier = frontier.min(self.first_diag(d1 - r + 1, r));
            }
            let frontier = frontier.min(stop);
            let steps =
                |n: u64| u32::try_from(n).expect("a unit's busiest lane holds < 2^32 blocks");
            let mut lockstep = [0u32; MAX_SUBWARPS];
            if cfg.sliced_diagonal {
                // Sliced-diagonal geometry (§4.2): successive chunks move
                // down-left, so a new chunk's dependencies come from the
                // *previous slice* — the stagger pipeline fills once per
                // slice (depth = the base subwarp size) and never drains
                // between chunks. Merged subwarps (§4.3) run as parallel
                // pipelines over interleaved rows (`__match_any_sync` keeps
                // subwarp-local thread IDs), so a group's steps are its
                // busiest lane's blocks. Adjacent slices overlap their
                // fill/drain phases (the next slice's first rows depend only
                // on completed data); roughly half the pipeline bubble
                // remains for the boundary termination check. A group at
                // least as wide as the slice runs every row on a lane of its
                // own.
                let fill = (p as u64 - 1).div_ceil(2);
                let dealt = &mut dealt[..height.min(DEAL_PERIOD)];
                for (g, out) in lockstep.iter_mut().take(groups).enumerate() {
                    let lanes = (g + 1) * p;
                    let busiest = if lanes < height { busiest_lane(dealt, lanes) } else { widest };
                    *out = steps(busiest + fill);
                }
                if deals {
                    dealt.fill(0);
                }
            } else {
                // Horizontal-only geometry (§2.2): a chunk's first row
                // depends on the row directly above (previous chunk's last
                // row), so the stagger pipeline drains and refills at every
                // chunk boundary, and the boundary row's H/F cross through
                // global memory. A row holds under 2^28 blocks and a chunk
                // at most 32 rows.
                lockstep[0] = steps(widest + height as u64 - 1);
                lockstep[1] = steps(last);
            }
            units.push(SliceUnit {
                blocks,
                diags_completed: (frontier - done) as u32,
                rows: height as u32,
                lockstep,
            });
            done = frontier;
        }
    }
}

/// Rows a slice deals its blocks over before its lanes repeat: a multiple of
/// every group width (8, 16, 24 and 32 lanes).
const DEAL_PERIOD: usize = 96;

/// The busiest lane's blocks when a slice's rows `i`, summed into
/// `dealt[i % DEAL_PERIOD]`, are dealt round-robin to `lanes` lanes: one
/// fold per group width, so that each runs at a constant width.
fn busiest_lane(dealt: &[u64], lanes: usize) -> u64 {
    fn fold<const L: usize>(dealt: &[u64]) -> u64 {
        let mut sums = [0u64; L];
        for rows in dealt.chunks(L) {
            sums.iter_mut().zip(rows).for_each(|(sum, &cols)| *sum += cols);
        }
        sums.into_iter().max().unwrap_or(0)
    }
    match lanes {
        8 => fold::<8>(dealt),
        16 => fold::<16>(dealt),
        24 => fold::<24>(dealt),
        32 => fold::<32>(dealt),
        _ => unreachable!("a group is 1 to 4 subwarps of 8, 16 or 32 lanes, at most the warp"),
    }
}

/// The device trace of an `n × m` task under band half-width `band`
/// ([`Scoring::band_width`]) that stopped where `result` says: one
/// [`SliceUnit`] per checkpoint unit of `cfg`'s schedule, in execution order.
///
/// # Panics
///
/// On dimensions task admission refuses ([`check_dims`]), and on a plan
/// whose subwarps do not divide the warp into at most
/// [`MAX_SUBWARPS`] subwarps.
pub fn device_trace(
    n: usize,
    m: usize,
    band: i32,
    cfg: &AgathaConfig,
    result: &GuidedResult,
) -> Vec<SliceUnit> {
    let mut units = Vec::new();
    DeviceGrid::new(n, m, band).trace(cfg, result, &mut units);
    units
}

/// One checkpoint unit's work, summarised by the walk that derived its block
/// rows: what [`unit_cost`] reads of them, for any lane count a group of the
/// tracing plan's subwarps can reach. It is priced under the plan that
/// traced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceUnit {
    /// Total blocks.
    pub blocks: u64,
    /// Anti-diagonals newly completed (and termination-checked) at this
    /// unit's checkpoint.
    pub diags_completed: u32,
    /// Block rows in the unit; every one of them executes at least a block.
    pub rows: u32,
    /// Sliced: `lockstep[g]` is the unit's lockstep steps on a group of
    /// `g + 1` subwarps — its rows dealt round-robin to `(g + 1) ×
    /// subwarp_lanes` lanes — and 0 past the warp. Horizontal: a chunk holds
    /// at most one subwarp's rows, so every group runs it in the same steps:
    /// `[steps, blocks of the chunk's boundary row, 0, 0]`.
    lockstep: [u32; MAX_SUBWARPS],
}

impl SliceUnit {
    /// The unit's lockstep steps on a group of `lanes` lanes, and its global
    /// intermediate-value transactions.
    ///
    /// # Panics
    ///
    /// If no group of `cfg`'s subwarps has `lanes` lanes.
    #[inline]
    fn work(&self, lanes: usize, cfg: &AgathaConfig) -> Work {
        let p = cfg.subwarp_lanes;
        // A group is one or more whole subwarps, at most the warp.
        let g = (1..=MAX_SUBWARPS)
            .find(|&g| g * p == lanes && lanes <= WARP_LANES)
            .unwrap_or_else(|| panic!("no group of {p}-lane subwarps has {lanes} lanes"));
        let rows = u64::from(self.rows);
        // Inside a slice all intermediate boundary exchange stays in shared
        // memory; only the slice-edge west values go through global memory
        // (the "Additional Memory Access" of Fig. 5(c)).
        let (steps, inter) = if cfg.sliced_diagonal {
            (self.lockstep[g - 1], GLOBAL_WEST_PER_ROW * rows)
        } else {
            (self.lockstep[0], GLOBAL_INTER_PER_BOUNDARY_BLOCK * u64::from(self.lockstep[1]))
        };
        Work { steps: u64::from(steps), blocks: self.blocks, rows, inter }
    }
}

/// What the cost model reads of one unit at one lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    /// Lockstep block-steps.
    steps: u64,
    /// Blocks executed.
    blocks: u64,
    /// Block rows.
    rows: u64,
    /// Global intermediate-value transactions: slice-edge west values, or
    /// a chunk's boundary-row vectors.
    inter: u64,
}

/// Latency evaluation output for one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitCost {
    /// Simulated cycles for the owning subwarp.
    pub cycles: f64,
    /// Lockstep block-steps.
    pub steps: u64,
    /// Lane-steps wasted to stagger/fragmentation at this lane count.
    pub idle_lane_steps: u64,
    /// Memory transactions.
    pub mem: MemCounters,
}

/// Evaluate one unit's latency for a group of `lanes` threads, in O(1)
/// from its summary. `track_maxima: false` drops all guided-alignment
/// bookkeeping (anti-diagonal max tracking and termination checks): the
/// Diff-Target baselines compute plain banded alignment, which keeps only a
/// running register maximum — no per-diagonal state, no GMB.
///
/// # Panics
///
/// If no group of `cfg`'s subwarps has `lanes` lanes: a multiple of
/// `subwarp_lanes` up to the warp.
#[inline]
pub fn unit_cost(
    unit: &SliceUnit,
    lanes: usize,
    cfg: &AgathaConfig,
    cost: &CostModel,
    track_maxima: bool,
) -> UnitCost {
    let diags = u64::from(unit.diags_completed);
    price(unit.work(lanes, cfg), diags, cfg.slice_fits_lmb(), lanes, cfg, cost, track_maxima)
}

/// The cost of a unit's work. `window_fits`: whether the unit's
/// anti-diagonal span fits the LMB, eliminating global spilling (§4.2) — on
/// the device [`AgathaConfig::slice_fits_lmb`].
#[inline]
fn price(
    work: Work,
    diags: u64,
    window_fits: bool,
    lanes: usize,
    cfg: &AgathaConfig,
    cost: &CostModel,
    track_maxima: bool,
) -> UnitCost {
    let Work { steps, blocks, rows, inter } = work;
    let mut mem = MemCounters::new();
    mem.global(AccessKind::Intermediate, inter);

    // ---- Lane-parallel per-step overheads --------------------------------
    // Work every lane performs inside its block — LMB updates in banked
    // shared memory, intra-chunk boundary exchange, its own packed-sequence
    // load — overlaps across lanes, so it costs *per lockstep step*, not
    // per block. This is exactly why merging subwarps (fewer steps) speeds
    // a slice up.
    let mut step_extra = SHARED_PER_BLOCK_INTER as f64 * cost.shared_cycles
        + SEQ_STEP_TX * cost.global_tx_cycles / SEQ_CACHE_DIVISOR as f64;
    // Traffic stats still count totals.
    mem.global(
        AccessKind::Sequence,
        (SEQ_TX_PER_BLOCK * blocks + SEQ_TX_PER_ROW * rows) / SEQ_CACHE_DIVISOR,
    );
    mem.shared(SHARED_PER_BLOCK_INTER * blocks);

    // ---- Bandwidth-bound serial traffic ----------------------------------
    // Anti-diagonal max tracking and termination checks.
    let reduce_cost =
        if cost.has_warp_reduce { cost.reduce_cycles } else { cost.reduce_fallback_cycles };
    let mut serial_cycles = 0.0;
    if !track_maxima {
        // Plain banded alignment: running maximum stays in registers.
    } else if cfg.rolling_window {
        mem.shared(SHARED_PER_BLOCK_LMB * blocks);
        step_extra += SHARED_PER_BLOCK_LMB as f64 * cost.shared_cycles;
        mem.reduce(diags);
        serial_cycles += diags as f64 * reduce_cost;
        if cfg.sliced_diagonal && window_fits {
            // Whole window lives in shared memory: termination reads the
            // LMB/GMB copies there.
            mem.shared(diags);
            serial_cycles += diags as f64 * cost.shared_cycles;
        } else {
            // Window must spill completed rows to the GMB in global memory;
            // the termination test reads the GMB once per checkpoint.
            mem.global(AccessKind::AntiMax, diags);
            mem.global(AccessKind::Termination, 1);
            serial_cycles += (diags as f64 + 1.0) * cost.global_tx_cycles;
        }
    } else {
        // Per-cell updates of the diagonal max buffer in global memory:
        // partially coalesced, bandwidth-bound — the §3.1 bottleneck.
        mem.global(AccessKind::AntiMax, ANTI_TX_PER_BLOCK_NO_RW * blocks);
        mem.global(AccessKind::Termination, 2 * diags);
        serial_cycles += (ANTI_TX_PER_BLOCK_NO_RW * blocks) as f64 * cost.global_tx_cycles;
        serial_cycles += 2.0 * diags as f64 * cost.global_tx_cycles;
    }
    // Intermediate-value traffic (already counted in `mem` above).
    serial_cycles += (mem.global_inter as f64 / INTER_COALESCE as f64) * cost.global_tx_cycles;

    let mut cycles = cost.step_cycles(steps) + steps as f64 * step_extra + serial_cycles;
    if cfg.sliced_diagonal && !cfg.slice_width_uses_mask() {
        cycles += steps as f64 * MODULO_PENALTY_CYCLES;
    }
    // Every lane is busy or idle on every step.
    UnitCost { cycles, steps, idle_lane_steps: lanes as u64 * steps - blocks, mem }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::{all_configs, mixed_tasks};
    use crate::kernel::{run_task, TaskRun};
    use agatha_align::guided::guided_align;
    use agatha_align::Task;
    use agatha_gpu_sim::{GpuSpec, KernelStats};

    fn cost() -> CostModel {
        CostModel::for_spec(&GpuSpec::rtx_a6000())
    }

    /// The reference a unit's summary is checked against: the cost of a
    /// unit given as its per-row block counts, top to bottom, with the
    /// lockstep steps and the chunk-boundary blocks derived from the rows at
    /// `lanes` — the rows dealt round-robin to the lanes (sliced), or taken
    /// `lanes` at a time, each group draining the stagger pipeline
    /// (horizontal).
    fn rows_cost(
        row_cols: impl Iterator<Item = u64>,
        diags: u64,
        window_fits: bool,
        lanes: usize,
        cfg: &AgathaConfig,
        cost: &CostModel,
        track_maxima: bool,
    ) -> UnitCost {
        assert!((1..=WARP_LANES).contains(&lanes), "a subwarp is 1..={WARP_LANES} lanes");
        let (mut steps, mut blocks, mut rows) = (0u64, 0u64, 0u64);
        let inter = if cfg.sliced_diagonal {
            let p = cfg.subwarp_lanes.min(lanes).max(1);
            let mut lane_blocks = [0u64; WARP_LANES];
            for (cols, lane) in row_cols.zip((0..lanes).cycle()) {
                lane_blocks[lane] += cols;
                blocks += cols;
                rows += 1;
            }
            let max_blocks = lane_blocks.into_iter().max().unwrap_or(0);
            steps = max_blocks + (p as u64 - 1).div_ceil(2);
            GLOBAL_WEST_PER_ROW * rows
        } else {
            let mut boundary_blocks = 0u64;
            let mut row_cols = row_cols.peekable();
            while let Some(&first) = row_cols.peek() {
                let (mut len, mut max_cols, mut last) = (0u64, 0u64, 0u64);
                for cols in row_cols.by_ref().take(lanes) {
                    len += 1;
                    blocks += cols;
                    max_cols = max_cols.max(cols);
                    last = cols;
                }
                steps += max_cols + len - 1;
                if rows > 0 {
                    boundary_blocks += first;
                }
                boundary_blocks += last;
                rows += len;
            }
            GLOBAL_INTER_PER_BOUNDARY_BLOCK * boundary_blocks
        };
        let work = Work { steps, blocks, rows, inter };
        price(work, diags, window_fits, lanes, cfg, cost, track_maxima)
    }

    /// A unit given by its explicit per-row block counts and LMB fit — the
    /// form [`rows_cost`] prices — so the cost model's expected values do not
    /// depend on any grid.
    #[derive(Clone)]
    struct RowsUnit {
        row_cols: Vec<u32>,
        diags: u32,
        fits: bool,
    }

    fn unit(rows: &[u32], diags: u32, fits: bool) -> RowsUnit {
        RowsUnit { row_cols: rows.to_vec(), diags, fits }
    }

    fn cost_of(u: &RowsUnit, lanes: usize, cfg: &AgathaConfig, cost: &CostModel) -> UnitCost {
        let rows = u.row_cols.iter().map(|&c| u64::from(c));
        rows_cost(rows, u64::from(u.diags), u.fits, lanes, cfg, cost, true)
    }

    #[test]
    fn more_lanes_fewer_steps() {
        let cfg = AgathaConfig::agatha();
        let u = unit(&[3; 32], 24, true);
        let c8 = cost_of(&u, 8, &cfg, &cost());
        let c16 = cost_of(&u, 16, &cfg, &cost());
        let c32 = cost_of(&u, 32, &cfg, &cost());
        assert!(c16.steps < c8.steps);
        assert!(c32.steps < c16.steps);
        assert!(c32.cycles < c8.cycles);
    }

    #[test]
    fn lanes_beyond_rows_change_nothing() {
        // A slice with fewer rows than lanes cannot profit from merging —
        // the reason subwarp rejoining needs slices spanning many rows.
        let cfg = AgathaConfig::agatha();
        let u = unit(&[3; 6], 24, true);
        let c8 = cost_of(&u, 8, &cfg, &cost());
        let c32 = cost_of(&u, 32, &cfg, &cost());
        assert_eq!(c8.steps, c32.steps);
    }

    #[test]
    fn rolling_window_removes_global_anti_traffic() {
        let base = AgathaConfig::baseline();
        let rw = base.clone().with_rw(true);
        let u = unit(&[13; 8], 64, false);
        let no = cost_of(&u, 8, &base, &cost());
        let yes = cost_of(&u, 8, &rw, &cost());
        assert!(no.mem.global_anti > 3 * yes.mem.global_anti);
        assert!(yes.mem.shared > no.mem.shared);
        assert!(yes.cycles < no.cycles, "RW must be faster: {} vs {}", yes.cycles, no.cycles);
    }

    #[test]
    fn fitting_lmb_eliminates_spills() {
        let cfg = AgathaConfig::baseline().with_rw(true).with_sd(true);
        let fits = unit(&[3; 8], 24, true);
        let spills = unit(&[3; 8], 24, false);
        let a = cost_of(&fits, 8, &cfg, &cost());
        let b = cost_of(&spills, 8, &cfg, &cost());
        assert_eq!(a.mem.global_anti, 0);
        assert!(b.mem.global_anti > 0);
        assert!(a.cycles < b.cycles);
    }

    #[test]
    fn intermediate_traffic_by_mode() {
        let horizontal = AgathaConfig::baseline().with_rw(true);
        let sliced = horizontal.clone().with_sd(true);
        let u = unit(&[3; 8], 24, false);
        let h = cost_of(&u, 8, &horizontal, &cost());
        let s = cost_of(&u, 8, &sliced, &cost());
        // Horizontal pays per chunk-boundary block; sliced pays the per-row
        // slice-edge west values of Fig. 5(c).
        assert!(h.mem.global_inter > 0);
        assert_eq!(s.mem.global_inter, 2 * 8);
    }

    #[test]
    fn modulo_penalty_applies_off_mask_widths() {
        let cfg3 = AgathaConfig::agatha().with_slice_width(3);
        let cfg4 = AgathaConfig::agatha().with_slice_width(4);
        let u = unit(&[4; 8], 32, true);
        let a = cost_of(&u, 8, &cfg3, &cost());
        let b = cost_of(&u, 8, &cfg4, &cost());
        assert!(b.cycles > a.cycles);
    }

    #[test]
    fn stagger_idle_counted_sliced() {
        let cfg = AgathaConfig::agatha();
        // Sliced mode: 8 rows of 4 blocks on 8 lanes, half-overlapped fill:
        // steps = 4 + ceil(7/2) = 8; idle = 8 * (8 - 4).
        let u = unit(&[4; 8], 0, true);
        let c = cost_of(&u, 8, &cfg, &cost());
        assert_eq!(c.steps, 8);
        assert_eq!(c.idle_lane_steps, 8 * 4);
    }

    #[test]
    fn stagger_idle_counted_horizontal() {
        let cfg = AgathaConfig::baseline();
        // Horizontal mode drains per chunk: steps = 4 + 7 = 11.
        let u = unit(&[4; 8], 0, false);
        let c = cost_of(&u, 8, &cfg, &cost());
        assert_eq!(c.steps, 11);
        assert_eq!(c.idle_lane_steps, 8 * 7);
    }

    #[test]
    fn units_cycles_sums() {
        // A run's latency is the sum over its units: the same trace twice
        // costs twice.
        let cfg = AgathaConfig::agatha();
        let (tasks, s) = mixed_tasks();
        let run = run_task(&tasks[0], &s, &cfg);
        let mut twice = run.clone();
        twice.units.extend_from_slice(&run.units);
        let (one, two) = (run.cycles(8, &cfg, &cost()), twice.cycles(8, &cfg, &cost()));
        assert!(one > 0.0 && (two - 2.0 * one).abs() < 1e-9 * one);
    }

    /// The test-only reference for [`device_trace`]: the device's schedule
    /// walked cell by cell at 8×8, no scores — which blocks hold an in-band
    /// cell, how many in-band cells each anti-diagonal expects, and a `seen`
    /// counter per anti-diagonal that every executed block feeds, exactly as
    /// the tracker counts them. Shares no formula with [`DeviceGrid`].
    struct CellGrid {
        n: usize,
        m: usize,
        w: usize,
        /// Block `(bi, bj)` holds an in-band cell, at `bj * ref_blocks + bi`.
        live: Vec<bool>,
        /// In-band cells per anti-diagonal.
        expected: Vec<u32>,
    }

    impl CellGrid {
        fn new(n: usize, m: usize, band: i32) -> CellGrid {
            let w = if band < Scoring::NO_BAND { band as usize } else { n + m };
            let total = if n == 0 || m == 0 { 0 } else { n + m - 1 };
            let mut grid = CellGrid {
                n,
                m,
                w,
                live: vec![false; n.div_ceil(8) * m.div_ceil(8)],
                expected: vec![0; total],
            };
            for j in 0..m {
                for i in (0..n).filter(|&i| i.abs_diff(j) <= w) {
                    grid.live[j / 8 * n.div_ceil(8) + i / 8] = true;
                    grid.expected[i + j] += 1;
                }
            }
            grid
        }

        /// Where a task that never z-drops stops: the first anti-diagonal
        /// with no in-band cell, or the end of the table.
        fn natural_stop(&self) -> u32 {
            self.expected.iter().position(|&e| e == 0).unwrap_or(self.expected.len()) as u32
        }

        /// Per unit of `cfg`'s schedule: the blocks executed in each block
        /// row that executes any, and the anti-diagonals the checkpoint
        /// completes — until the frontier reaches `antidiags`.
        fn trace(&self, cfg: &AgathaConfig, antidiags: u32) -> Vec<(Vec<u64>, u32)> {
            let (rb, qb) = (self.n.div_ceil(8), self.m.div_ceil(8));
            // The live blocks of row `bj` among columns `cols`, as `(bi, bj)`.
            let row = |bj: usize, cols: std::ops::Range<usize>| -> Vec<(usize, usize)> {
                let live = (cols.start..cols.end.min(rb)).filter(|&bi| self.live[bj * rb + bi]);
                live.map(|bi| (bi, bj)).collect()
            };
            let mut schedule: Vec<Vec<Vec<(usize, usize)>>> = Vec::new();
            if cfg.sliced_diagonal {
                // §4.2: slices of `slice_width` block anti-diagonals `bi + bj`.
                let s = cfg.slice_width;
                for d0 in (0..(rb + qb).saturating_sub(1)).step_by(s) {
                    let cut = |bj: usize| d0.saturating_sub(bj)..(d0 + s).saturating_sub(bj);
                    let rows = (0..qb).map(|bj| row(bj, cut(bj)));
                    schedule.push(rows.filter(|r| !r.is_empty()).collect());
                }
            } else {
                // Chunks of `subwarp_lanes` whole rows.
                let rows: Vec<_> = (0..qb).map(|bj| row(bj, 0..rb)).collect();
                let rows: Vec<_> = rows.into_iter().filter(|r| !r.is_empty()).collect();
                schedule.extend(rows.chunks(cfg.subwarp_lanes).map(<[_]>::to_vec));
            }
            let mut seen = vec![0u32; self.expected.len()];
            let (mut next, mut units) = (0usize, Vec::new());
            for unit in schedule.into_iter().filter(|u| !u.is_empty()) {
                for &(bi, bj) in unit.iter().flatten() {
                    for j in bj * 8..(bj * 8 + 8).min(self.m) {
                        let i = bi * 8..(bi * 8 + 8).min(self.n);
                        i.filter(|&i| i.abs_diff(j) <= self.w).for_each(|i| seen[i + j] += 1);
                    }
                }
                // The checkpoint: finalize every complete anti-diagonal.
                let before = next;
                while next < antidiags as usize && seen[next] == self.expected[next] {
                    next += 1;
                }
                let rows = unit.iter().map(|r| r.len() as u64).collect();
                units.push((rows, (next - before) as u32));
                if next == antidiags as usize {
                    break;
                }
            }
            units
        }
    }

    /// A result that stopped after `antidiags` anti-diagonals: all the
    /// trace reads of one.
    fn stopped_at(antidiags: u32) -> GuidedResult {
        GuidedResult {
            score: 0,
            max: agatha_align::MaxCell::ORIGIN,
            qend_score: None,
            stop: agatha_align::result::StopReason::Completed,
            antidiags,
            cells: 0,
        }
    }

    /// Every lane count a group of `cfg`'s subwarps can have.
    fn group_lanes(cfg: &AgathaConfig) -> impl Iterator<Item = usize> {
        let p = cfg.subwarp_lanes;
        (1..=cfg.subwarps_per_warp()).map(move |g| g * p)
    }

    /// [`device_trace`] equals the cell-by-cell walk, unit for unit: every
    /// stored field against the walked rows, and every unit's O(1) price
    /// against [`rows_cost`] over those rows — bit for bit, at every lane
    /// count a group can reach, with and without maxima tracking — and so
    /// the run's [`KernelStats`] and cycles too.
    fn check_trace(grid: &CellGrid, band: i32, cfg: &AgathaConfig, antidiags: u32, what: &str) {
        let cost = cost();
        let got = device_trace(grid.n, grid.m, band, cfg, &stopped_at(antidiags));
        let want = grid.trace(cfg, antidiags);
        assert_eq!(got.len(), want.len(), "{what}: units");
        let walked = |rows: &[u64], diags: u32, lanes: usize, track: bool| {
            let (diags, fits) = (u64::from(diags), cfg.slice_fits_lmb());
            rows_cost(rows.iter().copied(), diags, fits, lanes, cfg, &cost, track)
        };
        for (k, (u, (rows, diags))) in got.iter().zip(&want).enumerate() {
            let what = format!("{what}: unit {k}");
            assert_eq!(u.blocks, rows.iter().sum::<u64>(), "{what} blocks");
            assert_eq!(u.diags_completed, *diags, "{what}: diagonals completed");
            assert_eq!(u.rows as usize, rows.len(), "{what}: rows");
            let mut lockstep = [0u64; MAX_SUBWARPS];
            if cfg.sliced_diagonal {
                for (steps, lanes) in lockstep.iter_mut().zip(group_lanes(cfg)) {
                    *steps = walked(rows, 0, lanes, true).steps;
                }
            } else {
                lockstep[0] = walked(rows, 0, cfg.subwarp_lanes, true).steps;
                lockstep[1] = *rows.last().expect("a unit has a row");
            }
            assert_eq!(u.lockstep.map(u64::from), lockstep, "{what}: lockstep");
            for lanes in group_lanes(cfg) {
                for track in [true, false] {
                    let (a, b) = (
                        super::unit_cost(u, lanes, cfg, &cost, track),
                        walked(rows, *diags, lanes, track),
                    );
                    assert_eq!(a.cycles.to_bits(), b.cycles.to_bits(), "{what}: cycles at {lanes}");
                    assert_eq!(a, b, "{what}: price at {lanes} lanes, maxima tracked: {track}");
                }
            }
        }
        let done: u32 = got.iter().map(|u| u.diags_completed).sum();
        assert_eq!(done, antidiags, "{what}: the walk ends where the task stopped");
        let run =
            TaskRun { id: 0, result: stopped_at(antidiags), units: got, blocks: 0, block_dim: 8 };
        for lanes in group_lanes(cfg) {
            let mut stats = KernelStats::new();
            stats.tasks = 1;
            for (rows, diags) in &want {
                let c = walked(rows, *diags, lanes, true);
                stats.device_cells += rows.iter().sum::<u64>() * agatha_gpu_sim::BLOCK_CELLS;
                stats.steps += c.steps;
                stats.idle_lane_steps += c.idle_lane_steps;
                stats.mem.add(&c.mem);
            }
            assert_eq!(run.stats(lanes, cfg, &cost), stats, "{what}: stats at {lanes} lanes");
            let cycles: f64 =
                want.iter().map(|(rows, d)| walked(rows, *d, lanes, true).cycles).sum();
            assert_eq!(run.cycles(lanes, cfg, &cost).to_bits(), cycles.to_bits(), "{what}: cycles");
        }
    }

    /// [`all_configs`] under both schedules.
    fn schedules() -> Vec<AgathaConfig> {
        let both = |cfg: AgathaConfig| [cfg.clone().with_sd(true), cfg.with_sd(false)];
        all_configs().into_iter().flat_map(both).collect()
    }

    #[test]
    fn device_trace_matches_the_cell_walk_on_real_tasks() {
        // The plan-matrix scenario tasks (`tests/plan_matrix.rs`: seed 97,
        // each sequence cut to its slot of these lengths) and the kernel's
        // mixed tasks, stopped where the reference alignment stops (mostly at
        // the table's end: the edge shapes below sweep the early stops).
        const MAX_LENS: [usize; 6] = [144, 24, 96, 176, 64, 120];
        let mut cases: Vec<(String, Task, Scoring)> = Vec::new();
        for s in agatha_datasets::SCENARIOS {
            for (mut t, cap) in (s.tasks)(97, 13).into_iter().zip(MAX_LENS.into_iter().cycle()) {
                t.reference = t.reference.slice(0, t.ref_len().min(cap));
                t.query = t.query.slice(0, t.query_len().min(cap));
                cases.push((format!("{} task {}", s.name, t.id), t, (s.scoring)()));
            }
        }
        let (mixed, s) = mixed_tasks();
        cases.extend(mixed.into_iter().map(|t| (format!("mixed task {}", t.id), t, s)));
        for (what, t, s) in &cases {
            let result = guided_align(&t.reference, &t.query, s);
            let grid = CellGrid::new(t.ref_len(), t.query_len(), s.band_width);
            for cfg in schedules() {
                check_trace(
                    &grid,
                    s.band_width,
                    &cfg,
                    result.antidiags,
                    &format!("{what}, {cfg:?}"),
                );
            }
        }
    }

    #[test]
    fn device_trace_matches_the_cell_walk_on_edge_shapes() {
        // Empty sides, single cells, block-multiple and off-by-one sides,
        // thin tables (a band narrower than |n − m| exhausts early).
        let shapes = [
            (0, 5),
            (5, 0),
            (1, 1),
            (7, 9),
            (8, 8),
            (9, 8),
            (16, 40),
            (40, 16),
            (65, 64),
            (100, 3),
            (3, 100),
            (120, 77),
        ];
        for (n, m) in shapes {
            let wide = (n + m) as i32;
            for band in [0, 1, 7, 8, 9, 30, wide, wide + 5, Scoring::NO_BAND] {
                let grid = CellGrid::new(n, m, band);
                // Stops: a z-drop on the first diagonals, mid-table, and the
                // natural end (completion or band exhaustion).
                let end = grid.natural_stop();
                let mut stops = vec![1, 2, end / 3, 2 * end / 3, end];
                stops.retain(|&a| (1..=end).contains(&a));
                stops.dedup();
                for cfg in schedules() {
                    if stops.is_empty() {
                        check_trace(&grid, band, &cfg, 0, &format!("{n}×{m} w={band}, {cfg:?}"));
                    }
                    for &antidiags in &stops {
                        let what = format!("{n}×{m} w={band} stop {antidiags}, {cfg:?}");
                        check_trace(&grid, band, &cfg, antidiags, &what);
                    }
                }
            }
        }
        // The 1,048,592 × 8 unbanded row of
        // `cost_descriptor_counts_every_block_of_a_long_row`: 131,074 blocks
        // in one row, one block per slice at width 1.
        let (n, m, band) = (1_048_592, 8, Scoring::NO_BAND);
        let grid = CellGrid::new(n, m, band);
        for cfg in [
            AgathaConfig::agatha().with_slice_width(1),
            AgathaConfig::agatha(),
            AgathaConfig::baseline(),
        ] {
            check_trace(&grid, band, &cfg, grid.natural_stop(), &format!("long row, {cfg:?}"));
        }
    }

    #[test]
    fn unit_prices_match_the_walked_rows_on_random_shapes() {
        // Random shapes, the edge shapes above and one whose slices cross
        // more than `DEAL_PERIOD` block rows, each under a random band and
        // stopped early, mid-table and at its natural end, under both
        // schedules at slice widths 1/3/7/8/64 and subwarps 8/16/32.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |below: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % below
        };
        let edges = [(0, 5), (5, 0), (1, 1), (7, 9), (8, 8), (9, 8), (16, 40), (40, 16)];
        let edges = edges.into_iter().chain([(65, 64), (100, 3), (3, 100), (120, 77), (790, 810)]);
        let random: Vec<(usize, usize)> = (0..24).map(|_| (draw(160), draw(160))).collect();
        let mut plans = Vec::new();
        for sliced in [true, false] {
            for width in [1, 3, 7, 8, 64] {
                for subwarp in [8, 16, 32] {
                    let cfg = AgathaConfig::agatha().with_slice_width(width).with_subwarp(subwarp);
                    plans.push(cfg.with_sd(sliced));
                }
            }
        }
        for (n, m) in random.into_iter().chain(edges) {
            let band = match draw(4) {
                _ if n > DEAL_PERIOD * B as usize => Scoring::NO_BAND,
                0 => Scoring::NO_BAND,
                1 => (n + m) as i32,
                _ => draw(48) as i32,
            };
            let grid = CellGrid::new(n, m, band);
            let end = grid.natural_stop();
            // A non-empty table stops after at least one anti-diagonal.
            let mut stops = vec![1.min(end), end.min(1 + draw(end as usize + 1) as u32), end];
            stops.dedup();
            for cfg in &plans {
                for &antidiags in &stops {
                    let what = format!("{n}×{m} w={band} stop {antidiags}, {cfg:?}");
                    check_trace(&grid, band, cfg, antidiags, &what);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no group of 8-lane subwarps has 12 lanes")]
    fn an_unreachable_lane_count_panics() {
        let (tasks, s) = mixed_tasks();
        let cfg = AgathaConfig::agatha();
        run_task(&tasks[0], &s, &cfg).cycles(12, &cfg, &cost());
    }

    #[test]
    fn the_trace_is_small() {
        assert!(std::mem::size_of::<SliceUnit>() <= 32);
        // What the traces of 200 `dna-long` tasks hold on the heap: every
        // per-unit byte a run holds, the summaries the cost model prices
        // included, sits inside its units. The
        // parent commit (one `Vec<u32>` of row counts inside every 40-byte
        // unit, host tiles) held 797,468 bytes for the same tasks under the
        // default plan and 2,221,964 with the host at 8×8, the geometry this
        // trace is always at.
        let s =
            agatha_datasets::SCENARIOS.iter().find(|s| s.name == "dna-long").expect("registered");
        let (scoring, cfg) = ((s.scoring)(), AgathaConfig::agatha());
        let bytes: usize = (s.tasks)(97, 200)
            .iter()
            .map(|t| {
                run_task(t, &scoring, &cfg).units.capacity() * std::mem::size_of::<SliceUnit>()
            })
            .sum();
        assert!(bytes < 797_468, "{bytes} bytes of trace");
    }
}
