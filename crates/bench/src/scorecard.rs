//! The reproduction scorecard: every figure and table of the paper's
//! evaluation regenerated on the simulator, in paper order, each followed by
//! the claim the paper makes of it and whether that claim holds here.
//!
//! A figure is a table of rows: a label and the [`Pipeline`] the row runs
//! under a dataset's scoring, so AGAThA plans, GPU specs and counts and the
//! baseline engines ([`Baseline::pipeline`]) are all rows. One runner fills
//! a table with one [`Pipeline::align_batch`] per row and dataset and prints
//! the simulated times in ms or as speedups over a reference row, with a
//! geomean column. Three outputs are not tables and
//! have printers of their own: Fig. 3(b)'s workload histogram, Fig. 12's
//! subwarp distribution and Table 1's model column. Figs. 9 and 11 also run
//! their rows on one probe dataset and print what explains them: global
//! transactions, run-ahead and utilisation per ablation step, and the warp
//! latency spread per ordering. Last comes §6's termination headroom: uneven
//! bucketing keyed by the blocks each task will execute against the
//! anti-diagonal key, per registered scenario.
//!
//! Each claim carries the verdict recorded for it: it *holds* here, or it
//! *deviates* from the paper (EXPERIMENTS.md gives both numbers). [`run`]
//! counts every verdict that flipped, either way, so a change that fixes a
//! deviation has to record that it did, and every one of the [`CLAIMS`]
//! left unchecked, so a claim cannot be dropped unnoticed.

use agatha_align::Scoring;
use agatha_baselines::Baseline;
use agatha_core::bucketing::build_warps;
use agatha_core::model::{predict, table1_rows, ModelParams};
use agatha_core::warp_sim::simulate_warp;
use agatha_core::{AgathaConfig, BatchReport, OrderingStrategy, Pipeline, TaskRun};
use agatha_datasets::{generate, long_short_mix, Dataset, DatasetSpec, Tech, SCENARIOS};
use agatha_gpu_sim::{sched, GpuSpec};

use crate::{geomean, row};

/// Tasks per dataset.
const READS: usize = 300;

/// The claims the scorecard checks.
const CLAIMS: usize = 13;

/// One row of a figure: its label and the pipeline it runs under a
/// dataset's scoring.
type Row = (&'static str, fn(Scoring) -> Pipeline);

/// How a table prints its simulated times.
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// Milliseconds.
    Ms,
    /// Speedup over the row with this label.
    Over(&'static str),
}

/// A figure's runs: one report per row and dataset.
struct Runs<'a> {
    rows: &'a [Row],
    datasets: &'a [Dataset],
    /// `reports[row][dataset]`.
    reports: Vec<Vec<BatchReport>>,
}

impl<'a> Runs<'a> {
    /// Run every row on every dataset.
    fn new(rows: &'a [Row], datasets: &'a [Dataset]) -> Runs<'a> {
        let reports = rows
            .iter()
            .map(|(_, pipeline)| {
                datasets.iter().map(|d| pipeline(d.scoring).align_batch(&d.tasks)).collect()
            })
            .collect();
        Runs { rows, datasets, reports }
    }

    fn index(&self, label: &str) -> usize {
        self.rows.iter().position(|r| r.0 == label).expect("a row of this figure")
    }

    /// The row's reports, one per dataset.
    fn reports(&self, label: &str) -> &[BatchReport] {
        &self.reports[self.index(label)]
    }

    /// The row's simulated milliseconds per dataset.
    fn ms(&self, label: &str) -> Vec<f64> {
        self.reports(label).iter().map(|r| r.elapsed_ms).collect()
    }

    /// The row's speedup over the `reference` row per dataset.
    fn speedups(&self, label: &str, reference: &str) -> Vec<f64> {
        self.ms(reference).iter().zip(self.ms(label)).map(|(r, ms)| r / ms).collect()
    }

    /// The geomean of [`Runs::speedups`].
    fn speedup(&self, label: &str, reference: &str) -> f64 {
        geomean(&self.speedups(label, reference))
    }

    /// The table: a header of dataset names, then one line per row with a
    /// geomean column.
    fn print(&self, unit: Unit) {
        let mut header: Vec<String> =
            self.datasets.iter().map(|d| d.name.replace(' ', "")).collect();
        header.push("GeoMean".to_string());
        println!("{}", row("", &header));
        for (label, _) in self.rows {
            let (values, cell): (_, fn(f64) -> String) = match unit {
                Unit::Ms => (self.ms(label), |v| format!("{v:.3}")),
                Unit::Over(reference) => (self.speedups(label, reference), |v| format!("{v:.2}x")),
            };
            let mut cells: Vec<String> = values.iter().map(|&v| cell(v)).collect();
            cells.push(cell(geomean(&values)));
            println!("{}", row(label, &cells));
        }
    }
}

/// Whether a claim of the paper holds on the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The claim holds.
    Holds,
    /// The simulator deviates from the claim.
    Deviates,
}

/// The claims checked so far, and those whose verdict flipped.
#[derive(Debug)]
struct Ledger {
    /// How many claims the run must check.
    recorded: usize,
    checked: usize,
    flipped: Vec<String>,
}

impl Ledger {
    fn new(recorded: usize) -> Ledger {
        Ledger { recorded, checked: 0, flipped: Vec::new() }
    }

    /// Check one claim: print its verdict with the numbers behind it, and
    /// note a flip if the verdict is not the `recorded` one.
    fn claim(
        &mut self,
        figure: &str,
        claim: &str,
        recorded: Verdict,
        holds: bool,
        numbers: String,
    ) {
        let verdict = if holds { Verdict::Holds } else { Verdict::Deviates };
        let word = |v| if v == Verdict::Holds { "holds" } else { "deviates" };
        println!("claim: {figure}: {claim} — {} ({numbers})", word(verdict));
        self.checked += 1;
        if verdict != recorded {
            let flip =
                format!("{figure}: {claim} — recorded {}, now {}", word(recorded), word(verdict));
            println!("FLIPPED: {flip}");
            self.flipped.push(flip);
        }
    }

    /// Print the summary; the number of failures: flipped verdicts, plus
    /// the recorded claims that were not checked.
    fn finish(self) -> usize {
        println!();
        let missing = self.recorded.saturating_sub(self.checked);
        if missing > 0 {
            println!(
                "scorecard: only {} of the {} recorded claims were checked",
                self.checked, self.recorded
            );
        }
        if self.flipped.is_empty() {
            println!("scorecard: all {} claims keep their recorded verdicts", self.checked);
        } else {
            println!("scorecard: {} of {} claims flipped:", self.flipped.len(), self.checked);
            self.flipped.iter().for_each(|f| println!("  {f}"));
        }
        self.flipped.len() + missing
    }
}

/// Print every figure and table in paper order and check their claims; the
/// number of claims whose verdict flipped, plus the number of the [`CLAIMS`]
/// that were not checked.
pub fn run() -> usize {
    println!(
        "AGAThA reproduction scorecard: nine synthetic datasets, {READS} tasks each; \
         simulated device time — compare shapes, not absolute ms"
    );
    let nine: Vec<Dataset> = DatasetSpec::nine_paper_datasets(READS).iter().map(generate).collect();
    let mut ledger = Ledger::new(CLAIMS);
    fig03(&nine, &mut ledger);
    let ablation_rows = ablation_rows();
    let ablation = Runs::new(&ablation_rows, &nine);
    table1(&ablation, &mut ledger);
    fig08(&nine, &mut ledger);
    fig09(&ablation, &mut ledger);
    fig10(&nine, &mut ledger);
    fig11_12(&nine, &mut ledger);
    fig13(&mut ledger);
    fig14(&nine, &mut ledger);
    fig15(&nine, &mut ledger);
    fig16(&nine, &mut ledger);
    sec6(&mut ledger);
    ledger.finish()
}

fn banner(figure: &str, what: &str) {
    println!();
    println!("==== {figure}: {what} ====");
}

fn plan(scoring: Scoring, config: AgathaConfig) -> Pipeline {
    Pipeline::new(scoring, config)
}

fn agatha(scoring: Scoring) -> Pipeline {
    plan(scoring, AgathaConfig::agatha())
}

/// Fig. 3: the naive GPU baseline against the CPU, before and after exact
/// guiding, and the workload distribution behind it.
fn fig03(nine: &[Dataset], ledger: &mut Ledger) {
    banner("Figure 3(a)", "CPU vs naive GPU baseline (Diff/MM2-Target) vs AGAThA, exec time (ms)");
    let rows: [Row; 4] = [
        ("CPU (Minimap2)", |s| Baseline::CpuSse4.pipeline(s)),
        ("Baseline (Diff-Target)", |s| Baseline::SalobaDiff.pipeline(s)),
        ("Baseline (MM2-Target)", |s| Baseline::SalobaMm2.pipeline(s)),
        ("AGAThA", agatha),
    ];
    let runs = Runs::new(&rows, nine);
    runs.print(Unit::Ms);
    let over_cpu = |label| runs.speedup(label, "CPU (Minimap2)");
    let (diff, mm2) = (over_cpu("Baseline (Diff-Target)"), over_cpu("Baseline (MM2-Target)"));
    ledger.claim(
        "Fig. 3",
        "exact guiding collapses the naive baseline's speedup over the CPU (Diff-Target beats MM2-Target)",
        Verdict::Holds,
        diff > mm2,
        format!(
            "geomean over the CPU: Diff-Target {diff:.2}x, MM2-Target {mm2:.2}x, AGAThA {:.2}x; \
             paper 5.3x, 2.0x, 18.8x",
            over_cpu("AGAThA")
        ),
    );

    banner(
        "Figure 3(b)",
        "workload distribution: anti-diagonal histogram (first dataset of each tech)",
    );
    for d in [&nine[0], &nine[3], &nine[6]] {
        println!("\n{} — bins of 2000 anti-diagonals:", d.name);
        println!("{:>12} {:>12} {:>18}", "bin", "alignments", "workload (M diag)");
        let (mut counts, mut work) = ([0u64; 16], [0u64; 16]);
        for t in &d.tasks {
            let a = t.antidiags() as u64;
            let bin = ((a / 2000) as usize).min(15);
            counts[bin] += 1;
            work[bin] += a;
        }
        for (b, (&c, &w)) in counts.iter().zip(&work).enumerate() {
            if c > 0 {
                println!("{:>12} {:>12} {:>18.2}", format!("{}k", 2 * b), c, w as f64 / 1e6);
            }
        }
    }
    println!(
        "\npaper: most alignments are small; a far-right bin carries a large share of the \
         workload (5-20% of alignments)."
    );
}

/// The cumulative ablation of Fig. 9, which Table 1 models.
fn ablation_rows() -> [Row; 5] {
    [
        ("Baseline", |s| plan(s, AgathaConfig::baseline())),
        ("(+) RW", |s| plan(s, AgathaConfig::baseline().with_rw(true))),
        ("(+) SD", |s| plan(s, AgathaConfig::baseline().with_rw(true).with_sd(true))),
        ("(+) SR", |s| plan(s, AgathaConfig::baseline().with_rw(true).with_sd(true).with_sr(true))),
        ("(+) UB", agatha),
    ]
}

/// Table 1: the analytic model (§4.5) on each dataset's incoming-order
/// warps of four subwarps, next to the simulated ablation.
fn table1(ablation: &Runs, ledger: &mut Ledger) {
    banner("Table 1", "performance model vs simulation (speedup over Baseline)");
    let params = ModelParams::default();
    let designs = table1_rows(0).len();
    let mut model = vec![Vec::new(); designs];
    for (d, base) in ablation.datasets.iter().zip(ablation.reports("Baseline")) {
        let rows = table1_rows(d.scoring.band_width as u32);
        let warps: Vec<Vec<u64>> =
            base.results.chunks(4).map(|c| c.iter().map(|r| r.cells).collect()).collect();
        let base_model = predict(&rows[0], &warps, &params);
        for (k, row) in rows.iter().enumerate() {
            model[k].push(base_model / predict(row, &warps, &params));
        }
    }
    let model: Vec<f64> = model.iter().map(|m| geomean(m)).collect();
    let simulated: Vec<f64> =
        ablation.rows.iter().map(|(label, _)| ablation.speedup(label, "Baseline")).collect();
    println!("{:<16}{:>18}{:>18}", "design", "model (geomean)", "simulated");
    for (design, (m, s)) in table1_rows(0).iter().zip(model.iter().zip(&simulated)) {
        println!("{:<16}{:>17.2}x{:>17.2}x", design.name, m, s);
    }
    let list = |xs: &[f64]| xs.iter().map(|x| format!("{x:.2}")).collect::<Vec<_>>().join(" / ");
    ledger.claim(
        "Table 1",
        "the model ranks the five designs as the simulator does",
        Verdict::Holds,
        ranking(&model) == ranking(&simulated),
        format!("model {}x, simulated {}x", list(&model), list(&simulated)),
    );
}

/// The smallest of `xs`.
fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The row indices of `xs` from the smallest value to the largest.
fn ranking(xs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    order
}

/// Fig. 8: every baseline and AGAThA as speedup over the CPU.
fn fig08(nine: &[Dataset], ledger: &mut Ledger) {
    banner("Figure 8", "speedup over Minimap2 (16C32T SSE4)");
    let cpu = Baseline::CpuSse4.name();
    let rows: [Row; 9] = [
        (cpu, |s| Baseline::CpuSse4.pipeline(s)),
        (Baseline::Gasal2Diff.name(), |s| Baseline::Gasal2Diff.pipeline(s)),
        (Baseline::Gasal2Mm2.name(), |s| Baseline::Gasal2Mm2.pipeline(s)),
        (Baseline::SalobaDiff.name(), |s| Baseline::SalobaDiff.pipeline(s)),
        (Baseline::SalobaMm2.name(), |s| Baseline::SalobaMm2.pipeline(s)),
        (Baseline::ManymapDiff.name(), |s| Baseline::ManymapDiff.pipeline(s)),
        (Baseline::ManymapMm2.name(), |s| Baseline::ManymapMm2.pipeline(s)),
        (Baseline::Logan.name(), |s| Baseline::Logan.pipeline(s)),
        ("AGAThA", agatha),
    ];
    let runs = Runs::new(&rows, nine);
    runs.print(Unit::Over(cpu));
    println!(
        "\npaper geomeans: AGAThA 18.8x | SALoBa-MM2 2.0x | Manymap-MM2 1.55x | GASAL2-MM2 0.51x \
         | SALoBa-Diff 5.2x"
    );
    let ours = runs.speedup("AGAThA", cpu);
    let (best, best_speedup) = rows[..8]
        .iter()
        .map(|(label, _)| (label, runs.speedup(label, cpu)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("baseline rows");
    ledger.claim(
        "Fig. 8",
        "AGAThA's geomean speedup beats every baseline's",
        Verdict::Holds,
        ours > best_speedup,
        format!("AGAThA {ours:.2}x; the best baseline, {best}, {best_speedup:.2}x"),
    );
}

/// Fig. 9: the cumulative ablation, and on one probe dataset the statistics
/// that explain each step.
fn fig09(ablation: &Runs, ledger: &mut Ledger) {
    banner("Figure 9", "cumulative ablation: Baseline, +RW, +SD, +SR, +UB");
    ablation.print(Unit::Over("Baseline"));
    println!("\npaper steps: RW x3.1-3.5 | SD x1.3-1.4 | SR x1.1-1.2 | UB x1.3-2.2");
    let geo: Vec<f64> =
        ablation.rows.iter().map(|(label, _)| ablation.speedup(label, "Baseline")).collect();
    let steps: Vec<f64> = geo.windows(2).map(|w| w[1] / w[0]).collect();
    ledger.claim(
        "Fig. 9",
        "every ablation step lowers the geomean time",
        Verdict::Holds,
        steps.iter().all(|&s| s > 1.0),
        format!("steps {}", steps.iter().map(|s| format!("x{s:.2}")).collect::<Vec<_>>().join(" ")),
    );
    let ms = |label| ablation.ms(label);
    let (base, rw, sd, full) = (ms("Baseline"), ms("(+) RW"), ms("(+) SD"), ms("(+) UB"));
    let least = |label| least(&ablation.speedups(label, "Baseline"));
    ledger.claim(
        "Fig. 9",
        "on every dataset +RW and +SD each lower the time, and the full design beats +RW and is \
         at least 5x the Baseline",
        Verdict::Holds,
        (0..base.len()).all(|i| {
            rw[i] < base[i] && sd[i] < rw[i] && full[i] < rw[i] && full[i] < base[i] / 5.0
        }),
        format!(
            "least speedup over the Baseline: +RW {:.2}x, +SD {:.2}x, full {:.2}x",
            least("(+) RW"),
            least("(+) SD"),
            least("(+) UB")
        ),
    );

    let probe = [generate(&DatasetSpec {
        name: "CLR (seed 7)".into(),
        tech: Tech::Clr,
        seed: 7,
        reads: 200,
    })];
    let runs = Runs::new(ablation.rows, &probe);
    println!("\n{}: {} tasks", probe[0].name, probe[0].tasks.len());
    println!(
        "{:<10}{:>10}{:>10}{:>14}{:>14}{:>12}",
        "design", "ms", "speedup", "global tx", "runahead", "util"
    );
    let base = runs.reports[0][0].elapsed_ms;
    for ((label, _), reports) in runs.rows.iter().zip(&runs.reports) {
        let rep = &reports[0];
        println!(
            "{:<10}{:>10.3}{:>9.2}x{:>14}{:>13.1}%{:>11.0}%",
            label,
            rep.elapsed_ms,
            base / rep.elapsed_ms,
            rep.stats.mem.global_total(),
            rep.stats.runahead_ratio() * 100.0,
            rep.device.utilization * 100.0
        );
    }
    println!(
        "RW removes global anti-diagonal traffic; SD bounds run-ahead; SR/UB lift utilization."
    );
}

/// AGAThA at slice width `S`.
fn slice_width<const S: usize>(scoring: Scoring) -> Pipeline {
    plan(scoring, AgathaConfig::agatha().with_slice_width(S))
}

/// Fig. 10: slice-width sensitivity.
fn fig10(nine: &[Dataset], ledger: &mut Ledger) {
    banner("Figure 10", "slice-width sensitivity, exec time (ms)");
    let rows: [Row; 12] = [
        ("s=1", slice_width::<1>),
        ("s=2", slice_width::<2>),
        ("s=3", slice_width::<3>),
        ("s=4", slice_width::<4>),
        ("s=5", slice_width::<5>),
        ("s=6", slice_width::<6>),
        ("s=7", slice_width::<7>),
        ("s=8", slice_width::<8>),
        ("s=16", slice_width::<16>),
        ("s=32", slice_width::<32>),
        ("s=64", slice_width::<64>),
        ("s=128", slice_width::<128>),
    ];
    let runs = Runs::new(&rows, nine);
    runs.print(Unit::Ms);
    println!(
        "\npaper: best around 3-16, jumps after 3 and 7 (bitwise-AND widths), rising tail from \
         run-ahead; AGAThA uses s=3."
    );
    let beats =
        |a: &str, b: &str| runs.ms(a).iter().zip(runs.ms(b)).filter(|(x, y)| **x < *y).count();
    let (three, seven) = (beats("s=3", "s=4"), beats("s=7", "s=8"));
    let (fastest, _) = rows
        .iter()
        .map(|(label, _)| (label, geomean(&runs.ms(label))))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("slice widths");
    let first = |label| runs.ms(label)[0];
    ledger.claim(
        "Fig. 10",
        "the mask widths 3 and 7 beat their next neighbours 4 and 8 on every dataset",
        Verdict::Deviates,
        three == nine.len() && seven == nine.len(),
        format!(
            "s=3 beats s=4 on {three}/{n} sets, s=7 beats s=8 on {seven}/{n}; {}: s=3 {:.3}, \
             s=4 {:.3}, s=7 {:.3}, s=8 {:.3} ms; fastest on the geomean: {fastest}",
            nine[0].name,
            first("s=3"),
            first("s=4"),
            first("s=7"),
            first("s=8"),
            n = nine.len()
        ),
    );
}

/// Figs. 11 and 12: the orderings with and without subwarp rejoining, as
/// speedup over incoming order; on one probe dataset the warp latency
/// spread behind them; and on ONT HG002 the subwarp distribution.
fn fig11_12(nine: &[Dataset], ledger: &mut Ledger) {
    banner("Figure 11", "workload balancing: speedup over Original order");
    let rows: [Row; 6] = [
        ("Original Order", |s| plan(s, balancing(false, OrderingStrategy::Original))),
        ("Sort", |s| plan(s, balancing(false, OrderingStrategy::Sorted))),
        ("UB", |s| plan(s, balancing(false, OrderingStrategy::UnevenBucketing))),
        ("SR+Original Order", |s| plan(s, balancing(true, OrderingStrategy::Original))),
        ("SR+Sort", |s| plan(s, balancing(true, OrderingStrategy::Sorted))),
        ("SR+UB", agatha),
    ];
    let runs = Runs::new(&rows, nine);
    runs.print(Unit::Over("Original Order"));
    println!("\npaper: Sort 1.06x | SR+Orig 1.17x | SR+Sort 1.17x | SR+UB 2.22x");
    let (ub, sort) =
        (runs.speedup("SR+UB", "Original Order"), runs.speedup("SR+Sort", "Original Order"));
    ledger.claim(
        "Fig. 11",
        "SR+UB beats SR+Sort",
        Verdict::Deviates,
        ub > sort,
        format!("SR+UB {ub:.2}x, SR+Sort {sort:.2}x; paper 2.22x, 1.17x"),
    );

    let probe = [generate(&DatasetSpec {
        name: "ONT (seed 801)".into(),
        tech: Tech::Ont,
        seed: 801,
        reads: 400,
    })];
    let d = &probe[0];
    let mut diags: Vec<u64> = d.tasks.iter().map(|t| t.antidiags() as u64).collect();
    diags.sort_unstable();
    let n = diags.len();
    println!(
        "\n{}, {n} tasks: antidiags median {} p90 {} max {} (max/median {:.1}x)",
        d.name,
        diags[n / 2],
        diags[n * 9 / 10],
        diags[n - 1],
        diags[n - 1] as f64 / diags[n / 2] as f64
    );
    let probed = Runs::new(&rows, &probe);
    for ((label, pipeline), reports) in rows.iter().zip(&probed.reports) {
        let (rep, spec) = (&reports[0], pipeline(d.scoring).spec);
        let mut w = rep.warp_cycles.clone();
        w.sort_by(f64::total_cmp);
        let (sum, max) = (w.iter().sum::<f64>(), w[w.len() - 1]);
        let mean = sum / w.len() as f64;
        println!(
            "{label:<18}: ms {:.3} | warps {} | warp mean {mean:.0} max {max:.0} (max/mean \
             {:.1}x) | util {:.2} | lb(busy/slots) {:.3} ms",
            rep.elapsed_ms,
            w.len(),
            max / mean,
            rep.device.utilization,
            spec.cycles_to_ms(sum / spec.warp_slots() as f64),
        );
    }

    banner("Figure 12", "workload distribution from workload balancing (ONT HG002)");
    let ont = nine.iter().position(|d| d.name == "ONT HG002").expect("the heaviest tail");
    const BIN: u64 = 1000; // blocks-per-thread bin width
    for label in ["Original Order", "SR+Original Order", "SR+Sort", "SR+UB"] {
        let lanes = (rows[runs.index(label)].1)(nine[ont].scoring).config.subwarp_lanes as u64;
        let mut bins: Vec<(u64, f64)> = Vec::new();
        let mut max_assigned = 0u64;
        for &(assigned, executed) in &runs.reports(label)[ont].subwarp_blocks {
            let per_thread = assigned / lanes;
            max_assigned = max_assigned.max(per_thread);
            let bin = (per_thread / BIN) as usize;
            if bins.len() <= bin {
                bins.resize(bin + 1, (0, 0.0));
            }
            bins[bin].0 += 1;
            bins[bin].1 += executed;
        }
        println!("\n{label}: max initially-assigned blocks/thread = {max_assigned}");
        println!("{:>20} {:>10} {:>20}", "assigned blocks/thr", "subwarps", "executed (K blocks)");
        for (b, &(count, exec)) in bins.iter().enumerate() {
            if count > 0 {
                let range = format!("{}-{}", b as u64 * BIN, (b as u64 + 1) * BIN);
                println!("{range:>20} {count:>10} {:>20.1}", exec / 1e3);
            }
        }
    }
    println!(
        "\npaper: SR+UB shifts the whole distribution left — large assignments spread over many \
         subwarps."
    );
}

/// AGAThA with subwarp rejoining on or off, in the given order.
fn balancing(rejoining: bool, ordering: OrderingStrategy) -> AgathaConfig {
    AgathaConfig::agatha().with_sr(rejoining).with_ordering(ordering)
}

/// Fig. 13: the orderings on controlled long/short mixes.
fn fig13(ledger: &mut Ledger) {
    banner("Figure 13", "long-sequence percentage sweep: speedup over SR+Original");
    let mixes = [25.0, 10.0, 5.0, 1.0]
        .map(|pct| Dataset { name: format!("{pct}%"), ..long_short_mix(pct, READS, 4242) });
    let rows: [Row; 3] = [
        ("SR+Original Order", |s| plan(s, balancing(true, OrderingStrategy::Original))),
        ("SR+Sort", |s| plan(s, balancing(true, OrderingStrategy::Sorted))),
        ("SR+UB", agatha),
    ];
    let runs = Runs::new(&rows, &mixes);
    runs.print(Unit::Over("SR+Original Order"));
    println!(
        "\npaper: UB always >= original (peak 2.39x at 10%); Sort peaks at 25% and falls to 0.61x \
         at 1%."
    );
    let ub = runs.speedups("SR+UB", "SR+Original Order");
    let peak = ranking(&ub)[ub.len() - 1];
    ledger.claim(
        "Fig. 13",
        "SR+UB's gain over SR+Original peaks at 10 % long reads",
        Verdict::Deviates,
        mixes[peak].name == "10%",
        format!(
            "SR+UB {} at {}, peak at {}; paper 2.39x at 10%",
            ub.iter().map(|s| format!("{s:.2}x")).collect::<Vec<_>>().join(" / "),
            mixes.iter().map(|d| d.name.as_str()).collect::<Vec<_>>().join(" / "),
            mixes[peak].name
        ),
    );
}

/// The RW+SD kernel on subwarps of `L` lanes: no rejoining, incoming order.
fn plain_subwarps<const L: usize>(scoring: Scoring) -> Pipeline {
    plan(scoring, balancing(false, OrderingStrategy::Original).with_subwarp(L))
}

/// Fig. 14: subwarp sizes for the RW+SD kernel, against full AGAThA.
fn fig14(nine: &[Dataset], ledger: &mut Ledger) {
    banner("Figure 14", "subwarp size sensitivity, exec time (ms)");
    let rows: [Row; 4] = [
        ("8", plain_subwarps::<8>),
        ("16", plain_subwarps::<16>),
        ("32 (full warp)", plain_subwarps::<32>),
        ("AGAThA (8+SR+UB)", agatha),
    ];
    let runs = Runs::new(&rows, nine);
    runs.print(Unit::Ms);
    println!(
        "\npaper: full warp ~10% faster than subwarps for RW+SD only; AGAThA (which needs subwarps \
         for SR/UB) fastest overall; 16 shows slowdowns."
    );
    let geo: Vec<f64> = rows.iter().map(|(label, _)| geomean(&runs.ms(label))).collect();
    ledger.claim(
        "Fig. 14",
        "AGAThA is fastest, and subwarps of 8 beat 16",
        Verdict::Holds,
        geo[3] < geo[0] && geo[3] < geo[2] && geo[0] < geo[1],
        format!(
            "geomean AGAThA {:.3} ms, 8 {:.3}, 16 {:.3}, 32 {:.3}",
            geo[3], geo[0], geo[1], geo[2]
        ),
    );
}

/// Fig. 15: AGAThA on other devices and on several GPUs, and the stronger
/// CPU, as speedup over the default CPU.
fn fig15(nine: &[Dataset], ledger: &mut Ledger) {
    banner("Figure 15", "hardware flexibility: speedup over Minimap2 (16C32T SSE4)");
    let cpu = Baseline::CpuSse4.name();
    let rows: [Row; 8] = [
        (cpu, |s| Baseline::CpuSse4.pipeline(s)),
        ("Minimap2 48C96T AVX512", |s| Baseline::CpuAvx512.pipeline(s)),
        ("RTX 2080Ti", |s| agatha(s).with_spec(GpuSpec::rtx_2080ti())),
        ("A100", |s| agatha(s).with_spec(GpuSpec::a100())),
        ("A6000", agatha),
        ("A6000 x2", |s| agatha(s).with_gpus(2)),
        ("A6000 x3", |s| agatha(s).with_gpus(3)),
        ("A6000 x4", |s| agatha(s).with_gpus(4)),
    ];
    let runs = Runs::new(&rows, nine);
    runs.print(Unit::Over(cpu));
    println!(
        "\npaper: 2080Ti 9.49x | A100 15.84x | A6000 18.83x | x4 59.38x (near-linear) | AVX512 CPU \
         2.30x"
    );
    let over_cpu = |label| runs.speedups(label, cpu);
    let (a6000, a100, t2080) = (over_cpu("A6000"), over_cpu("A100"), over_cpu("RTX 2080Ti"));
    let span =
        |xs: &[f64]| format!("{:.2}x-{:.2}x", least(xs), xs.iter().copied().fold(0.0, f64::max));
    ledger.claim(
        "Fig. 15",
        "the A6000 beats the A100, and the A100 beats the 2080Ti, on every dataset",
        Verdict::Holds,
        a6000.iter().zip(&a100).zip(&t2080).all(|((x, y), z)| x > y && y > z),
        format!(
            "per-dataset speedup over the CPU: A6000 {}, A100 {}, 2080Ti {}; paper geomeans \
             18.83x, 15.84x, 9.49x",
            span(&a6000),
            span(&a100),
            span(&t2080)
        ),
    );
    let one = runs.speedup("A6000", cpu);
    let scaling: Vec<f64> =
        ["A6000 x2", "A6000 x3", "A6000 x4"].iter().map(|l| runs.speedup(l, cpu) / one).collect();
    ledger.claim(
        "Fig. 15",
        "multi-GPU scaling is near-linear up to 4 devices (k GPUs give at least 0.75 k of one)",
        Verdict::Deviates,
        scaling.iter().zip(2..).all(|(s, k)| *s >= 0.75 * k as f64),
        format!(
            "x2 / x3 / x4 give {} of one GPU; paper 59.38x / 18.83x = 3.15x at x4",
            scaling.iter().map(|s| format!("{s:.2}x")).collect::<Vec<_>>().join(" / ")
        ),
    );
}

/// Fig. 16: BWA-MEM's guided alignment, as speedup over BWA-MEM on the CPU.
fn fig16(nine: &[Dataset], ledger: &mut Ledger) {
    banner("Figure 16", "BWA-MEM guided alignment: speedup over BWA-MEM on the CPU");
    let bwa: Vec<Dataset> =
        nine.iter().map(|d| Dataset { scoring: Scoring::preset_bwa(), ..d.clone() }).collect();
    let cpu = Baseline::CpuSse4.name();
    let rows: [Row; 3] = [
        (cpu, |s| Baseline::CpuSse4.pipeline(s)),
        ("SALoBa", |s| Baseline::SalobaMm2.pipeline(s)),
        ("AGAThA", agatha),
    ];
    let runs = Runs::new(&rows, &bwa);
    runs.print(Unit::Over(cpu));
    println!(
        "\npaper: AGAThA ~15x over BWA-MEM CPU; gap over SALoBa smaller than on Minimap2 (smaller \
         band/threshold -> less imbalance)."
    );
    let (ours, saloba) = (runs.speedup("AGAThA", cpu), runs.speedup("SALoBa", cpu));
    ledger.claim(
        "Fig. 16",
        "AGAThA beats SALoBa on BWA-MEM's guided alignment",
        Verdict::Holds,
        ours > saloba,
        format!("AGAThA {ours:.2}x, SALoBa {saloba:.2}x over the CPU; paper AGAThA ~15x"),
    );
}

/// §6's future work: "if we predict exactly when the termination condition
/// is met … the kernel could remove most of the remaining workload
/// imbalance". Uneven bucketing keyed by the device blocks each task will
/// execute — a perfect termination predictor — against the anti-diagonal key
/// AGAThA ships, in simulated makespan on one device, per registered
/// scenario.
fn sec6(ledger: &mut Ledger) {
    banner("§6", "termination headroom: uneven bucketing keyed by executed blocks (an oracle)");
    const SEED: u64 = 1234;
    const TASKS: usize = 480;
    let cfg = AgathaConfig::agatha();
    let (mut holds, mut gains) = (true, Vec::new());
    for scenario in SCENARIOS {
        let tasks = (scenario.tasks)(SEED, TASKS);
        let pipeline = plan((scenario.scoring)(), cfg.clone());
        let runs = pipeline.engine().run_tasks(tasks.clone());
        let makespan = |workloads: &[u64]| {
            let (n, g) = (cfg.subwarps_per_warp(), cfg.tasks_per_subwarp);
            let warps = build_warps(workloads, n, g, OrderingStrategy::UnevenBucketing);
            let cycles: Vec<f64> = warps
                .iter()
                .map(|w| {
                    let queues: Vec<Vec<&TaskRun>> =
                        w.queues.iter().map(|q| q.iter().map(|&i| &runs[i]).collect()).collect();
                    simulate_warp(&queues, &cfg, &pipeline.cost).cycles
                })
                .collect();
            sched::schedule(&cycles, pipeline.spec.warp_slots()).makespan_cycles
        };
        let antidiags: Vec<u64> = tasks.iter().map(|t| u64::from(t.antidiags())).collect();
        let executed: Vec<u64> = runs.iter().map(|r| r.device_blocks().max(1)).collect();
        let gain = 1.0 - makespan(&executed) / makespan(&antidiags);
        holds &= gain < 0.20;
        gains.push(format!("{} {:+.1} %", scenario.name, gain * 100.0));
    }
    ledger.claim(
        "§6",
        "a perfect termination predictor gains uneven bucketing less than 20 % on every scenario",
        Verdict::Holds,
        holds,
        format!(
            "oracle key over anti-diagonals, seed {SEED}, {TASKS} tasks each: {}",
            gains.join(", ")
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flip_either_way_is_counted() {
        let mut ledger = Ledger::new(4);
        ledger.claim("Fig. x", "kept", Verdict::Holds, true, String::new());
        ledger.claim("Fig. x", "kept", Verdict::Deviates, false, String::new());
        assert_eq!(ledger.flipped.len(), 0);
        ledger.claim("Fig. x", "fixed", Verdict::Deviates, true, String::new());
        ledger.claim("Fig. x", "broken", Verdict::Holds, false, String::new());
        assert_eq!(ledger.finish(), 2);
        // A recorded claim that is not checked fails the run as well.
        let mut short = Ledger::new(3);
        short.claim("Fig. x", "kept", Verdict::Holds, true, String::new());
        assert_eq!(short.finish(), 2);
    }

    #[test]
    fn ranking_orders_from_smallest() {
        assert_eq!(ranking(&[3.0, 1.0, 2.0]), vec![1, 2, 0]);
    }
}
