//! Calibration diagnostic: warp-latency distributions under each
//! ordering/rejoining combination (not part of the figure set).

use agatha_core::{AgathaConfig, OrderingStrategy, Pipeline};
use agatha_datasets::{generate, DatasetSpec, Tech};

fn main() {
    let reads: usize =
        std::env::var("AGATHA_READS").ok().and_then(|v| v.parse().ok()).unwrap_or(400);
    let spec = DatasetSpec { name: "probe CLR".into(), tech: Tech::Ont, seed: 801, reads };
    let d = generate(&spec);

    let mut diags: Vec<u64> = d.tasks.iter().map(|t| t.antidiags() as u64).collect();
    diags.sort_unstable();
    println!(
        "task antidiags: median {} p90 {} max {} (max/median {:.1}x)",
        diags[reads / 2],
        diags[reads * 9 / 10],
        diags[reads - 1],
        diags[reads - 1] as f64 / diags[reads / 2] as f64
    );

    for (name, sr, strat) in [
        ("noSR+Orig", false, OrderingStrategy::Original),
        ("SR+Orig  ", true, OrderingStrategy::Original),
        ("noSR+Sort", false, OrderingStrategy::Sorted),
        ("SR+Sort  ", true, OrderingStrategy::Sorted),
        ("noSR+UB  ", false, OrderingStrategy::UnevenBucketing),
        ("SR+UB    ", true, OrderingStrategy::UnevenBucketing),
    ] {
        let cfg = AgathaConfig::agatha().with_sr(sr).with_ub(false);
        let p = Pipeline::new(d.scoring, cfg);
        let rep = p.align_batch_with_strategy(&d.tasks, strat);
        let mut w = rep.warp_cycles.clone();
        w.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sum: f64 = w.iter().sum();
        println!(
            "{name}: ms {:.3} | warps {} | warp mean {:.0} max {:.0} (max/mean {:.1}x) | util {:.2} | lb(busy/slots) {:.3} ms",
            rep.elapsed_ms,
            w.len(),
            sum / w.len() as f64,
            w.last().unwrap(),
            w.last().unwrap() / (sum / w.len() as f64),
            rep.device.utilization,
            p.spec.cycles_to_ms(sum / p.spec.warp_slots() as f64),
        );
    }
}
