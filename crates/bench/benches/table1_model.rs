//! Table 1: the analytic performance model, evaluated on the measured
//! workload and compared with the simulated ablation.
//!
//! The model predicts the latency of each design row (Baseline, +RW, +RW+SD,
//! +RW+SD+SR, +RW+SD+SR+UB) as `Cells × (1/Comp.TP + ΣAR/Mem.TP)` combined
//! MAX/AVG-wise over subwarps and warps (§4.5); the table prints the model's
//! predicted speedups next to the simulator's measured ones.

use agatha_bench::{banner, geomean, nine_datasets};
use agatha_core::model::{predict, table1_rows, ModelParams};
use agatha_core::{AgathaConfig, Pipeline};

fn main() {
    banner("Table 1", "performance model vs simulation (speedup over Baseline)");
    let datasets = nine_datasets();
    let params = ModelParams::default();

    // Model inputs: per-subwarp reference cell counts grouped into warps of
    // four subwarps, in incoming order.
    let mut model_speedups: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut sim_speedups: Vec<Vec<f64>> = vec![Vec::new(); 5];

    let configs: [AgathaConfig; 5] = [
        AgathaConfig::baseline(),
        AgathaConfig::baseline().with_rw(true),
        AgathaConfig::baseline().with_rw(true).with_sd(true),
        AgathaConfig::baseline().with_rw(true).with_sd(true).with_sr(true),
        AgathaConfig::agatha(),
    ];

    for d in &datasets {
        let rows = table1_rows(d.scoring.band_width as u32);
        // Cell counts from the kernel runs (reference semantics).
        let p0 = Pipeline::new(d.scoring, AgathaConfig::baseline());
        let runs = p0.engine().run_tasks(d.tasks.clone());
        let warps: Vec<Vec<u64>> =
            runs.chunks(4).map(|c| c.iter().map(|r| r.result.cells).collect()).collect();
        let base_model = predict(&rows[0], &warps, &params);
        let base_sim =
            Pipeline::new(d.scoring, configs[0].clone()).align_batch(&d.tasks).elapsed_ms;
        for (k, (row, cfg)) in rows.iter().zip(&configs).enumerate() {
            model_speedups[k].push(base_model / predict(row, &warps, &params));
            let ms = Pipeline::new(d.scoring, cfg.clone()).align_batch(&d.tasks).elapsed_ms;
            sim_speedups[k].push(base_sim / ms);
        }
    }

    println!("{:<16}{:>18}{:>18}", "design", "model (geomean)", "simulated");
    let names = ["Baseline", "+RW", "+RW+SD", "+RW+SD+SR", "+RW+SD+SR+UB"];
    for (k, name) in names.iter().enumerate() {
        println!(
            "{:<16}{:>17.2}x{:>17.2}x",
            name,
            geomean(&model_speedups[k]),
            geomean(&sim_speedups[k])
        );
    }
    println!("\nthe model (Table 1) captures the direction of every technique; magnitudes come from the simulator.");
}
