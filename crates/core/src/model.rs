//! The analytic performance model of Table 1 (§4.5).
//!
//! The paper models subwarp latency as
//! `Cells × (1/Comp.TP + (AR_anti + AR_inter + AR_term)/Mem.TP)` with
//! `Cells = Antidiags × Band_width + Runahead` (Eq. 8), aggregated by
//! `MAX`/`AVG` over subwarps and warps depending on which balancing
//! techniques are active. This module evaluates all five design rows over
//! a measured workload so the scorecard (`agatha_bench::scorecard`) can
//! print the predicted speedups next to the simulated ones and check that
//! both rank the designs alike.

/// How a level combines its children's latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Dominated by the maximum (the paper's `MÃX`).
    Max,
    /// Close to the average (`ÃVG`), achieved by the balancing techniques.
    Avg,
}

impl Agg {
    fn apply(self, values: impl Iterator<Item = f64>) -> f64 {
        let v: Vec<f64> = values.collect();
        if v.is_empty() {
            return 0.0;
        }
        match self {
            Agg::Max => v.iter().copied().fold(0.0, f64::max),
            Agg::Avg => v.iter().sum::<f64>() / v.len() as f64,
        }
    }
}

/// One design row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRow {
    /// Design name, e.g. `"+RW+SD"`.
    pub name: &'static str,
    /// Anti-diagonal max-tracking access ratio.
    pub ar_anti: f64,
    /// Intermediate-value access ratio.
    pub ar_inter: f64,
    /// Termination-check access ratio.
    pub ar_term: f64,
    /// Run-ahead multiplier on cells (1.0 = none).
    pub runahead: f64,
    /// Subwarp-level aggregation.
    pub subwarp_agg: Agg,
    /// Warp-level aggregation.
    pub warp_agg: Agg,
}

/// The five rows of Table 1, parameterised by the band width.
pub fn table1_rows(band_width: u32) -> Vec<DesignRow> {
    let bw = band_width.max(1) as f64;
    // Baseline access ratios from §4.5: 1 : 1/8 : 1/Band_width.
    let (anti0, inter0, term0) = (1.0, 1.0 / 8.0, 1.0 / bw);
    vec![
        DesignRow {
            name: "Baseline",
            ar_anti: anti0,
            ar_inter: inter0,
            ar_term: term0,
            runahead: 1.0 + 4.0 / bw.sqrt(),
            subwarp_agg: Agg::Max,
            warp_agg: Agg::Max,
        },
        DesignRow {
            name: "+RW",
            ar_anti: anti0 / 16.0, // shared-memory window, spills only
            ar_inter: inter0,
            ar_term: term0,
            runahead: 1.0 + 4.0 / bw.sqrt(),
            subwarp_agg: Agg::Max,
            warp_agg: Agg::Max,
        },
        DesignRow {
            name: "+RW+SD",
            ar_anti: anti0 / 64.0,  // window fits the LMB: no spills
            ar_inter: inter0 * 1.5, // slice-boundary reads/writes (the trade-off)
            ar_term: term0 / 4.0,
            runahead: 1.0 + 0.5 / bw.sqrt(), // bounded by s × band_width
            subwarp_agg: Agg::Max,
            warp_agg: Agg::Max,
        },
        DesignRow {
            name: "+RW+SD+SR",
            ar_anti: anti0 / 64.0,
            ar_inter: inter0 * 1.5,
            ar_term: term0 / 4.0,
            runahead: 1.0 + 0.5 / bw.sqrt(),
            subwarp_agg: Agg::Avg,
            warp_agg: Agg::Max,
        },
        DesignRow {
            name: "+RW+SD+SR+UB",
            ar_anti: anti0 / 64.0,
            ar_inter: inter0 * 1.5,
            ar_term: term0 / 4.0,
            runahead: 1.0 + 0.5 / bw.sqrt(),
            subwarp_agg: Agg::Avg,
            warp_agg: Agg::Avg,
        },
    ]
}

/// Throughput constants for the analytic model (arbitrary units; only
/// ratios between rows are meaningful).
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Cells per unit time per subwarp.
    pub comp_tp: f64,
    /// Memory transactions per unit time.
    pub mem_tp: f64,
}

impl Default for ModelParams {
    fn default() -> ModelParams {
        ModelParams { comp_tp: 128.0, mem_tp: 4.0 }
    }
}

/// Predicted latency of one design over a workload given as per-subwarp
/// cell counts grouped into warps: `warps[w][s]` = cells of subwarp `s`.
pub fn predict(row: &DesignRow, warps: &[Vec<u64>], p: &ModelParams) -> f64 {
    let per_cell = 1.0 / p.comp_tp + (row.ar_anti + row.ar_inter + row.ar_term) / p.mem_tp;
    row.warp_agg.apply(warps.iter().map(|subwarps| {
        row.subwarp_agg.apply(subwarps.iter().map(|&cells| cells as f64 * row.runahead * per_cell))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_workload() -> Vec<Vec<u64>> {
        // 8 warps × 4 subwarps; warp 0 has one extreme task.
        let mut warps = vec![vec![1000u64; 4]; 8];
        warps[0][0] = 40_000;
        warps
    }

    #[test]
    fn each_technique_improves() {
        let rows = table1_rows(64);
        let warps = skewed_workload();
        let p = ModelParams::default();
        let lat: Vec<f64> = rows.iter().map(|r| predict(r, &warps, &p)).collect();
        for k in 1..lat.len() {
            assert!(
                lat[k] < lat[k - 1],
                "{} ({}) must beat {} ({})",
                rows[k].name,
                lat[k],
                rows[k - 1].name,
                lat[k - 1]
            );
        }
    }

    #[test]
    fn full_design_speedup_is_substantial() {
        let rows = table1_rows(64);
        let warps = skewed_workload();
        let p = ModelParams::default();
        let base = predict(&rows[0], &warps, &p);
        let full = predict(rows.last().unwrap(), &warps, &p);
        assert!(base / full > 4.0, "model speedup {}", base / full);
    }

    #[test]
    fn agg_behaviour() {
        let v = [1.0, 2.0, 9.0];
        assert_eq!(Agg::Max.apply(v.iter().copied()), 9.0);
        assert!((Agg::Avg.apply(v.iter().copied()) - 4.0).abs() < 1e-12);
        assert_eq!(Agg::Max.apply(std::iter::empty()), 0.0);
    }

    #[test]
    fn balanced_workload_sees_no_sr_ub_gain() {
        let rows = table1_rows(64);
        let warps = vec![vec![1000u64; 4]; 8];
        let p = ModelParams::default();
        let sd = predict(&rows[2], &warps, &p);
        let sr = predict(&rows[3], &warps, &p);
        let ub = predict(&rows[4], &warps, &p);
        assert!((sd - sr).abs() < 1e-9);
        assert!((sr - ub).abs() < 1e-9);
    }
}
