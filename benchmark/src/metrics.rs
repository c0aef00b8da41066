//! The metric names the benchmark prints, with units, directions and
//! regression bounds — the single list `BENCHMARK.json`, the result lines,
//! `compare` and the README are checked against.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub def: MetricDef,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports every one (see the README for what each means on the
/// batch and on the serve workloads).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { def: higher("tasks_per_s", "1/s"), bound: 0.25 },
    EndToEnd { def: lower("latency_ms", "ms"), bound: 0.25 },
    EndToEnd { def: lower("cpu_us_per_task", "us"), bound: 0.25 },
    EndToEnd { def: lower("peak_rss_mb", "MB"), bound: 0.25 },
    EndToEnd { def: lower("setup_s", "s"), bound: 0.25 },
];

/// Single-layer metrics from the traced staged replay, layer = module. A
/// workload that never enters a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 58] = [
    lower("ioutil.fasta.parse_ns_per_base", "ns"),
    higher("ioutil.fasta.parse_mb_per_s", "MB/s"),
    higher("ioutil.fasta.tasks", "count"),
    higher("ioutil.fasta.bases", "count"),
    lower("ioutil.output.write_ns_per_task", "ns"),
    lower("align.pack.pack_ns_per_base", "ns"),
    lower("align.block.fill_ns_per_block", "ns"),
    lower("align.block.blocks", "count"),
    lower("align.block.cells_computed", "count"),
    higher("align.block.tier_share_i16", "ratio"),
    lower("align.block.tier_share_i32", "ratio"),
    higher("align.block.geom_share_b16", "ratio"),
    higher("align.block.useful_cell_ratio", "ratio"),
    lower("align.diag.fold_ns_per_block", "ns"),
    lower("align.diag.zdrop_share", "ratio"),
    lower("core.kernel.run_ns_per_block", "ns"),
    higher("core.kernel.gcups", "Gcell/s"),
    lower("core.kernel.overhead_share", "ratio"),
    lower("core.engine.dispatch_ns_per_task_1w", "ns"),
    lower("core.engine.dispatch_ns_per_task_2w", "ns"),
    lower("core.engine.chunk_overhead_us", "us"),
    higher("core.engine.scaling_eff_2t", "ratio"),
    lower("core.engine.chunks", "count"),
    higher("core.engine.recycled_buffers", "count"),
    higher("core.prefetch.overlap_gain", "ratio"),
    lower("core.bucketing.build_ns_per_task", "ns"),
    lower("core.bucketing.warps", "count"),
    higher("core.bucketing.warp_fill_ratio", "ratio"),
    higher("core.bucketing.carry_deferred", "count"),
    lower("core.warp_sim.sim_ns_per_task", "ns"),
    lower("core.warp_sim.idle_lane_share", "ratio"),
    lower("gpu-sim.sched.schedule_ns_per_warp", "ns"),
    higher("gpu-sim.sched.utilization", "ratio"),
    lower("gpu-sim.sched.sim_kernel_ms", "ms"),
    lower("gpu-sim.stats.eval_ns_per_task", "ns"),
    lower("gpu-sim.stats.global_tx_per_cell", "ratio"),
    lower("gpu-sim.stats.runahead_ratio", "ratio"),
    lower("serve.protocol.parse_ns_per_req", "ns"),
    lower("serve.protocol.format_ns_per_reply", "ns"),
    lower("serve.window.offer_collect_ns_per_req", "ns"),
    lower("serve.daemon.queue_p50_ms", "ms"),
    lower("serve.daemon.queue_p99_ms", "ms"),
    lower("serve.daemon.service_p50_ms", "ms"),
    lower("serve.daemon.service_p99_ms", "ms"),
    higher("serve.daemon.mean_batch", "count"),
    lower("serve.daemon.rejected", "count"),
    lower("serve.daemon.dropped_deadline", "count"),
    lower("serve.daemon.starved", "count"),
    higher("serve.load.closed_rps", "1/s"),
    lower("serve.load.p50_ms", "ms"),
    lower("serve.load.p99_ms", "ms"),
    lower("serve.load.window_p99_ms", "ms"),
    higher("serve.load.max_ok_rps", "1/s"),
    higher("serve.load.overload_goodput_rps", "1/s"),
    lower("serve.load.overload_refused", "count"),
    lower("serve.load.send_lag_p99_ms", "ms"),
    lower("trace.staged_over_e2e", "ratio"),
    higher("trace.spans", "count"),
];

/// Whether `name` can appear in `BENCHMARK.json` and in a result line.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` can appear in `BENCHMARK.json`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOAD_NAMES;

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().map(|m| &m.def).chain(&PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{}: {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
        for name in WORKLOAD_NAMES {
            assert!(valid_name(name) && seen.insert(name), "{name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.def.name);
            assert_eq!(field(got, "unit"), want.def.unit);
            assert_eq!(field(got, "better"), want.def.better.name());
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.name());
            assert_eq!(got.fields().len(), 3, "{}: per-layer metrics have no bound", want.name);
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOAD_NAMES);
        for w in workloads {
            let why = field(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
