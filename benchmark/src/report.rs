//! Result sets: every run of every workload in one document that `compare`
//! reads back, and the table printed for people.

use std::path::Path;

use crate::json::Json;
use crate::measure::Summary;
use crate::metrics::END_TO_END;
use crate::runs::{
    batch_end_to_end, batch_traced, serve_end_to_end, serve_traced, RunOpts, RunResult,
};
use crate::workloads::{find_batch, SERVE_OPEN, WORKLOAD_NAMES};

/// Run one workload once, untraced (end to end) or traced (per layer).
pub fn run_workload(
    binary: &Path,
    workload: &str,
    traced: bool,
    opts: RunOpts,
) -> Result<RunResult, String> {
    match (find_batch(workload), traced) {
        (Some(w), false) => batch_end_to_end(binary, w, opts),
        (Some(w), true) => batch_traced(binary, w, opts),
        (None, false) if workload == SERVE_OPEN.name => serve_end_to_end(binary, SERVE_OPEN, opts),
        (None, true) if workload == SERVE_OPEN.name => serve_traced(binary, SERVE_OPEN, opts),
        _ => Err(format!("unknown workload '{workload}' (known: {})", WORKLOAD_NAMES.join(", "))),
    }
}

/// All runs of one workload: its end-to-end runs (one per seed) and its
/// traced run.
pub struct WorkloadRuns {
    pub name: String,
    pub end_to_end: Vec<RunResult>,
    pub traced: RunResult,
}

impl WorkloadRuns {
    pub fn correct(&self) -> bool {
        self.traced.correct() && self.end_to_end.iter().all(RunResult::correct)
    }

    /// Values of one end-to-end metric across the runs.
    fn values(&self, metric: &str) -> Vec<f64> {
        self.end_to_end
            .iter()
            .filter_map(|r| r.metrics.iter().find(|m| m.name == metric).map(|m| m.value))
            .collect()
    }

    /// What the table shows for a metric: the spread across runs when there
    /// are several, the samples inside the one run otherwise.
    fn summary(&self, metric: &str) -> Option<Summary> {
        let values = self.values(metric);
        match values.len() {
            0 => None,
            1 => self.end_to_end[0]
                .metrics
                .iter()
                .find(|m| m.name == metric)
                .and_then(|m| m.samples)
                .or_else(|| Some(Summary::of(&values))),
            _ => Some(Summary::of(&values)),
        }
    }

    fn to_json(&self) -> Json {
        let end_to_end = END_TO_END.iter().map(|m| {
            let values = self.values(m.def.name);
            let mut fields = vec![
                ("unit".to_string(), Json::Str(m.def.unit.to_string())),
                ("values".to_string(), Json::Arr(values.iter().copied().map(Json::Num).collect())),
            ];
            if !values.is_empty() {
                fields.push(("across_runs".to_string(), Summary::of(&values).to_json()));
            }
            (m.def.name, Json::Obj(fields))
        });
        let per_layer = self.traced.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("unit", Json::Str(m.unit.to_string())), ("value", Json::Num(m.value))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", Json::obj(per_layer)),
            ("runs", Json::Arr(self.end_to_end.iter().map(RunResult::to_json).collect())),
            ("traced_run", self.traced.to_json()),
        ])
    }
}

/// The result-set document.
pub fn set_json(host: Json, opts: RunOpts, workloads: &[WorkloadRuns]) -> Json {
    Json::obj([
        ("benchmark", Json::Str("agatha_benchmark".to_string())),
        // A --quick set smokes the path; its numbers compare with nothing.
        ("comparable", Json::Bool(!opts.quick)),
        ("run_seconds", Json::Num(opts.seconds)),
        ("host", host),
        ("workloads", Json::obj(workloads.iter().map(|w| (w.name.clone(), w.to_json())))),
    ])
}

/// Every metric by name with unit, value, then the quartiles, median and
/// count of the samples behind it: the runs when there are several, the
/// samples inside the run (reps, windows, set-ups) when there is one. The
/// value is the median over runs, or the one run's own figure.
pub fn table(workloads: &[WorkloadRuns]) -> String {
    let mut out = String::new();
    for w in workloads {
        let runs = w.end_to_end.len();
        out.push_str(&format!(
            "\n== {} ({} end-to-end run{}, {}) ==\n",
            w.name,
            runs,
            if runs == 1 { "" } else { "s" },
            if w.correct() { "outputs correct" } else { "OUTPUTS WRONG" }
        ));
        out.push_str(&format!(
            "{:<20} {:>5} {:>14} {:>14} {:>14} {:>14} {:>5}\n",
            "end-to-end metric", "unit", "value", "q1", "median", "q3", "n"
        ));
        for m in &END_TO_END {
            let values = w.values(m.def.name);
            let (Some(s), false) = (w.summary(m.def.name), values.is_empty()) else { continue };
            let shown = if values.len() == 1 { values[0] } else { s.median };
            out.push_str(&format!(
                "{:<20} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>5}\n",
                m.def.name, m.def.unit, shown, s.q1, s.median, s.q3, s.n
            ));
        }
        out.push_str(&format!("{:<40} {:>8} {:>14}\n", "per-layer metric", "unit", "value"));
        for m in &w.traced.metrics {
            out.push_str(&format!("{:<40} {:>8} {:>14.6}\n", m.name, m.unit, m.value));
        }
        for r in w.end_to_end.iter().chain(std::iter::once(&w.traced)) {
            for line in r.problems.iter().chain(&r.notes) {
                out.push_str(&format!("! {line}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{valid_name, PER_LAYER};
    use crate::runs::Metric;

    fn run(traced: bool, scale: f64) -> RunResult {
        let metrics = if traced {
            PER_LAYER
                .iter()
                .map(|m| Metric { name: m.name, unit: m.unit, value: 1.5, samples: None })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| Metric {
                    name: m.def.name,
                    unit: m.def.unit,
                    value: 2.0 * scale,
                    samples: Some(Summary::of(&[1.0, 2.0, 3.0])),
                })
                .collect()
        };
        RunResult {
            workload: "short-batch",
            traced,
            attempted: 5,
            failed: 0,
            problems: Vec::new(),
            notes: vec!["a note".to_string()],
            metrics,
            detail: Json::obj([("pairs", Json::Num(5.0))]),
        }
    }

    #[test]
    fn emitted_set_parses_and_every_metric_name_is_well_formed() {
        let runs = WorkloadRuns {
            name: "short-batch".to_string(),
            end_to_end: vec![run(false, 1.0), run(false, 1.1)],
            traced: run(true, 1.0),
        };
        let opts = RunOpts { seed: 7, seconds: 15.0, quick: true };
        let text = set_json(crate::measure::host_block(7), opts, &[runs]).render_pretty();
        let doc = Json::parse(&text).expect("the emitted set is valid JSON");
        assert_eq!(
            doc.get("comparable").and_then(Json::as_bool),
            Some(false),
            "--quick is stamped"
        );
        let w = doc.get("workloads").and_then(|w| w.get("short-batch")).unwrap();
        let e2e = w.get("end_to_end").unwrap();
        assert_eq!(e2e.fields().len(), END_TO_END.len());
        for (name, m) in e2e.fields() {
            assert!(valid_name(name), "{name}");
            assert_eq!(m.get("values").and_then(Json::as_arr).unwrap().len(), 2);
        }
        let layers = w.get("per_layer").unwrap();
        assert_eq!(layers.fields().len(), PER_LAYER.len());
        assert!(layers.fields().iter().all(|(name, _)| valid_name(name)));
        // The set round-trips through `compare` against itself.
        let (table, worse) = crate::compare::compare_sets(&doc, &doc).unwrap();
        assert!(!worse, "{table}");
    }

    #[test]
    fn table_names_every_metric_with_unit_and_sample_count() {
        let one = WorkloadRuns {
            name: "short-batch".to_string(),
            end_to_end: vec![run(false, 1.0)],
            traced: run(true, 1.0),
        };
        let text = table(&[one]);
        for m in &END_TO_END {
            assert!(text.contains(m.def.name), "{}", m.def.name);
        }
        for m in &PER_LAYER {
            assert!(text.contains(m.name), "{}", m.name);
        }
        // One run: the quartiles and n are those of the samples inside it.
        let line = text.lines().find(|l| l.starts_with("tasks_per_s")).unwrap();
        assert!(line.trim_end().ends_with('3'), "{line}");
        assert!(text.contains("! a note"));
    }

    #[test]
    fn unknown_workloads_are_refused_by_name() {
        let opts = RunOpts { seed: 1, seconds: 1.0, quick: true };
        let err = run_workload(Path::new("/nonexistent"), "nope", false, opts).unwrap_err();
        assert!(err.contains("unknown workload 'nope'") && err.contains("serve-open"), "{err}");
    }
}
