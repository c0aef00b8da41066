//! `agatha_benchmark compare A.json B.json`: for every (end-to-end metric,
//! workload) say whether B is better, worse, within the metric's bound, or
//! unresolved because the run-to-run spread is wider than the bound. The
//! tool behind the two-set acceptance check and a later CI gate.

use crate::json::Json;
use crate::measure::Summary;
use crate::metrics::{Better, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The spread between runs of one set is wider than the bound, so a
    /// change of the bound's size could hide in it.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub verdict: Verdict,
    pub a: Summary,
    pub b: Summary,
    /// Share of A's median by which B's median is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' interquartile spreads.
    pub spread: f64,
}

/// Compare the runs of set B with those of set A for one metric.
///
/// * spread wider than the bound → unresolved, unless every run of B reads
///   better than every run of A;
/// * B's median worse than A's by more than the bound → worse;
/// * B's median better than A's by more than the spread → better;
/// * otherwise within bound.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let worse_by = match better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
    };
    let spread = sa.spread().max(sb.spread());
    let every_run_better = match better {
        Better::Lower => sb.max < sa.min,
        Better::Higher => sb.min > sa.max,
    };
    let verdict = if spread > bound {
        if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if every_run_better || -worse_by > spread.max(f64::EPSILON) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Row { verdict, a: sa, b: sb, worse_by, spread }
}

fn values(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn layer_value(set: &Json, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?.get(workload)?.get("per_layer")?.get(metric)?.get("value")?.as_f64()
}

/// The comparison table, and whether any row is worse.
pub fn compare_sets(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads: Vec<&str> = a
        .get("workloads")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if workloads.is_empty() {
        return Err("the first result set lists no workloads".to_string());
    }
    let mut out = String::new();
    for set in [a, b] {
        if set.get("comparable").and_then(Json::as_bool) == Some(false) {
            out.push_str("warning: a result set is stamped \"comparable\": false (--quick)\n");
        }
    }
    out.push_str(&format!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "median A", "median B", "worse by", "spread", "bound"
    ));
    let mut any_worse = false;
    for w in &workloads {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (values(a, w, m.def.name), values(b, w, m.def.name)) else {
                return Err(format!("{w} / {}: missing from one of the sets", m.def.name));
            };
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{w} / {}: no runs recorded", m.def.name));
            }
            let row = judge(&va, &vb, m.def.better, m.bound);
            any_worse |= row.verdict == Verdict::Worse;
            out.push_str(&format!(
                "{:<18} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.0}%  {}\n",
                w,
                m.def.name,
                row.a.median,
                row.b.median,
                row.worse_by * 100.0,
                row.spread * 100.0,
                m.bound * 100.0,
                row.verdict.name()
            ));
        }
    }
    // Counts are exact: on one commit and one seed they must repeat bit for
    // bit. (The daemon's and the load generator's counts depend on timing.)
    let mut differing = Vec::new();
    for w in &workloads {
        for m in PER_LAYER.iter().filter(|m| m.unit == "count" && !m.name.starts_with("serve.")) {
            if let (Some(x), Some(y)) = (layer_value(a, w, m.name), layer_value(b, w, m.name)) {
                if x != y {
                    differing.push(format!("{w} / {}: {x} vs {y}", m.name));
                }
            }
        }
    }
    if differing.is_empty() {
        out.push_str("count-type layer metrics: identical\n");
    } else {
        out.push_str("count-type layer metrics that differ:\n");
        for d in differing {
            out.push_str(&format!("  {d}\n"));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_inputs() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: within bound.
        assert_eq!(judge(&a, &a, Better::Lower, 0.08).verdict, Verdict::WithinBound);
        // 20 % slower, tight spread: worse (lower is better).
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let row = judge(&a, &slow, Better::Lower, 0.08);
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.worse_by - 0.2).abs() < 1e-9);
        // The same numbers as a throughput: 20 % more is better.
        assert_eq!(judge(&a, &slow, Better::Higher, 0.08).verdict, Verdict::Better);
        // 20 % less throughput is worse by 1 - 1/1.2.
        let row = judge(&slow, &a, Better::Higher, 0.08);
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.worse_by - (1.0 - 1.0 / 1.2)).abs() < 1e-9);
        // 5 % slower is inside an 8 % bound.
        let bit: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(&a, &bit, Better::Lower, 0.08).verdict, Verdict::WithinBound);
        // 5 % faster with a 1 % spread is a resolved gain.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(judge(&a, &fast, Better::Lower, 0.08).verdict, Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        let row = judge(&noisy, &noisy, Better::Lower, 0.08);
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.spread > 0.08);
        // Even a large regression stays unresolved under that much noise…
        let slow: Vec<f64> = noisy.iter().map(|x| x * 1.1).collect();
        assert_eq!(judge(&noisy, &slow, Better::Lower, 0.08).verdict, Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let fast: Vec<f64> = noisy.iter().map(|x| x * 0.5).collect();
        assert_eq!(judge(&noisy, &fast, Better::Lower, 0.08).verdict, Verdict::Better);
    }

    fn set(tasks_per_s: &[f64], blocks: f64) -> Json {
        let e2e = Json::obj(END_TO_END.iter().map(|m| {
            let values =
                if m.def.name == "tasks_per_s" { tasks_per_s.to_vec() } else { vec![5.0, 5.0] };
            (
                m.def.name,
                Json::obj([("values", Json::Arr(values.into_iter().map(Json::Num).collect()))]),
            )
        }));
        let layers = Json::obj([("align.block.blocks", Json::obj([("value", Json::Num(blocks))]))]);
        Json::obj([(
            "workloads",
            Json::obj([("short-batch", Json::obj([("end_to_end", e2e), ("per_layer", layers)]))]),
        )])
    }

    #[test]
    fn tables_flag_worse_rows_and_differing_counts() {
        let base = set(&[1000.0, 1010.0, 990.0], 64.0);
        let (table, worse) = compare_sets(&base, &base).unwrap();
        assert!(!worse);
        assert!(table.contains("count-type layer metrics: identical"));
        assert_eq!(table.matches("within bound").count(), END_TO_END.len());

        let slower = set(&[700.0, 710.0, 690.0], 65.0);
        let (table, worse) = compare_sets(&base, &slower).unwrap();
        assert!(worse);
        assert!(
            table.lines().any(|l| l.contains("tasks_per_s") && l.ends_with("worse")),
            "{table}"
        );
        assert!(table.contains("align.block.blocks: 64 vs 65"));

        assert!(compare_sets(&Json::obj::<&str>([]), &base).is_err());
        let partial =
            Json::obj([("workloads", Json::obj([("short-batch", Json::obj::<&str>([]))]))]);
        assert!(compare_sets(&partial, &base).is_err());
    }
}
