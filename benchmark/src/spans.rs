//! Spans recorded by the benchmark's own code around its calls into each
//! layer. They stay in memory and are written out when the run ends; spans
//! inside the program are a later change.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes the span that caused it; `unit` is
/// the chunk (batch) or request (serve) the work belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: Option<u64>,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerTime {
    pub spans: u64,
    /// Span durations minus the part their child spans cover.
    pub self_ns: u64,
}

/// An in-memory span recorder for one thread of control. Nesting follows
/// the call stack: a span entered while another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Time `f` as a span named `name`, child of whatever span is open.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        unit: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Add a finished span with explicit times (how the tests build their
    /// fixtures).
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name: each span's duration minus the union of its
    /// children's intervals, clipped to the span.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if lo < hi {
                    children[p].push((lo, hi));
                }
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            let layer = out.entry(s.name).or_default();
            layer.spans += 1;
            layer.self_ns += (s.end_ns - s.start_ns) - covered;
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("unit", s.unit.map_or(Json::Null, |u| Json::Num(u as f64))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, unit: None }
    }

    #[test]
    fn self_time_subtracts_children_on_a_nested_fixture() {
        let mut t = Tracer::new();
        let root = t.record(span("root", 0, 100, None));
        let a = t.record(span("a", 10, 40, Some(root)));
        t.record(span("b", 15, 25, Some(a)));
        t.record(span("a", 50, 70, Some(root)));
        let times = t.layer_times();
        assert_eq!(times["root"], LayerTime { spans: 1, self_ns: 50 });
        assert_eq!(times["a"], LayerTime { spans: 2, self_ns: 40 });
        assert_eq!(times["b"], LayerTime { spans: 1, self_ns: 10 });
        let total: u64 = times.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = Tracer::new();
        let root = t.record(span("root", 100, 200, None));
        // Two children overlap on [130, 150]; a third overhangs the end.
        t.record(span("x", 110, 150, Some(root)));
        t.record(span("x", 130, 170, Some(root)));
        t.record(span("y", 190, 250, Some(root)));
        let times = t.layer_times();
        // Covered: [110,170] ∪ [190,200] = 70 of 100.
        assert_eq!(times["root"].self_ns, 30);
    }

    #[test]
    fn live_spans_nest_by_call_stack() {
        let mut t = Tracer::new();
        let got = t.span("outer", Some(3), |t| t.span("inner", None, |_| 7));
        assert_eq!(got, 7);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].unit), ("outer", None, Some(3)));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let doc = Json::parse(&t.to_json().render()).unwrap();
        assert_eq!(doc.as_arr().unwrap().len(), 2);
    }
}
