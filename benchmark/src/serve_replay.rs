//! The traced staged replay of the request path: the public functions the
//! daemon calls for one admission window of requests, in the daemon's
//! order, on one thread and a mock clock, each stage wrapped in a span.
//! Spans of one window share its batch number as their unit.

use std::sync::Arc;

use agatha_align::{Scoring, Task};
use agatha_core::clock::{Clock, MockClock};
use agatha_core::{run_task_ws, AgathaConfig, KernelWorkspace};
use agatha_serve::protocol::{ok_response, parse_request, Request};
use agatha_serve::{AdmissionWindow, Pending, WindowCfg};

use crate::serve_load::Corpus;
use crate::spans::Tracer;
use crate::workloads::ServeWorkload;

pub struct ServeStaged {
    pub tracer: Tracer,
    /// Score per request, in id order.
    pub scores: Vec<i32>,
    pub requests: u64,
    pub batches: u64,
    /// Tasks as the daemon packed them (for the kernel-layer probes).
    pub tasks: Vec<Task>,
}

/// Replay `requests` requests in windows of `batch`.
pub fn staged_requests(
    corpus: &Corpus,
    w: &ServeWorkload,
    scoring: &Scoring,
    requests: u64,
    batch: usize,
) -> Result<ServeStaged, String> {
    let lines: Vec<String> = (0..requests).map(|id| corpus.request_line(id)).collect();
    let cfg = AgathaConfig::agatha();
    let clock = Arc::new(MockClock::new());
    let window_ns = w.window_ms * 1_000_000;
    let mut window: AdmissionWindow<i64> = AdmissionWindow::new(WindowCfg {
        window_ns,
        max_batch: 1024,
        max_queue: w.admission.max_queue,
    })?;
    let mut ws = KernelWorkspace::new();
    let mut tracer = Tracer::new();
    let mut scores = Vec::with_capacity(lines.len());
    let mut all_tasks = Vec::with_capacity(lines.len());
    let mut batches = 0u64;

    tracer.span("serve", None, |tr| -> Result<(), String> {
        for group in lines.chunks(batch.max(1)) {
            let unit = Some(batches);
            batches += 1;
            let parsed = tr.span("serve.protocol.parse", unit, |_| {
                group
                    .iter()
                    .map(|line| match parse_request(line)? {
                        Request::Align(a) => Ok(a),
                        other => Err(format!("corpus line parsed as {other:?}")),
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?;
            let tasks = tr.span("align.pack", unit, |_| {
                parsed
                    .iter()
                    .map(|a| {
                        let t = Task::from_strs_model(
                            a.id as u32,
                            &a.reference,
                            &a.query,
                            &scoring.model,
                        );
                        t.admit().map(|()| t)
                    })
                    .collect::<Result<Vec<Task>, String>>()
            })?;
            let due = tr.span("serve.window", unit, |_| -> Result<Vec<Pending<i64>>, String> {
                for (a, task) in parsed.iter().zip(&tasks) {
                    let now = clock.now_ns();
                    let pending = Pending {
                        task: task.clone(),
                        deadline_ns: Some(now + w.admission.deadline_ms * 1_000_000),
                        enqueued_ns: now,
                        ctx: a.id,
                    };
                    window
                        .offer(pending, now)
                        .map_err(|p| format!("request {} rejected", p.ctx))?;
                }
                clock.advance_ns(window_ns);
                Ok(window.collect_due(clock.now_ns()).batch)
            })?;
            if due.len() != group.len() {
                return Err(format!("window released {} of {} requests", due.len(), group.len()));
            }
            let runs = tr.span("core.kernel", unit, |_| {
                due.iter().map(|p| run_task_ws(&mut ws, &p.task, scoring, &cfg)).collect::<Vec<_>>()
            });
            tr.span("serve.protocol.format", unit, |_| {
                for (p, run) in due.iter().zip(&runs) {
                    std::hint::black_box(ok_response(p.ctx, run.result.score, 0, 0, 0));
                }
            });
            scores.extend(runs.iter().map(|r| r.result.score));
            all_tasks.extend(tasks);
        }
        Ok(())
    })?;
    Ok(ServeStaged { tracer, scores, requests, batches, tasks: all_tasks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{scenario_scoring, SERVE_OPEN};

    #[test]
    fn replayed_requests_score_like_the_oracle() {
        let w = SERVE_OPEN;
        let corpus = Corpus::generate(&w, 8, 10);
        let scoring = scenario_scoring(w.scenario);
        // 25 requests cycle the 10-pair corpus; windows of 8 leave a short one.
        let staged = staged_requests(&corpus, &w, &scoring, 25, 8).unwrap();
        assert_eq!(staged.batches, 4);
        assert_eq!(staged.tasks.len(), 25);
        let want: Vec<i32> = (0..25).map(|id| corpus.expected_score(id)).collect();
        assert_eq!(staged.scores, want);
        let times = staged.tracer.layer_times();
        for layer in [
            "serve.protocol.parse",
            "align.pack",
            "serve.window",
            "core.kernel",
            "serve.protocol.format",
        ] {
            assert_eq!(times[layer].spans, 4, "{layer}");
        }
        assert!(staged
            .tracer
            .spans()
            .iter()
            .skip(1)
            .all(|s| s.parent.is_some() && s.unit.is_some()));
    }
}
