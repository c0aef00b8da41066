//! Deterministic admission-window state machine.
//!
//! All the timing-sensitive serve decisions — when a batching window
//! closes, which queued requests have blown their deadline, when the
//! bounded queue rejects — live here as a plain data structure driven by
//! explicit clock ticks. The daemon wraps it in a mutex and feeds it real
//! time; the tests feed it a [`agatha_core::clock::MockClock`] and explore
//! every path without a single sleep.
//!
//! Semantics:
//!
//! * The queue is bounded by `max_queue`; an offer beyond the bound is
//!   rejected immediately ([`AdmissionWindow::offer`] returns the request
//!   back, the daemon answers 503).
//! * A window opens when a request arrives into an empty window and closes
//!   `window_ns` later — or immediately once `max_batch` requests are
//!   waiting (no reason to idle with a full batch).
//! * [`AdmissionWindow::collect_due`] first sweeps deadline-expired
//!   requests out (they are *answered* as dropped, before ever reaching
//!   the engine), then, if the window has closed, takes up to `max_batch`
//!   requests as the next batch. Remaining requests start a new window at
//!   the collection tick, so an over-full queue drains in back-to-back
//!   batches instead of waiting out another idle window.

use std::collections::VecDeque;

/// Static admission configuration, all ticks in clock nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct WindowCfg {
    /// Admission window length: how long the first request of a batch may
    /// wait for co-batched company.
    pub window_ns: u64,
    /// Largest batch handed to the engine at once.
    pub max_batch: usize,
    /// Bound on requests waiting for a batch; beyond it offers reject.
    pub max_queue: usize,
}

impl WindowCfg {
    /// Validate the knobs; zero windows/queues/batches are usage errors
    /// (a zero window would busy-spin, a zero queue could admit nothing).
    pub fn validate(&self) -> Result<(), String> {
        if self.window_ns == 0 {
            return Err("admission window must be at least 1ns (got 0)".to_string());
        }
        if self.max_batch == 0 {
            return Err("max batch must be at least 1 (got 0)".to_string());
        }
        if self.max_queue == 0 {
            return Err("max queue must be at least 1 (got 0)".to_string());
        }
        Ok(())
    }
}

/// One queued request: the alignment task plus everything needed to answer
/// its owner. `C` is the daemon's per-request context (reply channel,
/// cancel flag, client id); tests use plain integers.
#[derive(Debug)]
pub struct Pending<C> {
    pub task: agatha_align::Task,
    /// Absolute deadline tick, if any.
    pub deadline_ns: Option<u64>,
    /// Tick at which the request was admitted.
    pub enqueued_ns: u64,
    pub ctx: C,
}

/// What one [`AdmissionWindow::collect_due`] call produced.
#[derive(Debug, Default)]
pub struct Harvest<C> {
    /// Requests whose deadline passed while queued — to be answered as
    /// dropped without dispatch.
    pub expired: Vec<Pending<C>>,
    /// The next engine batch (empty when the window is still open).
    pub batch: Vec<Pending<C>>,
}

/// The admission queue plus its window timer. Purely deterministic: every
/// transition happens in `offer` / `collect_due` at an explicit tick.
#[derive(Debug)]
pub struct AdmissionWindow<C> {
    cfg: WindowCfg,
    queue: VecDeque<Pending<C>>,
    /// Tick at which the currently open window closes (`None` = no window
    /// open, i.e. the queue is empty).
    window_close: Option<u64>,
}

impl<C> AdmissionWindow<C> {
    pub fn new(cfg: WindowCfg) -> Result<AdmissionWindow<C>, String> {
        cfg.validate()?;
        Ok(AdmissionWindow { cfg, queue: VecDeque::new(), window_close: None })
    }

    pub fn cfg(&self) -> &WindowCfg {
        &self.cfg
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Offer a request at tick `now`. `Err` hands the request back — the
    /// queue is at `max_queue` and the caller must answer 503 immediately.
    pub fn offer(&mut self, p: Pending<C>, now: u64) -> Result<(), Pending<C>> {
        if self.queue.len() >= self.cfg.max_queue {
            return Err(p);
        }
        self.queue.push_back(p);
        match self.window_close {
            // First request of an empty queue opens a fresh window…
            None => self.window_close = Some(now.saturating_add(self.cfg.window_ns)),
            // …and a full batch closes it early.
            Some(close) if self.queue.len() >= self.cfg.max_batch && close > now => {
                self.window_close = Some(now);
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// Tick at which the open window closes (`None` when the queue is
    /// empty). The daemon sleeps until this tick or the next offer.
    pub fn next_due(&self) -> Option<u64> {
        self.window_close
    }

    /// Force the window closed: everything still queued becomes immediately
    /// collectable. The daemon calls it on the shutdown drain, and whenever
    /// its idle engine finds a request queued for every worker, whenever the
    /// window opened — the rule lives in the daemon, which knows the worker
    /// count; this state machine only knows `max_batch`.
    pub fn force_close(&mut self, now: u64) {
        if !self.queue.is_empty() {
            self.window_close = Some(now);
        }
    }

    /// Sweep deadline-expired requests, then collect the next batch if the
    /// window has closed. Leftover requests (beyond `max_batch`) re-open a
    /// window at `now`, making them due immediately on the next call.
    pub fn collect_due(&mut self, now: u64) -> Harvest<C> {
        let mut harvest = Harvest { expired: Vec::new(), batch: Vec::new() };
        // Deadline sweep: a request expiring in the queue is dropped even
        // if the window is still open — it could never be answered in time.
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].deadline_ns.is_some_and(|d| now >= d) {
                harvest.expired.push(self.queue.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        if self.queue.is_empty() {
            self.window_close = None;
            return harvest;
        }
        let close = self.window_close.expect("non-empty queue always has an open window");
        if now >= close || self.queue.len() >= self.cfg.max_batch {
            let take = self.queue.len().min(self.cfg.max_batch);
            harvest.batch.extend(self.queue.drain(..take));
            self.window_close = if self.queue.is_empty() { None } else { Some(now) };
        }
        harvest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agatha_align::Task;

    fn cfg() -> WindowCfg {
        WindowCfg { window_ns: 1_000, max_batch: 4, max_queue: 6 }
    }

    fn pending(id: u32, deadline_ns: Option<u64>, now: u64) -> Pending<u32> {
        Pending {
            task: Task::from_strs(id, "ACGT", "ACGT"),
            deadline_ns,
            enqueued_ns: now,
            ctx: id,
        }
    }

    #[test]
    fn zero_knobs_are_usage_errors() {
        assert!(WindowCfg { window_ns: 0, max_batch: 1, max_queue: 1 }.validate().is_err());
        assert!(WindowCfg { window_ns: 1, max_batch: 0, max_queue: 1 }.validate().is_err());
        assert!(WindowCfg { window_ns: 1, max_batch: 1, max_queue: 0 }.validate().is_err());
        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn window_opens_on_first_arrival_and_closes_on_time() {
        let mut w: AdmissionWindow<u32> = AdmissionWindow::new(cfg()).unwrap();
        assert!(w.next_due().is_none());
        w.offer(pending(0, None, 100), 100).unwrap();
        assert_eq!(w.next_due(), Some(1_100));
        // Still open: nothing to collect.
        let h = w.collect_due(1_099);
        assert!(h.batch.is_empty() && h.expired.is_empty());
        // Closed: the batch comes out, the queue empties, the window resets.
        let h = w.collect_due(1_100);
        assert_eq!(h.batch.len(), 1);
        assert!(w.next_due().is_none());
    }

    #[test]
    fn full_batch_closes_the_window_early() {
        let mut w: AdmissionWindow<u32> = AdmissionWindow::new(cfg()).unwrap();
        for id in 0..4 {
            w.offer(pending(id, None, 10), 10).unwrap();
        }
        // max_batch reached: due now, not at 10+1000.
        assert_eq!(w.next_due(), Some(10));
        let h = w.collect_due(10);
        assert_eq!(h.batch.len(), 4);
    }

    #[test]
    fn bounded_queue_rejects_beyond_max_queue() {
        let mut w: AdmissionWindow<u32> = AdmissionWindow::new(cfg()).unwrap();
        for id in 0..6 {
            w.offer(pending(id, None, 0), 0).unwrap();
        }
        let rejected = w.offer(pending(99, None, 0), 0).unwrap_err();
        assert_eq!(rejected.ctx, 99);
        assert_eq!(w.len(), 6);
    }

    #[test]
    fn expired_requests_are_swept_even_mid_window() {
        let mut w: AdmissionWindow<u32> = AdmissionWindow::new(cfg()).unwrap();
        w.offer(pending(0, Some(500), 0), 0).unwrap();
        w.offer(pending(1, None, 0), 0).unwrap();
        let h = w.collect_due(600); // window (0..1000) still open
        assert_eq!(h.expired.len(), 1);
        assert_eq!(h.expired[0].ctx, 0);
        assert!(h.batch.is_empty());
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn oversized_queue_drains_in_back_to_back_batches() {
        let mut w: AdmissionWindow<u32> =
            AdmissionWindow::new(WindowCfg { window_ns: 1_000, max_batch: 2, max_queue: 10 })
                .unwrap();
        for id in 0..5 {
            w.offer(pending(id, None, 0), 0).unwrap();
        }
        let h1 = w.collect_due(0);
        assert_eq!(h1.batch.iter().map(|p| p.ctx).collect::<Vec<_>>(), vec![0, 1]);
        // Leftovers re-opened a window at tick 0 → due immediately.
        let h2 = w.collect_due(0);
        assert_eq!(h2.batch.iter().map(|p| p.ctx).collect::<Vec<_>>(), vec![2, 3]);
        let h3 = w.collect_due(0);
        assert_eq!(h3.batch.iter().map(|p| p.ctx).collect::<Vec<_>>(), vec![4]);
        assert!(w.is_empty());
    }

    #[test]
    fn force_close_drains_on_shutdown() {
        let mut w: AdmissionWindow<u32> = AdmissionWindow::new(cfg()).unwrap();
        w.offer(pending(0, None, 0), 0).unwrap();
        w.force_close(1);
        let h = w.collect_due(1);
        assert_eq!(h.batch.len(), 1);
    }
}
