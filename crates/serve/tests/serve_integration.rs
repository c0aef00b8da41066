//! In-process integration tests of the serve daemon: saturation and
//! backpressure, deadline drops, disconnect cancellation, and
//! results-match-`align_batch` bit-identity.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use agatha_align::{Scoring, Task};
use agatha_core::{AgathaConfig, Pipeline};
use agatha_serve::{
    serve, serve_with_clock, MockClock, ServeClient, ServeConfig, ServeHandle, Status,
};

/// Deterministic sequence-pair corpus (same generator family as the engine
/// tests: LCG bases with periodic mismatches).
fn pairs(count: usize, len_base: usize, seed: u64) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut x = seed | 1;
    for _ in 0..count {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let len = len_base + (x >> 33) as usize % len_base;
        let mut r = String::new();
        let mut q = String::new();
        for k in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
            r.push(c);
            q.push(if k % 17 == 0 { 'G' } else { c });
        }
        out.push((r, q));
    }
    out
}

fn scoring() -> Scoring {
    Scoring::new(2, 4, 4, 2, 60, 16)
}

/// Reference scores from the offline batch path, indexed like `pairs`.
fn reference_scores(pairs: &[(String, String)]) -> Vec<i32> {
    let tasks: Vec<Task> =
        pairs.iter().enumerate().map(|(i, (r, q))| Task::from_strs(i as u32, r, q)).collect();
    let rep = Pipeline::new(scoring(), AgathaConfig::agatha()).align_batch(&tasks);
    rep.results.iter().map(|r| r.score).collect()
}

fn start(mutate: impl FnOnce(&mut ServeConfig)) -> ServeHandle {
    let mut cfg = ServeConfig::new(scoring());
    cfg.threads = 2;
    cfg.window_ns = 2_000_000; // 2ms
    mutate(&mut cfg);
    serve(cfg).expect("daemon starts")
}

#[test]
fn round_trip_scores_match_align_batch() {
    let corpus = pairs(20, 120, 77);
    let want = reference_scores(&corpus);
    let handle = start(|_| {});
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    assert_eq!(client.ping().unwrap().status, Status::Ok);
    // Pipelined: all requests first, then all responses.
    for (i, (r, q)) in corpus.iter().enumerate() {
        client.send_align(i as i64, r, q, None).unwrap();
    }
    let mut got = vec![None; corpus.len()];
    for _ in 0..corpus.len() {
        let resp = client.recv().unwrap();
        assert_eq!(resp.status, Status::Ok, "raw: {}", resp.raw);
        let id = resp.id.unwrap() as usize;
        assert!(got[id].is_none(), "double answer for id {id}");
        got[id] = Some(resp.score.unwrap());
    }
    for (i, s) in got.into_iter().enumerate() {
        assert_eq!(s, Some(want[i]), "request {i} must be bit-identical to align_batch");
    }
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"completed\":20"), "stats: {stats}");
    let snap = handle.shutdown();
    assert_eq!(snap.completed, 20);
    assert_eq!(snap.total.count(), 20);
}

#[test]
fn saturation_rejects_immediately_and_accepted_stay_bit_identical() {
    // A long admission window plays the role of slow service: with
    // max_batch (8) and the worker count (4) both above max_queue (3),
    // neither early-close path can fire — an idle engine dispatches once
    // its queue holds a request per worker, and 3 never do — so everything
    // offered during the 500ms window beyond 3 queued requests must be
    // rejected *immediately* — not after the batch runs.
    let corpus = pairs(30, 250, 13);
    let want = reference_scores(&corpus);
    let handle = start(|cfg| {
        cfg.threads = 4;
        cfg.window_ns = 500_000_000;
        cfg.max_batch = 8;
        cfg.max_queue = 3;
    });
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    let t0 = Instant::now();
    for (i, (r, q)) in corpus.iter().enumerate() {
        client.send_align(i as i64, r, q, None).unwrap();
    }
    let mut oks = Vec::new();
    let mut rejected = Vec::new();
    let mut last_reject_at = Duration::ZERO;
    let mut first_ok_at = Duration::MAX;
    for _ in 0..corpus.len() {
        let resp = client.recv().unwrap();
        let at = t0.elapsed();
        match resp.status {
            Status::Ok => {
                first_ok_at = first_ok_at.min(at);
                oks.push((resp.id.unwrap() as usize, resp.score.unwrap()));
            }
            Status::Rejected => {
                last_reject_at = last_reject_at.max(at);
                rejected.push(resp.id.unwrap() as usize);
            }
            other => panic!("unexpected status {other:?}: {}", resp.raw),
        }
    }
    assert!(!rejected.is_empty(), "queue bound must reject under saturation");
    assert!(oks.len() >= 3, "the bounded queue still serves max_queue requests");
    assert_eq!(oks.len() + rejected.len(), corpus.len(), "every request answered exactly once");
    // The backpressure contract: rejections are synchronous at admission,
    // completions can only arrive after the window closes — so every
    // rejection must land before the first completion.
    assert!(
        last_reject_at < first_ok_at,
        "rejections must not wait for the batch: last reject {last_reject_at:?}, \
         first ok {first_ok_at:?}"
    );
    // Accepted requests are bit-identical to the offline batch path.
    for (id, score) in &oks {
        assert_eq!(*score, want[*id], "request {id}");
    }
    // Histogram / counter reconciliation with client-observed outcomes.
    let snap = handle.shutdown();
    assert_eq!(snap.completed, oks.len() as u64);
    assert_eq!(snap.rejected, rejected.len() as u64);
    assert_eq!(snap.dropped_deadline, 0);
    assert_eq!(snap.answered(), corpus.len() as u64);
    assert_eq!(snap.total.count(), oks.len() as u64);
    // Everyone who completed waited out most of the 500ms window on a
    // queue: that is starvation by the 8×2ms default threshold... except
    // the threshold here is 8×500ms. Starvation accounting is exercised
    // in `deadline_drops_report_and_never_dispatch` instead.
}

#[test]
fn deadline_drops_report_and_never_dispatch() {
    let corpus = pairs(5, 100, 3);
    // Six workers, more than the five requests: an idle engine dispatches
    // once it holds a request per worker, so with fewer workers the
    // requests would be served at once instead of waiting on the window.
    let handle = start(|cfg| {
        cfg.threads = 6;
        cfg.window_ns = 400_000_000; // 0.4s window...
        cfg.starvation_ns = 10_000_000; // ...and a 10ms starvation line
    });
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    for (i, (r, q)) in corpus.iter().enumerate() {
        // ...but a 30ms deadline: every request expires while queued.
        client.send_align(i as i64, r, q, Some(30)).unwrap();
    }
    let mut drop_waits = Vec::new();
    for _ in 0..corpus.len() {
        let resp = client.recv().unwrap();
        assert_eq!(resp.status, Status::Dropped, "raw: {}", resp.raw);
        drop_waits.push(resp.queue_us.unwrap());
    }
    // The deadline sweep runs on the batcher's poll cadence (~25ms), so a
    // 30ms deadline is honoured long before the 400ms window closes.
    for us in drop_waits {
        assert!(us >= 30_000, "dropped before its own deadline: {us}µs");
        assert!(us < 300_000, "drop happened at window close, not deadline: {us}µs");
    }
    let snap = handle.shutdown();
    assert_eq!(snap.dropped_deadline, 5);
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.service.count(), 0, "dropped requests must never reach kernel dispatch");
    assert_eq!(snap.starved, 5, "30ms queue waits cross the 10ms starvation line");
}

#[test]
fn client_disconnect_cancels_pending_work() {
    let corpus = pairs(3, 100, 29);
    // Four workers, more than the three requests, so the idle engine keeps
    // them on the window (it dispatches once it holds one per worker).
    let handle = start(|cfg| {
        cfg.threads = 4;
        cfg.window_ns = 300_000_000;
    });
    {
        let mut client = ServeClient::connect(handle.addr()).unwrap();
        for (i, (r, q)) in corpus.iter().enumerate() {
            client.send_align(i as i64, r, q, None).unwrap();
        }
        // Drop the connection with all three requests still queued.
    }
    let metrics = handle.metrics();
    let t0 = Instant::now();
    while metrics.snapshot().cancelled < 3 {
        assert!(t0.elapsed() < Duration::from_secs(10), "cancellations never surfaced");
        std::thread::sleep(Duration::from_millis(10));
    }
    let snap = handle.shutdown();
    assert_eq!(snap.cancelled, 3);
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.service.count(), 0, "cancelled requests must never reach kernel dispatch");
}

/// A raw connection to a daemon whose reads give up after `timeout`, so a
/// reply that never comes fails the test instead of hanging it.
fn timed_connection(handle: &ServeHandle, timeout: Duration) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(timeout)).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn send(stream: &mut TcpStream, id: i64, (r, q): &(String, String)) {
    let line = agatha_serve::protocol::align_request_line(id, r, q, None);
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
}

/// The next reply, or `None` once the read timeout passes without one.
fn reply_within(reader: &mut BufReader<TcpStream>) -> Option<agatha_serve::Response> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => Some(agatha_serve::parse_response(line.trim_end()).unwrap()),
        Ok(_) => panic!("the daemon closed the connection"),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
        Err(e) => panic!("recv: {e}"),
    }
}

fn start_on(clock: &Arc<MockClock>, threads: usize) -> ServeHandle {
    let mut cfg = ServeConfig::new(scoring());
    cfg.threads = threads;
    cfg.window_ns = 10_000_000_000; // 10s
    serve_with_clock(cfg, Arc::clone(clock) as _).expect("daemon starts")
}

#[test]
fn an_idle_single_worker_dispatches_without_waiting_out_the_window() {
    // The clock never moves, so the 10 s window never closes on time: the
    // request is answered only because an idle engine with one worker has
    // nothing to wait for.
    let corpus = pairs(1, 120, 5);
    let want = reference_scores(&corpus);
    let clock = Arc::new(MockClock::new());
    let handle = start_on(&clock, 1);
    let (mut stream, mut reader) = timed_connection(&handle, Duration::from_secs(5));
    send(&mut stream, 0, &corpus[0]);
    let resp = reply_within(&mut reader).expect("a lone request waited on the window");
    assert_eq!(resp.status, Status::Ok, "raw: {}", resp.raw);
    assert_eq!(resp.score, Some(want[0]));
    let snap = handle.shutdown();
    assert_eq!((snap.completed, snap.batches), (1, 1));
}

#[test]
fn an_idle_engine_waits_for_a_request_per_worker_or_the_window() {
    let corpus = pairs(2, 120, 9);
    let want = reference_scores(&corpus);
    let clock = Arc::new(MockClock::new());
    let handle = start_on(&clock, 2);
    let (mut stream, mut reader) = timed_connection(&handle, Duration::from_millis(200));
    // One request for two idle workers: held while the clock sits inside
    // the window.
    send(&mut stream, 0, &corpus[0]);
    if let Some(resp) = reply_within(&mut reader) {
        panic!("a lone request on two workers was answered inside the window: {}", resp.raw);
    }
    // A second request gives each worker one: both go out in one batch.
    send(&mut stream, 1, &corpus[1]);
    reader.get_ref().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut scores = [None; 2];
    for _ in 0..2 {
        let resp = reply_within(&mut reader).expect("two requests on two workers wait no longer");
        assert_eq!(resp.status, Status::Ok, "raw: {}", resp.raw);
        scores[resp.id.unwrap() as usize] = resp.score;
    }
    assert_eq!(scores, [Some(want[0]), Some(want[1])]);
    let snap = handle.shutdown();
    assert_eq!((snap.completed, snap.batches), (2, 1));

    // The window still bounds the wait: once the clock passes it, a lone
    // request is dispatched.
    let clock = Arc::new(MockClock::new());
    let handle = start_on(&clock, 2);
    let (mut stream, mut reader) = timed_connection(&handle, Duration::from_millis(200));
    send(&mut stream, 0, &corpus[0]);
    assert!(reply_within(&mut reader).is_none(), "answered before the window closed");
    clock.advance_ms(10_000);
    reader.get_ref().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let resp = reply_within(&mut reader).expect("the closed window released the request");
    assert_eq!(resp.score, Some(want[0]), "raw: {}", resp.raw);
    let snap = handle.shutdown();
    assert_eq!((snap.completed, snap.batches), (1, 1));
}

#[test]
fn requests_that_arrive_during_a_batch_run_when_it_ends() {
    // One worker and a clock that never moves. A long unbanded pair reaches
    // the idle engine and is dispatched at once; a short request sent while
    // it runs opens a 10 s window on the busy engine, yet runs as soon as
    // the long batch returns: the idle engine takes what is queued,
    // whenever its window opened.
    let unbanded = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
    let mut cfg = ServeConfig::new(unbanded);
    cfg.threads = 1;
    cfg.window_ns = 10_000_000_000;
    let clock = Arc::new(MockClock::new());
    let handle = serve_with_clock(cfg, Arc::clone(&clock) as _).expect("daemon starts");
    let (mut stream, mut reader) = timed_connection(&handle, Duration::from_secs(60));
    // The long pair must hold the engine well past the short request's
    // send: size it from a 3 kb pair's wall time (unbanded, its cost grows
    // roughly with the square of the length).
    let (long_seq, _) = pairs(1, 32_000, 5).pop().unwrap();
    let calibration = (long_seq[..3_000].to_string(), long_seq[..3_000].to_string());
    let timing = Instant::now();
    send(&mut stream, 0, &calibration);
    reply_within(&mut reader).expect("the calibration pair is answered");
    let took = timing.elapsed().as_secs_f64().max(1e-4);
    let len = ((3_000.0 * (0.5 / took).sqrt()) as usize).clamp(3_000, long_seq.len());
    let long = (long_seq[..len].to_string(), long_seq[..len].to_string());
    let short = pairs(1, 40, 7).pop().unwrap();

    let running = Instant::now();
    send(&mut stream, 1, &long);
    std::thread::sleep(Duration::from_millis(50));
    send(&mut stream, 2, &short);
    let resp = reply_within(&mut reader).expect("the long pair is answered");
    assert_eq!((resp.id, resp.status), (Some(1), Status::Ok), "raw: {}", resp.raw);
    let held = running.elapsed();
    assert!(held >= Duration::from_millis(100), "a {len} bp pair held the engine only {held:?}");
    reader.get_ref().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let resp = reply_within(&mut reader)
        .expect("a request queued behind a running batch waited out its window");
    assert_eq!((resp.id, resp.status), (Some(2), Status::Ok), "raw: {}", resp.raw);
    let snap = handle.shutdown();
    assert_eq!((snap.completed, snap.batches), (3, 3));
}

#[test]
fn concurrent_clients_are_answered_exactly_once() {
    let corpus = Arc::new(pairs(25, 90, 41));
    let want = Arc::new(reference_scores(&corpus));
    let handle = start(|cfg| {
        cfg.threads = 2;
        cfg.window_ns = 1_000_000;
        cfg.max_queue = 64;
    });
    let addr = handle.addr();
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let corpus = Arc::clone(&corpus);
            let want = Arc::clone(&want);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for (i, (r, q)) in corpus.iter().enumerate() {
                    // Half the requests carry a generous deadline; under
                    // load they may drop, never disappear.
                    let deadline = if i % 2 == 0 { Some(2_000) } else { None };
                    client.send_align((c * 1000 + i) as i64, r, q, deadline).unwrap();
                }
                let mut seen = std::collections::HashSet::new();
                for _ in 0..corpus.len() {
                    let resp = client.recv().unwrap();
                    let id = resp.id.unwrap();
                    assert!(seen.insert(id), "double answer for {id}");
                    match resp.status {
                        Status::Ok => {
                            let i = (id % 1000) as usize;
                            assert_eq!(resp.score.unwrap(), want[i], "request {id}");
                        }
                        Status::Dropped | Status::Rejected => {}
                        other => panic!("unexpected {other:?}: {}", resp.raw),
                    }
                }
                seen.len()
            })
        })
        .collect();
    let answered: usize = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(answered, 4 * corpus.len());
    let snap = handle.shutdown();
    assert_eq!(snap.answered(), answered as u64, "server accounting matches client outcomes");
    assert!(snap.batches > 0);
}

#[test]
fn shutdown_command_drains_and_acknowledges() {
    let corpus = pairs(4, 80, 53);
    let handle = start(|cfg| cfg.window_ns = 50_000_000);
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    for (i, (r, q)) in corpus.iter().enumerate() {
        client.send_align(i as i64, r, q, None).unwrap();
    }
    // A ping round trip proves the reader admitted all four align lines
    // (it processes a connection's lines in order), so the shutdown below
    // can't race ahead of the admissions.
    client.ping().unwrap();
    let mut shutdown_client = ServeClient::connect(handle.addr()).unwrap();
    let ack = shutdown_client.shutdown_server().unwrap();
    assert!(ack.raw.contains("shutting-down"), "raw: {}", ack.raw);
    // The queued requests are still answered during the drain.
    let mut ok = 0;
    for _ in 0..corpus.len() {
        if client.recv().unwrap().status == Status::Ok {
            ok += 1;
        }
    }
    assert_eq!(ok, corpus.len());
    let snap = handle.join();
    assert_eq!(snap.completed, corpus.len() as u64);
}

#[test]
fn max_queue_bounds_what_waits_behind_a_running_batch() {
    // One long unbanded pair occupies the engine; short requests keep
    // arriving behind it, one window apart. The window's one consumer is
    // the batcher that runs the engine, so at most `max_queue` of them wait
    // — nothing is harvested ahead of the engine into a second queue.
    let unbanded = Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
    let mut cfg = ServeConfig::new(unbanded);
    cfg.threads = 1;
    cfg.window_ns = 1_000_000;
    cfg.max_batch = 1;
    cfg.max_queue = 2;
    let handle = serve(cfg.clone()).expect("daemon starts");
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    let short = pairs(11, 40, 7);
    let gap = Duration::from_millis(15);
    // The long pair should outlast the send phase four times over. A debug
    // build takes far longer than that at 3 kb; a faster build gets a longer
    // pair (unbanded, its cost grows roughly with the square of the length;
    // the run below checks that the pair did hold the engine).
    let (long_seq, _) = pairs(1, 32_000, 5).pop().unwrap();
    let calibration = client.align(0, &long_seq[..3_000], &long_seq[..3_000], None).unwrap();
    let took = calibration.service_us.expect("an ok reply carries its service time").max(1);
    let want = 4 * gap.as_micros() as u64 * short.len() as u64;
    let mut len = (3_000.0 * (want as f64 / took as f64).sqrt().max(1.0)) as usize;
    loop {
        let long = &long_seq[..len.min(long_seq.len())];
        client.send_align(0, long, long, None).unwrap();
        let sending = Instant::now();
        for (i, (r, q)) in short.iter().enumerate() {
            std::thread::sleep(gap);
            client.send_align(i as i64 + 1, &r[..40], &q[..40], None).unwrap();
        }
        let send_phase = sending.elapsed();
        let (mut ok, mut rejected, mut long_total_us) = (0, 0, 0);
        for _ in 0..=short.len() {
            let resp = client.recv().unwrap();
            match resp.status {
                Status::Ok => ok += 1,
                Status::Rejected => rejected += 1,
                other => panic!("unexpected {other:?}: {}", resp.raw),
            }
            if resp.id == Some(0) {
                long_total_us = resp.total_us.expect("an ok reply carries its total time");
            }
        }
        assert_eq!(ok + rejected, 1 + short.len(), "every request answered exactly once");
        // The bound binds only while the long batch holds the engine. If it
        // returned before the last short request was sent (plus a gap for it
        // to be read), the window could drain and admit more: run again with
        // a longer pair rather than judge the bound on that run.
        let held_us = (send_phase + gap).as_micros() as u64;
        if long_total_us <= held_us {
            assert!(
                long.len() < long_seq.len(),
                "a {} bp pair returned after {long_total_us} µs, before the {held_us} µs \
                 send phase ended; the probe cannot hold the engine on this host",
                long.len()
            );
            len = 2 * long.len();
            continue;
        }
        assert!(
            ok <= cfg.max_queue + cfg.max_batch,
            "{ok} requests admitted: more than max_queue ({}) waited behind the running batch \
             ({} bp pair held the engine {long_total_us} µs; 3 kb took {took} µs)",
            cfg.max_queue,
            long.len()
        );
        break;
    }
    handle.shutdown();
}

#[test]
fn hostile_deadlines_and_windows_neither_panic_nor_wrap() {
    // Any positive `deadline_ms` parses: i64::MAX ms used to overflow the
    // nanosecond arithmetic (a panic on the connection's reader, the client
    // left without a reply), and 18446744073710 ms wrapped to well under a
    // millisecond (the request came back dropped). A `u64::MAX` ns window
    // overflowed its close tick and the default starvation line the same
    // way; a one-request batch closes it at once.
    let handle = start(|cfg| {
        cfg.window_ns = u64::MAX;
        cfg.max_batch = 1;
    });
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    let (r, q) = pairs(1, 60, 11).pop().unwrap();
    for (id, deadline_ms) in [(1, i64::MAX as u64), (2, 18_446_744_073_710)] {
        let resp = client.align(id, &r, &q, Some(deadline_ms)).unwrap();
        assert_eq!(resp.status, Status::Ok, "deadline_ms {deadline_ms}: {}", resp.raw);
    }
    handle.shutdown();
}

#[test]
fn zero_window_and_zero_queue_are_usage_errors() {
    let err = |cfg: ServeConfig| serve(cfg).err().expect("config must be rejected");
    let mut cfg = ServeConfig::new(scoring());
    cfg.window_ns = 0;
    assert!(err(cfg).contains("window"));
    let mut cfg = ServeConfig::new(scoring());
    cfg.max_queue = 0;
    assert!(err(cfg).contains("queue"));
    let mut cfg = ServeConfig::new(scoring());
    cfg.max_batch = 0;
    assert!(err(cfg).contains("batch"));
}

#[test]
fn request_lines_are_bounded_and_may_span_reads() {
    use agatha_serve::daemon::MAX_REQUEST_LINE;
    use std::net::Shutdown;

    let handle = start(|_| {});

    // A client that never sends a line end: one error reply once the line
    // outgrows the cap, then the connection is closed — promptly, and
    // whether or not the client is still writing.
    let t0 = Instant::now();
    let hostile = TcpStream::connect(handle.addr()).unwrap();
    let mut replies = BufReader::new(hostile.try_clone().unwrap());
    let flood = std::thread::spawn(move || {
        let mut hostile = hostile;
        let block = vec![b'A'; 1 << 20];
        for _ in 0..(MAX_REQUEST_LINE >> 20) + 1 {
            if hostile.write_all(&block).is_err() {
                break; // the daemon hung up mid-flood
            }
        }
        let _ = hostile.shutdown(Shutdown::Write);
    });
    let mut line = String::new();
    replies.read_line(&mut line).expect("the error reply arrives before the close");
    let reply = agatha_serve::parse_response(line.trim_end()).unwrap();
    assert_eq!(reply.status, Status::Error, "raw: {line}");
    assert!(
        line.contains(&format!("request line exceeds {MAX_REQUEST_LINE} bytes")),
        "raw: {line}"
    );
    // Nothing follows it: end of stream (a reset, if the daemon closed with
    // part of the flood still unread, is the same event).
    line.clear();
    assert!(matches!(replies.read_line(&mut line), Ok(0) | Err(_)), "second reply: {line}");
    flood.join().unwrap();
    assert!(t0.elapsed() < Duration::from_secs(20), "cap took {:?}", t0.elapsed());

    // Other connections never noticed.
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    assert_eq!(client.ping().unwrap().status, Status::Ok);

    // A legitimate long line — a 16–32 kb pair, arriving over many 8 KiB
    // reads — is reassembled intact: it scores exactly `guided_align`.
    let (r, q) = pairs(1, 16_000, 99).pop().unwrap();
    assert!(r.len() + q.len() >= 4 * 8192);
    let want = agatha_align::guided::guided_align(
        &agatha_align::PackedSeq::from_str_seq(&r),
        &agatha_align::PackedSeq::from_str_seq(&q),
        &scoring(),
    );
    let resp = client.align(7, &r, &q, None).unwrap();
    assert_eq!(resp.status, Status::Ok, "raw: {}", resp.raw);
    assert_eq!(resp.score, Some(want.score));
    handle.shutdown();
}

#[test]
fn a_client_that_never_reads_is_disconnected() {
    use agatha_serve::daemon::REPLY_WRITE_TIMEOUT;

    let handle = start(|_| {});
    // Stats requests, 32 a millisecond, and not one reply read: once the
    // socket buffers hold what they can, a reply write blocks, times out and
    // the daemon hangs up. A write that blocks with part of a line sent may
    // wait a second timeout; the rest is slack for filling the buffers.
    let limit = REPLY_WRITE_TIMEOUT * 2 + Duration::from_secs(5);
    let mut hog = TcpStream::connect(handle.addr()).unwrap();
    hog.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
    let flood = std::thread::spawn(move || {
        let t0 = Instant::now();
        let burst = "{\"cmd\":\"stats\"}\n".repeat(32);
        while t0.elapsed() < limit {
            match hog.write_all(burst.as_bytes()) {
                Ok(()) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                // Reset or broken pipe: the daemon hung up.
                Err(_) => return Some(t0.elapsed()),
            }
        }
        None
    });

    // Meanwhile, with the hog's replies piling up, another connection is
    // served as usual.
    std::thread::sleep(REPLY_WRITE_TIMEOUT / 2);
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    assert_eq!(client.ping().unwrap().status, Status::Ok);

    let hung_up = flood.join().unwrap();
    assert!(hung_up.is_some(), "a client that never reads is still connected after {limit:?}");
    assert_eq!(client.ping().unwrap().status, Status::Ok);
    handle.shutdown();
}
