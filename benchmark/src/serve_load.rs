//! Load generation against a real `agatha serve` subprocess: one
//! connection, a sender thread and a receiver thread.
//!
//! The open loop sends on a fixed schedule — request `i` of a step at rate
//! `r` is due `i / r` seconds after the step starts, whatever the replies
//! do — and times every request **from the instant it was due**, so a
//! back-pressured sender counts against the system instead of silently
//! lowering the offered load. How late the generator itself ran is
//! reported beside the latencies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use agatha_serve::protocol::align_request_line;
use agatha_serve::{parse_response, Status};

use crate::batch::oracle_scores;
use crate::child::{agatha_command, ChildUsage, RunningChild};
use crate::json::Json;
use crate::measure::percentile;
use crate::workloads::{generate_tasks, scenario_scoring, seq_text, Admission, ServeWorkload};

/// How long after its last send a phase waits for stragglers before it
/// counts them unanswered: the server-side deadline and then some, so
/// anything still missing will never be answered `ok`. Nothing is waited for
/// once every reply is in.
pub fn grace(admission: Admission) -> Duration {
    Duration::from_millis(admission.deadline_ms + 300)
}

/// Length of the windows the end-to-end serve metrics are medians over.
/// Half a second at the 2000 req/s reference rate is 1,000 requests: p99 is
/// the highest percentile with ten samples beyond it.
pub const WINDOW_S: f64 = 0.5;

/// The request corpus: pre-rendered request lines (minus the id) and the
/// oracle's score for each.
pub struct Corpus {
    /// Everything after `{"id":N` of each request line.
    tails: Vec<String>,
    pub oracle: Vec<i32>,
}

impl Corpus {
    pub fn generate(w: &ServeWorkload, seed: u64, size: usize) -> Corpus {
        let scoring = scenario_scoring(w.scenario);
        let tasks = generate_tasks(w.scenario, seed, size);
        let oracle = oracle_scores(&tasks, &scoring);
        let tails = tasks
            .iter()
            .map(|t| {
                let line = align_request_line(
                    0,
                    &seq_text(&t.reference, &scoring),
                    &seq_text(&t.query, &scoring),
                    None,
                );
                line.strip_prefix("{\"id\":0").expect("request lines start with the id").to_string()
            })
            .collect();
        Corpus { tails, oracle }
    }

    pub fn len(&self) -> usize {
        self.tails.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tails.is_empty()
    }

    /// Append request `id`'s line (corpus entry `id % len`) to `out`.
    pub fn write_request(&self, id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"id\":");
        out.extend_from_slice(id.to_string().as_bytes());
        out.extend_from_slice(self.tails[(id % self.tails.len() as u64) as usize].as_bytes());
        out.push(b'\n');
    }

    /// The full request line for `id` (tests, the protocol probe).
    pub fn request_line(&self, id: u64) -> String {
        let mut out = Vec::new();
        self.write_request(id, &mut out);
        out.pop();
        String::from_utf8(out).expect("request lines are ASCII")
    }

    pub fn expected_score(&self, id: u64) -> i32 {
        self.oracle[(id % self.oracle.len() as u64) as usize]
    }
}

/// A running `agatha serve` subprocess.
pub struct Daemon {
    running: RunningChild,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn → `listening on` line, plus the first `ping`'s round trip.
    pub setup_s: f64,
    out_dir: PathBuf,
}

/// The untimed pause between the `listening on` line and the first ping of
/// the run's `sample`-th daemon. The acceptor polls a non-blocking listener
/// once a millisecond, so a ping sent the instant the address is printed
/// races the first poll: it is answered in 0.4 ms or in 1.3 ms, and the share
/// of each moved the set-up time by a fifth from run to run. The pause steps
/// through the poll period sample by sample (golden-ratio steps over 1.1 ms,
/// the period as `sleep` keeps it) so that every run sees the same even mix
/// of poll phases.
fn ping_pause(sample: usize) -> Duration {
    let phase = (sample as f64 * 0.618_033_988_75).fract();
    Duration::from_nanos(1_000_000 + (phase * 1_100_000.0) as u64)
}

impl Daemon {
    pub fn spawn(
        binary: &Path,
        w: &ServeWorkload,
        admission: Admission,
        out_dir: &Path,
        sample: usize,
    ) -> Result<Daemon, String> {
        let args: Vec<String> = [
            "serve",
            "--scenario",
            w.scenario,
            "--port",
            "0",
            "--threads",
            "1",
            "--window-ms",
            &w.window_ms.to_string(),
            "--max-queue",
            &admission.max_queue.to_string(),
            "--deadline-ms",
            &admission.deadline_ms.to_string(),
            "-o",
            &out_dir.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut cmd = agatha_command(binary, &args);
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null());
        let started = Instant::now();
        let mut running = RunningChild::spawn(&mut cmd)?;
        let mut stdout = BufReader::new(running.child_mut().stdout.take().expect("stdout piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).map_err(|e| format!("read daemon stdout: {e}"))?;
            if n == 0 {
                return Err("agatha serve exited before printing its address".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("agatha serve: listening on ") {
                break addr.parse::<SocketAddr>().map_err(|e| format!("address '{addr}': {e}"))?;
            }
        };
        let listening_s = started.elapsed().as_secs_f64();
        std::thread::sleep(ping_pause(sample));
        let pinged = Instant::now();
        let reply = control(addr, "{\"cmd\":\"ping\"}")?;
        let setup_s = listening_s + pinged.elapsed().as_secs_f64();
        if !reply.contains("\"ok\"") {
            return Err(format!("ping answered '{reply}'"));
        }
        Ok(Daemon { running, stdout, addr, setup_s, out_dir: out_dir.to_path_buf() })
    }

    /// Ask the daemon to drain and exit; returns what the process cost, its
    /// peak RSS (read while it still lives) and the `serve_stats.json` it
    /// wrote.
    pub fn shutdown(mut self) -> Result<(ChildUsage, f64, Json), String> {
        let peak_rss_mb = self.running.peak_rss_mb().ok_or("cannot read the daemon's RSS")?;
        control(self.addr, "{\"cmd\":\"shutdown\"}")?;
        // The daemon prints its table before it writes the stats file:
        // keep the pipe open until it exits or the print would fail.
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).map_err(|e| format!("read daemon stdout: {e}"))?;
        let usage = self.running.finish()?;
        if !usage.success {
            return Err(format!("agatha serve exited with a failure:\n{rest}"));
        }
        let path = self.out_dir.join("serve_stats.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Ok((usage, peak_rss_mb, Json::parse(&text)?))
    }
}

/// One request/reply on a connection of its own.
fn control(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).map_err(|e| format!("recv: {e}"))?;
    Ok(reply.trim_end().to_string())
}

/// The time source of the open-loop sender; a fake one drives the tests.
pub trait LoadClock {
    /// Nanoseconds since the step started.
    fn now_ns(&self) -> u64;
    /// Return no earlier than `ns` (and as soon after as possible).
    fn wait_until(&self, ns: u64);
}

struct RealClock(Instant);

/// Shortest sleep of the sender. The generator shares two cores with the
/// daemon it loads, so it never spins: at rates whose gaps are shorter than
/// this it wakes once per quantum and sends everything that fell due, which
/// costs the requests at most this much extra lateness (reported as send
/// lag, counted in their latency) and leaves the CPU to the system under
/// test.
const SEND_QUANTUM_NS: u64 = 250_000;

impl LoadClock for RealClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, ns: u64) {
        let now = self.now_ns();
        if now < ns {
            std::thread::sleep(Duration::from_nanos((ns - now).max(SEND_QUANTUM_NS)));
        }
    }
}

/// Due time of request `index` at `rate_rps`, in nanoseconds from the start
/// of the step: a pure function of rate and index.
pub fn due_ns(rate_rps: u32, index: u64) -> u64 {
    (u128::from(index) * 1_000_000_000 / u128::from(rate_rps.max(1))) as u64
}

/// Drive the open-loop schedule: wait for each request's due time, then
/// hand `send` every request that is due by now (one call, so a sender
/// that fell behind catches up in a single write). Returns the instant each
/// request's send began. Due times never move: a stalled `send` makes later
/// requests late, it does not push the schedule back.
pub fn run_schedule<C: LoadClock>(
    clock: &C,
    rate_rps: u32,
    count: u64,
    mut send: impl FnMut(std::ops::Range<u64>) -> Result<(), String>,
) -> Result<Vec<u64>, String> {
    let mut sent_ns = Vec::with_capacity(count as usize);
    let mut next = 0u64;
    while next < count {
        clock.wait_until(due_ns(rate_rps, next));
        let now = clock.now_ns();
        let mut end = next + 1;
        while end < count && due_ns(rate_rps, end) <= now {
            end += 1;
        }
        sent_ns.resize(end as usize, now);
        send(next..end)?;
        next = end;
    }
    Ok(sent_ns)
}

/// What came back for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reply {
    recv_ns: u64,
    status: Status,
    score: Option<i32>,
}

/// Read replies until the peer closes (or the stream is shut down), filing
/// each under its id and bumping `received`.
fn receive(
    stream: TcpStream,
    origin: Instant,
    capacity: usize,
    received: &AtomicU64,
    tokens: Option<mpsc::Sender<()>>,
) -> Vec<Option<Reply>> {
    let mut replies: Vec<Option<Reply>> = vec![None; capacity];
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let recv_ns = origin.elapsed().as_nanos() as u64;
        let Ok(r) = parse_response(line.trim_end()) else { continue };
        let Some(id) = r.id.and_then(|id| usize::try_from(id).ok()) else { continue };
        if id >= replies.len() {
            replies.resize(id + 1, None);
        }
        replies[id] = Some(Reply { recv_ns, status: r.status, score: r.score });
        received.fetch_add(1, Ordering::Relaxed);
        if let Some(tokens) = &tokens {
            let _ = tokens.send(());
        }
    }
    replies
}

/// Outcome counts of one load phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcomes {
    pub sent: u64,
    /// `ok` replies with the oracle's score.
    pub ok: u64,
    /// `ok` replies with any other score.
    pub wrong: u64,
    pub rejected: u64,
    pub dropped: u64,
    /// Error replies and anything else unexpected.
    pub other: u64,
    pub unanswered: u64,
    /// Correct `ok` replies that arrived later than the limit.
    pub late: u64,
}

impl Outcomes {
    /// Correct `ok` replies inside the latency limit.
    pub fn within_limit(&self) -> u64 {
        self.ok - self.late
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sent", Json::Num(self.sent as f64)),
            ("ok", Json::Num(self.ok as f64)),
            ("wrong", Json::Num(self.wrong as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            ("other", Json::Num(self.other as f64)),
            ("unanswered", Json::Num(self.unanswered as f64)),
            ("late", Json::Num(self.late as f64)),
        ])
    }
}

/// One open-loop ladder step, as the client saw it.
#[derive(Debug, Clone)]
pub struct StepResult {
    pub rate_rps: u32,
    pub seconds: f64,
    pub outcomes: Outcomes,
    /// Correct `ok` replies, in the order their requests were due.
    pub answered: Vec<Answered>,
    /// How late each send began, ascending, in ms.
    pub send_lag_ms: Vec<f64>,
    pub in_flight_mid: u64,
    pub in_flight_end: u64,
    /// First wrong-score reply, described.
    pub first_wrong: Option<String>,
}

impl StepResult {
    /// Percentile `p` of the correct replies' latency from due time over
    /// the whole step (0 when there were none).
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        percentile_of(self.answered.iter().map(Answered::latency_ms).collect(), p)
    }

    /// Percentile `p` of latency inside each full [`WINDOW_S`] window of the
    /// step (requests grouped by due time). A stall of the host spoils the
    /// windows it falls in and no others, so the median over windows
    /// repeats where the whole-step percentile does not.
    pub fn window_percentiles_ms(&self, p: f64) -> Vec<f64> {
        let window_ns = (WINDOW_S * 1e9) as u64;
        let full = (self.seconds / WINDOW_S).floor() as u64;
        (0..full)
            .map(|w| {
                let inside = self.answered.iter().filter(|a| a.due_ns / window_ns == w);
                percentile_of(inside.map(Answered::latency_ms).collect(), p)
            })
            .collect()
    }

    pub fn p50_ms(&self) -> f64 {
        self.latency_percentile_ms(50.0)
    }

    pub fn p99_ms(&self) -> f64 {
        self.latency_percentile_ms(99.0)
    }

    pub fn send_lag_p99_ms(&self) -> f64 {
        if self.send_lag_ms.is_empty() {
            0.0
        } else {
            percentile(&self.send_lag_ms, 99.0)
        }
    }

    /// The generator kept its schedule: p99 send lag within a tenth of the
    /// latency limit.
    pub fn valid(&self, w: &ServeWorkload) -> bool {
        self.send_lag_p99_ms() <= w.limit_ms / 10.0
    }

    /// Share of the requests due in each full [`WINDOW_S`] window that got
    /// a correct `ok` reply within `limit_ms`.
    pub fn window_within_limit(&self, limit_ms: f64) -> Vec<f64> {
        let window_ns = (WINDOW_S * 1e9) as u64;
        let full = (self.seconds / WINDOW_S).floor() as u64;
        (0..full)
            .map(|w| {
                let due = (0..self.outcomes.sent)
                    .filter(|&i| due_ns(self.rate_rps, i) / window_ns == w)
                    .count();
                let within = self
                    .answered
                    .iter()
                    .filter(|a| a.due_ns / window_ns == w && a.latency_ms() <= limit_ms)
                    .count();
                within as f64 / due.max(1) as f64
            })
            .collect()
    }

    /// At least 99 % of requests got a correct `ok` reply within the limit
    /// — in the median half-second window, so that one stall of the host
    /// does not fail a step (over the whole step when it is shorter than a
    /// window) — and the backlog at the end of the step is no larger than
    /// at its midpoint, give or take one admission window of arrivals, so a
    /// steady queue that breathes by a batch passes.
    pub fn meets_limit(&self, w: &ServeWorkload) -> bool {
        let windows = self.window_within_limit(w.limit_ms);
        let share = if windows.is_empty() {
            self.outcomes.within_limit() as f64 / self.outcomes.sent.max(1) as f64
        } else {
            crate::measure::median(&windows)
        };
        let window_arrivals = u64::from(self.rate_rps) * w.window_ms / 1_000 + 1;
        share >= 0.99 && self.in_flight_end <= self.in_flight_mid + window_arrivals
    }

    /// Correct `ok` replies within the limit, per second of the step.
    pub fn goodput_rps(&self) -> f64 {
        self.outcomes.within_limit() as f64 / self.seconds
    }

    pub fn to_json(&self, w: &ServeWorkload) -> Json {
        Json::obj([
            ("rate_rps", Json::Num(f64::from(self.rate_rps))),
            ("seconds", Json::Num(self.seconds)),
            ("outcomes", self.outcomes.to_json()),
            ("p50_ms", Json::Num(self.p50_ms())),
            ("p90_ms", Json::Num(self.latency_percentile_ms(90.0))),
            ("p95_ms", Json::Num(self.latency_percentile_ms(95.0))),
            ("p99_ms", Json::Num(self.p99_ms())),
            ("send_lag_p99_ms", Json::Num(self.send_lag_p99_ms())),
            ("in_flight_mid", Json::Num(self.in_flight_mid as f64)),
            ("in_flight_end", Json::Num(self.in_flight_end as f64)),
            ("goodput_rps", Json::Num(self.goodput_rps())),
            ("valid", Json::Bool(self.valid(w))),
            ("meets_limit", Json::Bool(self.meets_limit(w))),
        ])
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

/// A correct `ok` reply: when its request was due and when it arrived, in
/// nanoseconds from the start of the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answered {
    pub due_ns: u64,
    pub recv_ns: u64,
}

impl Answered {
    pub fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Classify every request of a phase against the oracle and the limit.
/// Returns the outcome counts, the correct replies in request order, and
/// the first wrong score described.
fn tally(
    corpus: &Corpus,
    replies: &[Option<Reply>],
    due: impl Fn(u64) -> u64,
    sent: u64,
    limit_ms: f64,
) -> (Outcomes, Vec<Answered>, Option<String>) {
    let mut o = Outcomes { sent, ..Outcomes::default() };
    let mut answered = Vec::with_capacity(sent as usize);
    let mut first_wrong = None;
    for id in 0..sent {
        match replies.get(id as usize).copied().flatten() {
            None => o.unanswered += 1,
            Some(r) => match r.status {
                Status::Ok if r.score == Some(corpus.expected_score(id)) => {
                    o.ok += 1;
                    let a = Answered { due_ns: due(id), recv_ns: r.recv_ns };
                    if a.latency_ms() > limit_ms {
                        o.late += 1;
                    }
                    answered.push(a);
                }
                Status::Ok => {
                    o.wrong += 1;
                    first_wrong.get_or_insert_with(|| {
                        format!(
                            "request {id} (corpus pair {}): score {:?} but the oracle says {}",
                            id as usize % corpus.len() + 1,
                            r.score,
                            corpus.expected_score(id)
                        )
                    });
                }
                Status::Rejected => o.rejected += 1,
                Status::Dropped => o.dropped += 1,
                Status::Error | Status::Info => o.other += 1,
            },
        }
    }
    (o, answered, first_wrong)
}

/// Nearest-rank percentile `p` of `values` (sorted here), or 0 for none.
fn percentile_of(mut values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    percentile(&values, p)
}

/// One open-loop step at `rate_rps` for `seconds` against a live daemon,
/// then up to `grace` for the stragglers.
pub fn open_loop_step(
    addr: SocketAddr,
    corpus: &Corpus,
    w: &ServeWorkload,
    rate_rps: u32,
    seconds: f64,
    grace: Duration,
) -> Result<StepResult, String> {
    let count = (f64::from(rate_rps) * seconds).round().max(1.0) as u64;
    let mut writer = connect(addr)?;
    let reader = writer.try_clone().map_err(|e| e.to_string())?;
    let received = AtomicU64::new(0);
    let origin = Instant::now();
    let clock = RealClock(origin);
    let (mut in_flight_mid, mut in_flight_end) = (0u64, 0u64);
    let mut buf = Vec::with_capacity(64 * 1024);

    let (sent_ns, replies) = std::thread::scope(|scope| {
        let rx = scope.spawn(|| receive(reader, origin, count as usize, &received, None));
        let sent_ns = run_schedule(&clock, rate_rps, count, |ids| {
            buf.clear();
            for id in ids.clone() {
                corpus.write_request(id, &mut buf);
            }
            writer.write_all(&buf).map_err(|e| format!("send: {e}"))?;
            let in_flight = ids.end - received.load(Ordering::Relaxed).min(ids.end);
            if ids.contains(&(count / 2)) {
                in_flight_mid = in_flight;
            }
            if ids.end == count {
                in_flight_end = in_flight;
            }
            Ok(())
        });
        // Wait for the stragglers, then close the connection under the
        // receiver so its read returns.
        let waited = Instant::now();
        while received.load(Ordering::Relaxed) < count && waited.elapsed() < grace {
            std::thread::sleep(Duration::from_millis(1));
        }
        writer.shutdown(Shutdown::Both).ok();
        (sent_ns, rx.join().expect("receiver thread panicked"))
    });
    let sent_ns = sent_ns?;

    let (outcomes, answered, first_wrong) =
        tally(corpus, &replies, |id| due_ns(rate_rps, id), count, w.limit_ms);
    let mut send_lag_ms: Vec<f64> = sent_ns
        .iter()
        .enumerate()
        .map(|(i, &at)| at.saturating_sub(due_ns(rate_rps, i as u64)) as f64 / 1e6)
        .collect();
    send_lag_ms.sort_by(f64::total_cmp);
    Ok(StepResult {
        rate_rps,
        seconds,
        outcomes,
        answered,
        send_lag_ms,
        in_flight_mid,
        in_flight_end,
        first_wrong,
    })
}

/// The closed-loop phase, as the client saw it.
#[derive(Debug, Clone)]
pub struct ClosedResult {
    pub outcomes: Outcomes,
    /// First send to last reply.
    pub seconds: f64,
    /// Arrival times of the correct replies, ascending, in nanoseconds from
    /// the first send.
    pub recv_ns: Vec<u64>,
    pub first_wrong: Option<String>,
}

impl ClosedResult {
    /// Correct replies per second over the whole phase.
    pub fn rps(&self) -> f64 {
        self.outcomes.ok as f64 / self.seconds
    }

    /// Correct replies per second inside each full [`WINDOW_S`] window.
    pub fn window_rps(&self) -> Vec<f64> {
        let window_ns = (WINDOW_S * 1e9) as u64;
        let full = (self.seconds / WINDOW_S).floor() as u64;
        (0..full)
            .map(|w| self.recv_ns.iter().filter(|&&t| t / window_ns == w).count() as f64 / WINDOW_S)
            .collect()
    }
}

/// Keep `outstanding` requests in flight for `seconds`: each reply frees
/// the next send, so a slower daemon receives less load.
pub fn closed_loop(
    addr: SocketAddr,
    corpus: &Corpus,
    outstanding: usize,
    seconds: f64,
    grace: Duration,
) -> Result<ClosedResult, String> {
    let mut writer = connect(addr)?;
    let reader = writer.try_clone().map_err(|e| e.to_string())?;
    let received = AtomicU64::new(0);
    let origin = Instant::now();
    let (token_tx, token_rx) = mpsc::channel::<()>();
    let mut buf = Vec::with_capacity(4096);

    let (sent, replies, last_reply_ns) = std::thread::scope(|scope| -> Result<_, String> {
        let rx = scope.spawn(|| receive(reader, origin, 1 << 16, &received, Some(token_tx)));
        let mut sent = 0u64;
        let mut free = outstanding;
        let mut failure = None;
        while origin.elapsed().as_secs_f64() < seconds {
            if free == 0 {
                // Block for a reply; the timeout only bounds a dead daemon.
                if token_rx.recv_timeout(Duration::from_secs(5)).is_err() {
                    failure = Some("no reply for 5 s in the closed loop".to_string());
                    break;
                }
                free += 1;
            }
            while token_rx.try_recv().is_ok() {
                free += 1;
            }
            buf.clear();
            for _ in 0..free {
                corpus.write_request(sent, &mut buf);
                sent += 1;
            }
            free = 0;
            if let Err(e) = writer.write_all(&buf) {
                failure = Some(format!("send: {e}"));
                break;
            }
        }
        let waited = Instant::now();
        while received.load(Ordering::Relaxed) < sent && waited.elapsed() < grace {
            std::thread::sleep(Duration::from_millis(1));
        }
        let last_reply_ns = origin.elapsed().as_nanos() as u64;
        writer.shutdown(Shutdown::Both).ok();
        let replies = rx.join().expect("receiver thread panicked");
        match failure {
            Some(e) => Err(e),
            None => Ok((sent, replies, last_reply_ns)),
        }
    })?;

    let (outcomes, answered, first_wrong) = tally(corpus, &replies, |_| 0, sent, f64::INFINITY);
    let mut recv_ns: Vec<u64> = answered.iter().map(|a| a.recv_ns).collect();
    recv_ns.sort_unstable();
    let last = recv_ns.last().copied().unwrap_or(last_reply_ns);
    Ok(ClosedResult { outcomes, seconds: last as f64 / 1e9, recv_ns, first_wrong })
}

/// Read one latency histogram's percentile (µs in the file) as ms.
pub fn stats_ms(stats: &Json, histogram: &str, key: &str) -> f64 {
    stats.get(histogram).and_then(|h| h.get(key)).and_then(Json::as_f64).unwrap_or(0.0) / 1_000.0
}

pub fn stats_count(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SERVE_OPEN;
    use std::cell::Cell;

    /// A clock that only moves when told to: `wait_until` jumps to the due
    /// time, `stall` models a send that blocks.
    struct FakeClock(Cell<u64>);

    impl LoadClock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }

        fn wait_until(&self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    #[test]
    fn due_times_are_a_pure_function_of_rate_and_index() {
        assert_eq!(due_ns(1_000, 0), 0);
        assert_eq!(due_ns(1_000, 1), 1_000_000);
        assert_eq!(due_ns(2_000, 3), 1_500_000);
        assert_eq!(due_ns(16_000, 16_000), 1_000_000_000);
        // No drift from accumulated rounding: index × period, not a sum.
        assert_eq!(due_ns(3, 3_000_000), 1_000_000_000_000_000);
    }

    #[test]
    fn an_unstalled_sender_sends_each_request_when_due() {
        let clock = FakeClock(Cell::new(0));
        let mut calls = Vec::new();
        let sent = run_schedule(&clock, 1_000, 5, |ids| {
            calls.push(ids);
            Ok(())
        })
        .unwrap();
        assert_eq!(sent, vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]);
        assert_eq!(calls, vec![0..1, 1..2, 2..3, 3..4, 4..5]);
    }

    #[test]
    fn a_stall_makes_later_sends_late_but_never_moves_the_schedule() {
        let clock = FakeClock(Cell::new(0));
        let mut calls = Vec::new();
        let sent = run_schedule(&clock, 1_000, 8, |ids| {
            // The second write blocks for 3.5 ms (replies stalled, socket full).
            if ids.start == 1 {
                clock.0.set(clock.0.get() + 3_500_000);
            }
            calls.push(ids);
            Ok(())
        })
        .unwrap();
        // Requests 2, 3 and 4 fell due during the stall: they go out in one
        // catch-up write at 4.5 ms, late by 2.5, 1.5 and 0.5 ms. Request 5 is
        // back on schedule at exactly 5 ms — the stall did not shift it.
        assert_eq!(calls, vec![0..1, 1..2, 2..5, 5..6, 6..7, 7..8]);
        assert_eq!(
            sent,
            vec![0, 1_000_000, 4_500_000, 4_500_000, 4_500_000, 5_000_000, 6_000_000, 7_000_000]
        );
        let lag: Vec<u64> =
            sent.iter().enumerate().map(|(i, &s)| s - due_ns(1_000, i as u64)).collect();
        assert_eq!(lag, vec![0, 0, 2_500_000, 1_500_000, 500_000, 0, 0, 0]);
    }

    #[test]
    fn send_errors_end_the_schedule() {
        let clock = FakeClock(Cell::new(0));
        let err = run_schedule(&clock, 10, 3, |_| Err("boom".to_string())).unwrap_err();
        assert_eq!(err, "boom");
    }

    #[test]
    fn corpus_lines_parse_as_protocol_requests() {
        let corpus = Corpus::generate(&SERVE_OPEN, 3, 5);
        assert_eq!(corpus.len(), 5);
        for id in [0u64, 4, 5, 12_345] {
            let line = corpus.request_line(id);
            match agatha_serve::protocol::parse_request(&line).unwrap() {
                agatha_serve::protocol::Request::Align(a) => {
                    assert_eq!(a.id, id as i64);
                    assert!(a.deadline_ms.is_none());
                    assert!(a.reference.len() >= a.query.len());
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            corpus.request_line(1)[8..],
            corpus.request_line(6)[8..],
            "ids cycle the corpus"
        );
        assert_eq!(corpus.expected_score(7), corpus.oracle[2]);
    }

    fn reply(recv_ns: u64, status: Status, score: Option<i32>) -> Option<Reply> {
        Some(Reply { recv_ns, status, score })
    }

    #[test]
    fn tally_counts_every_request_exactly_once() {
        let corpus = Corpus::generate(&SERVE_OPEN, 3, 2);
        let (s0, s1) = (corpus.oracle[0], corpus.oracle[1]);
        let replies = vec![
            reply(2_000_000, Status::Ok, Some(s0)),  // 1 ms after due
            reply(40_000_000, Status::Ok, Some(s1)), // 38 ms after due: late
            reply(3_000_000, Status::Ok, Some(s0 + 1)),
            reply(3_500_000, Status::Rejected, None),
            reply(9_000_000, Status::Dropped, None),
            None,
        ];
        let (o, answered, wrong) = tally(&corpus, &replies, |id| id * 1_000_000, 6, 25.0);
        let lat: Vec<f64> = answered.iter().map(Answered::latency_ms).collect();
        assert_eq!(
            o,
            Outcomes {
                sent: 6,
                ok: 2,
                wrong: 1,
                rejected: 1,
                dropped: 1,
                other: 0,
                unanswered: 1,
                late: 1
            }
        );
        assert_eq!(o.within_limit(), 1);
        assert_eq!(lat, vec![2.0, 39.0]);
        assert!(wrong.unwrap().contains("request 2"));
    }

    fn step(rate: u32, sent: u64, within: u64, mid: u64, end: u64, lag_ms: f64) -> StepResult {
        StepResult {
            rate_rps: rate,
            seconds: 1.0,
            outcomes: Outcomes { sent, ok: within, ..Outcomes::default() },
            // The first `within` requests are answered 1 ms after they fell due.
            answered: (0..within)
                .map(|i| Answered { due_ns: due_ns(rate, i), recv_ns: due_ns(rate, i) + 1_000_000 })
                .collect(),
            send_lag_ms: vec![lag_ms],
            in_flight_mid: mid,
            in_flight_end: end,
            first_wrong: None,
        }
    }

    #[test]
    fn the_limit_needs_ninety_nine_percent_and_a_steady_backlog() {
        let w = SERVE_OPEN;
        assert!(step(1_000, 1_000, 990, 4, 6, 0.1).meets_limit(&w));
        assert!(!step(1_000, 1_000, 989, 4, 6, 0.1).meets_limit(&w));
        // 1000 req/s × 2 ms window + 1 = 3 arrivals of slack.
        assert!(step(1_000, 1_000, 1_000, 4, 7, 0.1).meets_limit(&w));
        assert!(!step(1_000, 1_000, 1_000, 4, 8, 0.1).meets_limit(&w));
        assert!(step(1_000, 1_000, 1_000, 4, 6, 2.5).valid(&w));
        assert!(!step(1_000, 1_000, 1_000, 4, 6, 2.6).valid(&w));
        assert_eq!(step(1_000, 1_000, 700, 0, 0, 0.0).goodput_rps(), 700.0);
    }

    #[test]
    fn a_stall_spoils_only_the_windows_it_falls_in() {
        // 1.6 s at 100 req/s: three full half-second windows and a stub.
        // Every reply takes 2 ms, except that the second window hits a
        // 300 ms stall — which fails that window's limit and not the step's.
        let answered: Vec<Answered> = (0..160u64)
            .map(|i| {
                let due_ns = due_ns(100, i);
                let stalled = (500_000_000..1_000_000_000).contains(&due_ns);
                Answered { due_ns, recv_ns: due_ns + if stalled { 300_000_000 } else { 2_000_000 } }
            })
            .collect();
        let s = StepResult { seconds: 1.6, answered, ..step(100, 160, 160, 0, 0, 0.0) };
        assert_eq!(s.window_percentiles_ms(99.0), vec![2.0, 300.0, 2.0]);
        assert_eq!(s.window_within_limit(25.0), vec![1.0, 0.0, 1.0]);
        assert!(s.meets_limit(&SERVE_OPEN));
        assert_eq!(crate::measure::median(&s.window_percentiles_ms(99.0)), 2.0);
        assert_eq!(s.latency_percentile_ms(99.0), 300.0, "the whole-step p99 is the stall");

        let closed = ClosedResult {
            outcomes: Outcomes::default(),
            seconds: 1.2,
            recv_ns: (0..120u64).map(|i| i * 10_000_000).collect(),
            first_wrong: None,
        };
        assert_eq!(closed.window_rps(), vec![100.0, 100.0]);
    }
}
