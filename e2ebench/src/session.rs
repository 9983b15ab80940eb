//! One serve session: set up the input, serve it to the students over
//! loopback TCP, and check what every student decoded.
//!
//! ```text
//!  CountingSource ─► Pipeline ─┐                        student threads
//!  (or SeekReplaySource)       ├─► BenchStream ─► serve ══ TCP ══► ClientStream
//!                              ┘   (digest, due,          (decode, digest,
//!                                   pacer, spans)          decode instant)
//! ```
//!
//! Timed wall runs from the first pull `serve` makes on the [`BenchStream`]
//! to the last student's close frame; everything before it is setup.

use crate::digest::window_digest;
use crate::probe;
use crate::stats::{median, quantile_sorted};
use crate::workload::{Feed, PregenSource, Prepared, Shape};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};
use tw_ingest::frame::CloseSummary;
use tw_ingest::{EventSource, Pipeline, SeekReplaySource, StreamError, WindowReport, WindowStream};
use tw_matrix::stream::PacketEvent;
use tw_metrics::{MetricsRegistry, MetricsSnapshot};
use tw_serve::{loopback_listener, serve, ClientStream, ServeConfig};

/// A paced session is flagged as backlogged when the median lag over its
/// last tenth of windows exceeds the median over its first tenth by more
/// than this share of its schedule span (windows × interval). A schedule
/// above capacity grows lag by the overload share times the span, so an
/// overload above this share is caught. Host stalls of tens of ms are not
/// flagged.
pub const BACKLOG_TOLERANCE: f64 = 0.1;

/// How long setup waits after the last student thread starts dialing, so
/// every loopback handshake has completed before `serve` starts accepting.
const CONNECT_GRACE: Duration = Duration::from_micros(500);

/// Per-session switches.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Attach the program's instrumentation and the bench's span timers.
    pub traced: bool,
    /// Self-test hook: corrupt the expected digest of this window index.
    pub perturb_digest: Option<u64>,
    /// Self-test hook: student `.0` stops reading for `.1` after its first
    /// window.
    pub stall: Option<(usize, Duration)>,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one session measured and whether its output was correct.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Setup: input preparation, bind, connect and the roster wait.
    pub setup: Duration,
    /// First pull to the last student's close frame.
    pub wall: Duration,
    /// Windows `serve` pulled from the stream.
    pub windows: u64,
    pub students: usize,
    /// Σ `IngestStats::events` over the windows every student decoded.
    pub events_decoded: u64,
    /// Due-to-decoded lag of every verified window × student, in ms,
    /// ascending.
    pub lags_ms: Vec<f64>,
    /// `ServeSummary::encoded_bytes`.
    pub encoded_bytes: u64,
    /// `VmHWM` over the timed phase, in MiB.
    pub peak_rss_mib: f64,
    /// CPU time the hypervisor stole from this machine (all CPUs) over the
    /// whole session, setup included, in ms: how disturbed the session was.
    pub steal_ms: f64,
    /// Window × student pairs the session had to deliver.
    pub attempted: u64,
    /// Pairs missing, undecodable or with a wrong digest, plus one per
    /// broken conservation law.
    pub failed: u64,
    /// Why each failure was counted.
    pub failures: Vec<String>,
    /// Per-layer numbers; empty unless traced.
    pub trace: Vec<Metric>,
}

impl SessionResult {
    /// Host steal per second of session (setup and timed phase), in ms/s.
    pub fn steal_rate(&self) -> f64 {
        self.steal_ms / (self.setup + self.wall).as_secs_f64().max(1e-9)
    }

    /// Decoded events per second of timed wall.
    pub fn events_per_s(&self) -> f64 {
        self.events_decoded as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Nearest-rank `q`-quantile of the session's lag samples, in ms.
    pub fn lag_quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.lags_ms, q)
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One `key value...` line per field, for handing a session run in a
    /// child process back to the parent ([`SessionResult::decode`]).
    pub fn encode(&self) -> String {
        let mut out = format!(
            "setup_ns {}\nwall_ns {}\nwindows {}\nstudents {}\nevents_decoded {}\n\
             encoded_bytes {}\npeak_rss_mib {}\nsteal_ms {}\nattempted {}\nfailed {}\nlags_ms",
            self.setup.as_nanos(),
            self.wall.as_nanos(),
            self.windows,
            self.students,
            self.events_decoded,
            self.encoded_bytes,
            self.peak_rss_mib,
            self.steal_ms,
            self.attempted,
            self.failed,
        );
        for lag in &self.lags_ms {
            out += &format!(" {lag}");
        }
        for failure in &self.failures {
            out += &format!("\nfailure {}", failure.replace('\n', " "));
        }
        for m in &self.trace {
            out += &format!("\ntrace {} {} {}", m.name, m.unit, m.value);
        }
        out
    }

    /// Parse what [`SessionResult::encode`] wrote.
    pub fn decode(text: &str) -> Result<SessionResult, String> {
        fn num<T: std::str::FromStr>(line: &str, value: Option<&str>) -> Result<T, String> {
            value
                .and_then(|v| v.parse().ok())
                .ok_or(format!("bad session line: {line}"))
        }
        let mut r = SessionResult {
            setup: Duration::ZERO,
            wall: Duration::ZERO,
            windows: 0,
            students: 0,
            events_decoded: 0,
            lags_ms: Vec::new(),
            encoded_bytes: 0,
            peak_rss_mib: 0.0,
            steal_ms: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            trace: Vec::new(),
        };
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut fields = rest.split(' ');
            match key {
                "setup_ns" => r.setup = Duration::from_nanos(num(line, fields.next())?),
                "wall_ns" => r.wall = Duration::from_nanos(num(line, fields.next())?),
                "windows" => r.windows = num(line, fields.next())?,
                "students" => r.students = num(line, fields.next())?,
                "events_decoded" => r.events_decoded = num(line, fields.next())?,
                "encoded_bytes" => r.encoded_bytes = num(line, fields.next())?,
                "peak_rss_mib" => r.peak_rss_mib = num(line, fields.next())?,
                "steal_ms" => r.steal_ms = num(line, fields.next())?,
                "attempted" => r.attempted = num(line, fields.next())?,
                "failed" => r.failed = num(line, fields.next())?,
                "lags_ms" => {
                    r.lags_ms = fields
                        .filter(|f| !f.is_empty())
                        .map(|f| num(line, Some(f)))
                        .collect::<Result<_, _>>()?
                }
                "failure" => r.failures.push(rest.to_string()),
                "trace" => {
                    let (name, unit) = (fields.next(), fields.next());
                    let value = num(line, fields.next())?;
                    match (name, unit) {
                        (Some(name), Some(unit)) => r.trace.push(Metric::new(name, value, unit)),
                        _ => return Err(format!("bad session line: {line}")),
                    }
                }
                _ => return Err(format!("unknown session line: {line}")),
            }
        }
        if r.attempted == 0 {
            return Err("the session reported nothing".to_string());
        }
        Ok(r)
    }
}

/// What the wrapped source has handed the pipeline.
#[derive(Debug, Default)]
struct SourceTally {
    events: Cell<u64>,
    pull: Cell<Duration>,
}

/// The bench's [`EventSource`] wrapper: counts every event the pipeline
/// pulls and, when traced, times each pull.
struct CountingSource {
    inner: Box<dyn EventSource>,
    tally: Rc<SourceTally>,
    traced: bool,
}

impl EventSource for CountingSource {
    fn node_count(&self) -> u32 {
        self.inner.node_count()
    }

    fn pull(&mut self, max: usize, out: &mut Vec<PacketEvent>) -> usize {
        let started = self.traced.then(Instant::now);
        let pulled = self.inner.pull(max, out);
        if let Some(started) = started {
            self.tally
                .pull
                .set(self.tally.pull.get() + started.elapsed());
        }
        self.tally
            .events
            .set(self.tally.events.get() + pulled as u64);
        pulled
    }
}

/// What the stream wrapper knew about one window when it handed it out.
#[derive(Debug, Clone, Copy)]
struct WindowRecord {
    index: u64,
    digest: u64,
    due: Instant,
    events: u64,
    nnz: u64,
    dropped_late: u64,
}

/// Serve-thread span totals (traced sessions only).
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    /// Inside the inner stream's `next_window`.
    inner: Duration,
    /// Between handing a window to `serve` and its next pull.
    publish: Duration,
    /// Computing window digests.
    digest: Duration,
    /// Pacer sleeping until a window's slot.
    idle: Duration,
}

/// The bench's [`WindowStream`] wrapper around whatever `serve` pulls from.
/// It digests each window, stamps when it was due, paces replay on an open
/// loop, and marks the start of the timed phase on the first pull.
struct BenchStream {
    inner: Box<dyn WindowStream>,
    interval: Option<Duration>,
    traced: bool,
    started: Option<Instant>,
    last_return: Option<Instant>,
    records: Vec<WindowRecord>,
    /// How late the pacer started each window's pull, in ms.
    lateness_ms: Vec<f64>,
    spans: Spans,
    serve_cpu_start: Duration,
    process_cpu_start: Duration,
    rss_reset: Result<(), String>,
}

impl BenchStream {
    fn new(inner: Box<dyn WindowStream>, interval: Option<Duration>, traced: bool) -> Self {
        BenchStream {
            inner,
            interval,
            traced,
            started: None,
            last_return: None,
            records: Vec::new(),
            lateness_ms: Vec::new(),
            spans: Spans::default(),
            serve_cpu_start: Duration::ZERO,
            process_cpu_start: Duration::ZERO,
            rss_reset: Ok(()),
        }
    }
}

impl WindowStream for BenchStream {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        let entered = Instant::now();
        let t0 = match self.started {
            Some(t0) => t0,
            None => {
                // Setup is over: the timed phase and its resource probes
                // start with the first pull.
                self.rss_reset = probe::reset_peak_rss().map_err(|e| format!("clear_refs: {e}"));
                self.serve_cpu_start = probe::thread_cpu();
                self.process_cpu_start = probe::process_cpu();
                let t0 = Instant::now();
                self.started = Some(t0);
                t0
            }
        };
        if let (true, Some(last)) = (self.traced, self.last_return) {
            self.spans.publish += entered - last;
        }
        let due = self.interval.map(|interval| {
            let due = t0 + interval * self.records.len() as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let woke = Instant::now();
            if self.traced {
                self.spans.idle += woke - now;
            }
            self.lateness_ms
                .push(woke.saturating_duration_since(due).as_secs_f64() * 1e3);
            due
        });
        let pulled = Instant::now();
        let result = self.inner.next_window();
        let digest_started = Instant::now();
        if self.traced {
            self.spans.inner += digest_started - pulled;
        }
        if let Ok(Some(report)) = &result {
            let digest = window_digest(&report.matrix);
            let handed_out = Instant::now();
            if self.traced {
                self.spans.digest += handed_out - digest_started;
            }
            self.records.push(WindowRecord {
                index: report.stats.window_index,
                digest,
                due: due.unwrap_or(handed_out),
                events: report.stats.events,
                nnz: report.stats.nnz as u64,
                dropped_late: report.stats.dropped_late,
            });
            self.last_return = Some(handed_out);
        } else {
            self.last_return = None;
        }
        result
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn window_us(&self) -> u64 {
        self.inner.window_us()
    }

    fn remaining_windows(&self) -> Option<usize> {
        self.inner.remaining_windows()
    }
}

/// One student's view of the session.
#[derive(Debug)]
struct StudentOutcome {
    /// `(window index, digest, decoded at)` per decoded window.
    decoded: Vec<(u64, u64, Instant)>,
    closed_at: Instant,
    close: Option<CloseSummary>,
    error: Option<String>,
    cpu: Duration,
}

/// A student: connect, decode every window, digest it, hand the matrix back
/// for buffer reuse, until the server's close frame.
fn run_student(
    addr: std::net::SocketAddr,
    stall: Option<Duration>,
    registry: Option<&MetricsRegistry>,
) -> StudentOutcome {
    let mut outcome = StudentOutcome {
        decoded: Vec::new(),
        closed_at: Instant::now(),
        close: None,
        error: None,
        cpu: Duration::ZERO,
    };
    let mut client = match ClientStream::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            outcome.error = Some(format!("connect: {e}"));
            return outcome;
        }
    };
    if let Some(registry) = registry {
        client.instrument(registry);
    }
    let cpu_start = probe::thread_cpu();
    loop {
        match client.next_window() {
            Ok(Some(report)) => {
                let digest = window_digest(&report.matrix);
                outcome
                    .decoded
                    .push((report.stats.window_index, digest, Instant::now()));
                client.recycle(report.matrix);
                if let (Some(pause), 1) = (stall, outcome.decoded.len()) {
                    std::thread::sleep(pause);
                }
            }
            Ok(None) => break,
            Err(e) => {
                outcome.error = Some(format!("decode: {e}"));
                break;
            }
        }
    }
    outcome.closed_at = Instant::now();
    outcome.cpu = probe::thread_cpu().saturating_sub(cpu_start);
    outcome.close = client.close_summary().copied();
    outcome
}

/// What the session's input must conserve.
enum Conserves {
    /// Every event the wrapped source handed the pipeline.
    Pulled(Rc<SourceTally>),
    /// The totals the recording was made with.
    Recorded { events: u64, dropped_late: u64 },
}

/// Build the stream `serve` will drive, behind the bench wrapper.
fn open_stream(
    shape: &Shape,
    seed: u64,
    traced: bool,
    registry: Option<&MetricsRegistry>,
) -> Result<(BenchStream, Conserves), String> {
    let tally = Rc::new(SourceTally::default());
    let pipeline = |source: Box<dyn EventSource>, horizon_us: u64| {
        let counting = CountingSource {
            inner: source,
            tally: tally.clone(),
            traced,
        };
        let mut pipeline = Pipeline::new(Box::new(counting), shape.pipeline_config(horizon_us));
        if let Some(registry) = registry {
            pipeline.instrument(registry);
        }
        BenchStream::new(Box::new(pipeline), None, traced)
    };
    Ok(match shape.prepare(seed)? {
        Prepared::Pregen { events, horizon_us } => {
            let source = Box::new(PregenSource::new(events, shape.nodes));
            (
                pipeline(source, horizon_us),
                Conserves::Pulled(tally.clone()),
            )
        }
        Prepared::Replay {
            archive,
            events,
            dropped_late,
        } => {
            let interval = match shape.feed {
                Feed::Replay { interval, .. } => Some(interval),
                _ => None,
            };
            let replay =
                SeekReplaySource::new(std::io::Cursor::new(archive)).map_err(|e| e.to_string())?;
            (
                BenchStream::new(Box::new(replay), interval, traced),
                Conserves::Recorded {
                    events,
                    dropped_late,
                },
            )
        }
    })
}

/// Run one session of `shape` on the input `seed` produces.
pub fn run_session(
    shape: &Shape,
    seed: u64,
    options: &SessionOptions,
) -> Result<SessionResult, String> {
    let setup_started = Instant::now();
    let steal_start = probe::host_steal();
    let registry = options.traced.then(MetricsRegistry::new);
    let listener = loopback_listener().map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServeConfig {
        scenario: shape.scenario().name().to_string(),
        seed,
        channel_capacity: shape.channel_capacity,
        wait_for: shape.students,
        metrics: registry.clone(),
        keyframe_every: shape.keyframe_every,
        ..ServeConfig::default()
    };

    let (mut stream, conserves, served, students, serve_returned, serve_cpu_end) =
        std::thread::scope(|scope| {
            // Students dial first, so their connections already wait in the
            // listen backlog when serve's acceptor starts polling.
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let handles: Vec<_> = (0..shape.students)
                .map(|id| {
                    let stall = options.stall.filter(|(who, _)| *who == id).map(|(_, d)| d);
                    let registry = registry.as_ref();
                    let ready = ready_tx.clone();
                    scope.spawn(move || {
                        let _ = ready.send(());
                        run_student(addr, stall, registry)
                    })
                })
                .collect();
            let join = |handles: Vec<std::thread::ScopedJoinHandle<'_, StudentOutcome>>| {
                handles
                    .into_iter()
                    .map(|h| h.join().expect("student thread panicked"))
                    .collect::<Vec<_>>()
            };
            let (mut stream, conserves) =
                match open_stream(shape, seed, options.traced, registry.as_ref()) {
                    Ok(opened) => opened,
                    Err(e) => {
                        // Closing the listener resets the queued connections,
                        // so every student returns before the scope joins it.
                        drop(listener);
                        join(handles);
                        return Err(e);
                    }
                };
            for _ in 0..shape.students {
                let _ = ready_rx.recv();
            }
            std::thread::sleep(CONNECT_GRACE);
            let served = serve(listener, &mut stream, &config, None);
            let serve_returned = Instant::now();
            let serve_cpu_end = probe::thread_cpu();
            let students = join(handles);
            Ok((
                stream,
                conserves,
                served,
                students,
                serve_returned,
                serve_cpu_end,
            ))
        })?;
    let process_cpu_end = probe::process_cpu();
    let steal_end = probe::host_steal();
    let peak_rss_mib = probe::peak_rss_mib().unwrap_or(0.0);
    let summary = served.map_err(|e| e.to_string())?;
    let started = stream.started.ok_or("serve never pulled a window")?;
    let setup = started - setup_started;
    let records = std::mem::take(&mut stream.records);

    // ---- correctness gate ----
    // `failures` explains every failed count; `missing` counts window x
    // student pairs, `laws_broken` each broken conservation law.
    let mut failures = Vec::new();
    let mut laws_broken = 0u64;
    let mut broken = |failures: &mut Vec<String>, why: String| {
        laws_broken += 1;
        failures.push(why);
    };
    if let Err(e) = &stream.rss_reset {
        broken(&mut failures, e.clone());
    }
    let mut expected: HashMap<u64, WindowRecord> = HashMap::with_capacity(records.len());
    for record in &records {
        let mut record = *record;
        if options.perturb_digest == Some(record.index) {
            record.digest ^= 1;
        }
        if expected.insert(record.index, record).is_some() {
            broken(
                &mut failures,
                format!("window {} served twice", record.index),
            );
        }
    }
    let windows = records.len() as u64;
    let attempted = windows * shape.students as u64;
    let mut missing = 0u64;
    let mut lags_ms = Vec::with_capacity(attempted as usize);
    let mut lag_by_window: Vec<(u64, f64)> = Vec::with_capacity(attempted as usize);
    let mut verified_by: HashMap<u64, usize> = HashMap::with_capacity(records.len());
    let mut closed_at = started;
    for (id, student) in students.iter().enumerate() {
        closed_at = closed_at.max(student.closed_at);
        let mut seen = HashSet::with_capacity(student.decoded.len());
        let mut wrong = Vec::new();
        for &(index, digest, at) in &student.decoded {
            match expected.get(&index) {
                Some(record) if record.digest == digest && seen.insert(index) => {
                    *verified_by.entry(index).or_default() += 1;
                    let lag = at.saturating_duration_since(record.due).as_secs_f64() * 1e3;
                    lags_ms.push(lag);
                    lag_by_window.push((index, lag));
                }
                _ => wrong.push(index),
            }
        }
        missing += windows.saturating_sub(seen.len() as u64);
        if let Some(first) = wrong.first() {
            failures.push(format!(
                "student {id}: {} window(s) with a wrong digest or index, first {first}",
                wrong.len()
            ));
        }
        if let Some(e) = &student.error {
            failures.push(format!("student {id}: {e}"));
        }
        match &student.close {
            Some(close)
                if close.windows == windows
                    && close.delivered + close.dropped + close.missed == close.windows
                    && close.delivered == student.decoded.len() as u64 => {}
            other => broken(
                &mut failures,
                format!(
                    "student {id}: close summary {other:?} does not conserve {windows} \
                     window(s), {} decoded",
                    student.decoded.len()
                ),
            ),
        }
    }
    if missing > 0 {
        failures.push(format!("{missing} window x student pair(s) not verified"));
    }
    if let Some(e) = summary.broadcast.conservation_error() {
        broken(&mut failures, format!("hub: {e}"));
    }
    let served_events: u64 = records.iter().map(|r| r.events).sum();
    let served_dropped: u64 = records.iter().map(|r| r.dropped_late).sum();
    let (conserved, input_events) = match &conserves {
        Conserves::Pulled(tally) => {
            let pulled = tally.events.get();
            (pulled == served_events + served_dropped, pulled)
        }
        Conserves::Recorded {
            events,
            dropped_late,
        } => (
            *events == served_events && *dropped_late == served_dropped,
            *events,
        ),
    };
    if !conserved {
        broken(
            &mut failures,
            format!(
                "events not conserved: {input_events} in, {served_events} windowed + \
                 {served_dropped} dropped late"
            ),
        );
    }
    let backlog_growth_ms = stream
        .interval
        .map(|_| backlog_growth(&records, &lag_by_window));
    if let (Some(growth), Some(interval)) = (backlog_growth_ms, stream.interval) {
        let tolerance_ms = ms(interval) * windows as f64 * BACKLOG_TOLERANCE;
        if growth > tolerance_ms {
            broken(
                &mut failures,
                format!(
                    "backlog: lag over the last tenth of windows exceeds the first tenth by \
                     {growth:.3} ms (tolerance {tolerance_ms:.3} ms)"
                ),
            );
        }
    }
    let failed = (missing + laws_broken).min(attempted.max(1));

    let events_decoded = records
        .iter()
        .filter(|r| verified_by.get(&r.index).copied() == Some(shape.students))
        .map(|r| r.events)
        .sum();
    let wall = closed_at - started;
    lags_ms.sort_by(f64::total_cmp);

    let trace = match &registry {
        Some(registry) => {
            let (source_pull, source_events) = match &conserves {
                Conserves::Pulled(tally) => (tally.pull.get(), tally.events.get()),
                Conserves::Recorded { .. } => (Duration::ZERO, 0),
            };
            trace_metrics(&TraceInputs {
                snapshot: registry.snapshot(),
                spans: stream.spans,
                replay: matches!(conserves, Conserves::Recorded { .. }),
                source_pull,
                source_events,
                serve_wall: serve_returned - started,
                serve_cpu: serve_cpu_end.saturating_sub(stream.serve_cpu_start),
                client_cpu: students.iter().map(|s| s.cpu).collect(),
                process_cpu: process_cpu_end.saturating_sub(stream.process_cpu_start),
                lateness_ms: std::mem::take(&mut stream.lateness_ms),
                backlog_growth_ms: backlog_growth_ms.unwrap_or(0.0),
                nnz_per_event: records.iter().map(|r| r.nnz).sum::<u64>() as f64
                    / served_events.max(1) as f64,
            })
        }
        None => Vec::new(),
    };

    Ok(SessionResult {
        setup,
        wall,
        windows,
        students: shape.students,
        events_decoded,
        lags_ms,
        encoded_bytes: summary.encoded_bytes,
        peak_rss_mib,
        steal_ms: ms(steal_end.saturating_sub(steal_start)),
        attempted,
        failed,
        failures,
        trace,
    })
}

/// Median lag over the last tenth of windows minus the median over the
/// first tenth, in ms.
fn backlog_growth(records: &[WindowRecord], lag_by_window: &[(u64, f64)]) -> f64 {
    let tenth = (records.len() / 10).max(1);
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return 0.0;
    };
    let head_end = first.index + tenth as u64;
    let tail_start = (last.index + 1).saturating_sub(tenth as u64);
    let head: Vec<f64> = lag_by_window
        .iter()
        .filter(|(i, _)| *i < head_end)
        .map(|(_, lag)| *lag)
        .collect();
    let tail: Vec<f64> = lag_by_window
        .iter()
        .filter(|(i, _)| *i >= tail_start)
        .map(|(_, lag)| *lag)
        .collect();
    median(&tail) - median(&head)
}

struct TraceInputs {
    snapshot: MetricsSnapshot,
    spans: Spans,
    replay: bool,
    source_pull: Duration,
    source_events: u64,
    serve_wall: Duration,
    serve_cpu: Duration,
    client_cpu: Vec<Duration>,
    process_cpu: Duration,
    lateness_ms: Vec<f64>,
    backlog_growth_ms: f64,
    nnz_per_event: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Serve-thread spans (and its CPU time) also reported as a share of the
/// serve thread's wall, as `<name minus _ms>_share`.
const SHARED: [&str; 14] = [
    "source.pull_ms",
    "pipeline.route_ms",
    "pipeline.route_scan_ms",
    "pipeline.coalesce_ms",
    "pipeline.reorder_release_ms",
    "pipeline.self_ms",
    "replay.next_window_ms",
    "serve.encode_ms",
    "serve.publish_ms",
    "broadcast.fanout_ms",
    "pacer.idle_ms",
    "bench.digest_ms",
    "unattributed_ms",
    "serve_thread.cpu_ms",
];

/// The per-layer numbers of one traced session.
fn trace_metrics(t: &TraceInputs) -> Vec<Metric> {
    let s = &t.snapshot;
    let hist_ms = |name: &str| s.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6);
    let count = |name: &str| s.counter(name) as f64;
    let source_pull_ms = ms(t.source_pull);
    let inner_ms = ms(t.spans.inner);
    let (pipeline_self_ms, replay_ms) = if t.replay {
        (0.0, inner_ms)
    } else {
        (inner_ms - source_pull_ms, 0.0)
    };
    let publish_ms = ms(t.spans.publish);
    let idle_ms = ms(t.spans.idle);
    let digest_ms = ms(t.spans.digest);
    let wall_ms = ms(t.serve_wall);
    let unattributed_ms = wall_ms
        - (source_pull_ms + pipeline_self_ms + replay_ms + publish_ms + idle_ms + digest_ms);
    let stage_ms = hist_ms("pipeline.route_scan_ns")
        + hist_ms("pipeline.route_ns")
        + hist_ms("pipeline.coalesce_ns")
        + hist_ms("pipeline.reorder_release_ns");
    let client_cpu_ms = t.client_cpu.iter().map(|d| ms(*d)).sum::<f64>();
    let mut lateness = t.lateness_ms.clone();
    lateness.sort_by(f64::total_cmp);

    let mut out = vec![
        Metric::new("source.pull_ms", source_pull_ms, "ms"),
        Metric::new("source.events", t.source_events as f64, "count"),
        Metric::new("pipeline.route_ms", hist_ms("pipeline.route_ns"), "ms"),
        Metric::new(
            "pipeline.route_scan_ms",
            hist_ms("pipeline.route_scan_ns"),
            "ms",
        ),
        Metric::new(
            "pipeline.coalesce_ms",
            hist_ms("pipeline.coalesce_ns"),
            "ms",
        ),
        Metric::new("pipeline.nnz_per_event", t.nnz_per_event, "ratio"),
        Metric::new(
            "pipeline.reorder_release_ms",
            hist_ms("pipeline.reorder_release_ns"),
            "ms",
        ),
        Metric::new(
            "pipeline.coalesce_bucket",
            count("pipeline.coalesce_bucket"),
            "count",
        ),
        Metric::new(
            "pipeline.coalesce_sort",
            count("pipeline.coalesce_sort"),
            "count",
        ),
        Metric::new(
            "pipeline.scratch_reuse_hits",
            count("pipeline.scratch_reuse_hits"),
            "count",
        ),
        Metric::new("pipeline.reordered", count("pipeline.reordered"), "count"),
        Metric::new(
            "pipeline.dropped_late",
            count("pipeline.dropped_late"),
            "count",
        ),
        Metric::new("pipeline.self_ms", pipeline_self_ms, "ms"),
        Metric::new("pipeline.windows", count("pipeline.windows"), "count"),
        Metric::new("serve.encode_ms", hist_ms("serve.encode_ns"), "ms"),
        Metric::new("codec.keyframes", count("codec.keyframes"), "count"),
        Metric::new("codec.delta_windows", count("codec.delta_windows"), "count"),
        Metric::new("codec.bytes_saved", count("codec.bytes_saved"), "bytes"),
        Metric::new("replay.next_window_ms", replay_ms, "ms"),
        Metric::new("serve.publish_ms", publish_ms, "ms"),
        Metric::new(
            "serve.frame_write_ms",
            hist_ms("serve.frame_write_ns"),
            "ms",
        ),
        Metric::new("serve_thread.cpu_ms", ms(t.serve_cpu), "ms"),
        Metric::new("serve_thread.wall_ms", wall_ms, "ms"),
        Metric::new("broadcast.fanout_ms", hist_ms("broadcast.fanout_ns"), "ms"),
        Metric::new(
            "broadcast.queue_depth_max",
            s.histogram("broadcast.queue_depth")
                .map_or(0.0, |h| h.max as f64),
            "count",
        ),
        Metric::new(
            "client.cpu_ms",
            client_cpu_ms / t.client_cpu.len().max(1) as f64,
            "ms",
        ),
        Metric::new(
            "codec.decode_reuse_hits",
            count("codec.decode_reuse_hits"),
            "count",
        ),
        Metric::new("pacer.late_p99_ms", quantile_sorted(&lateness, 0.99), "ms"),
        Metric::new("pacer.idle_ms", idle_ms, "ms"),
        Metric::new("pacer.backlog_growth_ms", t.backlog_growth_ms, "ms"),
        Metric::new("bench.digest_ms", digest_ms, "ms"),
        Metric::new("process.cpu_ms", ms(t.process_cpu), "ms"),
        Metric::new(
            "process.other_threads_cpu_ms",
            ms(t.process_cpu) - ms(t.serve_cpu) - client_cpu_ms,
            "ms",
        ),
        Metric::new("unattributed_ms", unattributed_ms, "ms"),
        Metric::new(
            "reconcile.source_pull_gap_ms",
            source_pull_ms - hist_ms("pipeline.source_pull_ns"),
            "ms",
        ),
        Metric::new(
            "reconcile.pipeline_gap_ms",
            pipeline_self_ms - stage_ms,
            "ms",
        ),
        Metric::new(
            "reconcile.publish_gap_ms",
            publish_ms - hist_ms("serve.encode_ns") - hist_ms("broadcast.fanout_ns"),
            "ms",
        ),
    ];
    let shares: Vec<Metric> = out
        .iter()
        .filter(|m| SHARED.contains(&m.name.as_str()))
        .map(|m| {
            let base = m.name.trim_end_matches("_ms");
            Metric::new(
                format!("{base}_share"),
                m.value / wall_ms.max(1e-9),
                "ratio",
            )
        })
        .collect();
    out.extend(shares);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_survives_the_trip_from_child_to_parent() {
        let result = SessionResult {
            setup: Duration::from_nanos(1_234_567),
            wall: Duration::from_nanos(2_000_000_001),
            windows: 3,
            students: 2,
            events_decoded: 60_001,
            lags_ms: vec![0.25, 0.5000001, 12.75],
            encoded_bytes: 5_248,
            peak_rss_mib: 9.953125,
            steal_ms: 20.0,
            attempted: 6,
            failed: 1,
            failures: vec!["student 1: decode: connection reset".to_string()],
            trace: vec![Metric::new("serve.encode_ms", 42.5, "ms")],
        };
        assert_eq!(SessionResult::decode(&result.encode()), Ok(result));
        assert!(SessionResult::decode("").is_err());
        assert!(SessionResult::decode("windows three").is_err());
    }
}
