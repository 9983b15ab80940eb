//! `tw-e2ebench`: run one workload of the end-to-end classroom benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <pregen-skewed|replay-paced> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The run repeats sessions (setup + timed serve, each on inputs derived
//! from `--seed` and the session number) until `--seconds` have passed and
//! at least three sessions are done. Progress goes to stderr; the last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! alternates untraced and traced sessions and reports the per-layer
//! metrics of the traced ones plus `trace_overhead`. The exit code is 0 only
//! when every session passed its correctness gate.
//!
//! Each session runs in a child process of its own (the same binary with
//! `--session 1`), so no session inherits another's heap: setup time and
//! peak RSS start from the same clean process every time.
//!
//! Every session also reads how much CPU time the hypervisor stole from the
//! machine while it ran (`/proc/stat`). On a shared host that steal comes
//! in bursts of seconds and slows whichever session it lands on, so the
//! metrics are medians over the calmer half of the sessions: those with
//! the least steal per second, a measure taken outside the program.

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tw_e2ebench::digest::splitmix64;
use tw_e2ebench::session::{run_session, Metric, SessionOptions, SessionResult};
use tw_e2ebench::stats::{median, quantile_sorted, samples_beyond};
use tw_e2ebench::workload::Workload;

/// Sessions per run (per kind, in a traced run) before the time budget may
/// end it.
const MIN_SESSIONS: usize = 3;
/// Hard cap on sessions per run.
const MAX_SESSIONS: usize = 400;

const USAGE: &str = "usage: tw-e2ebench --workload <pregen-skewed|replay-paced> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: run one session on exactly `seed` and print its result.
    session: bool,
}

fn flag01(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, not {value}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut session = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(flag01(&flag, &value)?),
            "--session" => session = flag01(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        session,
    })
}

/// Child mode: one session, its encoded result on stdout.
fn run_child(args: &Args, nproc: usize) -> ExitCode {
    let options = SessionOptions {
        traced: args.trace,
        ..SessionOptions::default()
    };
    match run_session(&args.workload.shape(nproc), args.seed, &options) {
        Ok(result) => {
            println!("{}", result.encode());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tw-e2ebench: session aborted: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one session in a child process and wait for it.
fn spawn_session(workload: Workload, seed: u64, traced: bool) -> Result<SessionResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if traced { "1" } else { "0" }])
        .args(["--session", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("session process exited with {}", output.status));
    }
    SessionResult::decode(&String::from_utf8_lossy(&output.stdout))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tw-e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.session {
        return run_child(&args, nproc);
    }
    let shape = args.workload.shape(nproc);
    eprintln!(
        "tw-e2ebench: {} seed {} for {} s (trace {}), nproc {nproc}: {shape:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let budget = Duration::from_secs(args.seconds);
    let run_started = Instant::now();
    let (mut warmup, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    for step in 0..=MAX_SESSIONS {
        // Step 0 is a warm-up on session 0's input: it settles the machine
        // (page pools, caches, clocks) and counts for correctness only.
        let warming = step == 0;
        let session = step.saturating_sub(1);
        let is_traced = args.trace && !warming && session % 2 == 1;
        // A traced run pairs each traced session with an untraced one on the
        // same input, so `trace_overhead` compares like with like.
        let input = if args.trace { session / 2 } else { session };
        let seed = splitmix64(args.seed ^ splitmix64(input as u64));
        let result = match spawn_session(args.workload, seed, is_traced) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("tw-e2ebench: session {session} aborted: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "  {} {session}{}: setup {:.4} s, {} window(s) x {} student(s) in {:.3} s, \
             {:.0} events/s, lag p50 {:.3} p95 {:.3} p99 {:.3} ms, peak RSS {:.1} MiB, \
             host steal {:.0} ms, failed {}/{}",
            if warming { "warm-up" } else { "session" },
            if is_traced { " (traced)" } else { "" },
            result.setup.as_secs_f64(),
            result.windows,
            result.students,
            result.wall.as_secs_f64(),
            result.events_per_s(),
            result.lag_quantile(0.50),
            result.lag_quantile(0.95),
            result.lag_quantile(0.99),
            result.peak_rss_mib,
            result.steal_ms,
            result.failed,
            result.attempted,
        );
        for failure in &result.failures {
            eprintln!("    FAIL: {failure}");
        }
        match (warming, is_traced) {
            (true, _) => warmup.push(result),
            (false, true) => traced.push(result),
            (false, false) => plain.push(result),
        }
        let enough = plain.len() >= MIN_SESSIONS && (!args.trace || traced.len() >= MIN_SESSIONS);
        if enough && run_started.elapsed() >= budget {
            break;
        }
    }

    let sessions = || warmup.iter().chain(&plain).chain(&traced);
    let attempted: u64 = sessions().map(|s| s.attempted).sum();
    let failed: u64 = sessions().map(|s| s.failed).sum();
    eprintln!(
        "tw-e2ebench: failed_frac {} ({failed} of {attempted} window x student pairs)",
        failed as f64 / attempted.max(1) as f64
    );
    let (plain, traced) = (calmer_half(plain), calmer_half(traced));
    let metrics = if args.trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain)
    };
    for m in &metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The half of `sessions` (rounded up) with the least host steal per second.
fn calmer_half(mut sessions: Vec<SessionResult>) -> Vec<SessionResult> {
    sessions.sort_by(|a, b| a.steal_rate().total_cmp(&b.steal_rate()));
    sessions.truncate(sessions.len().div_ceil(2));
    sessions
}

/// Median over `sessions` of one per-session value.
fn median_of(sessions: &[SessionResult], f: impl Fn(&SessionResult) -> f64) -> f64 {
    median(&sessions.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics over the untraced sessions: the median across
/// sessions of each per-session value (lag percentiles included).
fn end_to_end(sessions: &[SessionResult]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&SessionResult) -> f64| median_of(sessions, f);
    let samples = sessions.iter().map(|s| s.lags_ms.len()).min().unwrap_or(0);
    eprintln!(
        "tw-e2ebench: {} calmer session(s), median host steal {:.1} ms/s; each has at least \
         {samples} lag sample(s)",
        sessions.len(),
        median_of(sessions, SessionResult::steal_rate),
    );
    vec![
        Metric::new("setup_s", per(&|s| s.setup.as_secs_f64()), "s"),
        Metric::new(
            "events_per_s",
            per(&SessionResult::events_per_s),
            "events/s",
        ),
        Metric::new("lag_p50_ms", per(&|s| s.lag_quantile(0.50)), "ms"),
        Metric::new(
            "wire_bytes_per_window",
            per(&|s| s.encoded_bytes as f64 / s.windows.max(1) as f64),
            "bytes",
        ),
        Metric::new("peak_rss_mb", per(&|s| s.peak_rss_mib), "MiB"),
    ]
}

/// The per-layer metrics: per-session medians over the traced sessions,
/// plus the traced-to-untraced throughput ratio, the untraced sessions'
/// tail lag and the host's steal rate.
fn per_layer(plain: &[SessionResult], traced: &[SessionResult]) -> Vec<Metric> {
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    let mut out: Vec<Metric> = first
        .trace
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = traced.iter().map(|s| s.trace[i].value).collect();
            Metric::new(m.name.clone(), median(&values), &m.unit)
        })
        .collect();
    out.push(Metric::new(
        "trace_overhead",
        median_of(traced, SessionResult::events_per_s)
            / median_of(plain, SessionResult::events_per_s).max(1e-9),
        "ratio",
    ));
    // The tails pool every lag sample of the untraced sessions: one
    // session alone may hold fewer than ten samples beyond its p99.
    let mut lags: Vec<f64> = plain
        .iter()
        .flat_map(|s| s.lags_ms.iter().copied())
        .collect();
    lags.sort_by(f64::total_cmp);
    eprintln!(
        "tw-e2ebench: {} pooled lag sample(s), {} beyond p99",
        lags.len(),
        samples_beyond(lags.len(), 0.99)
    );
    for (name, q) in [("lag_p95_ms", 0.95), ("lag_p99_ms", 0.99)] {
        out.push(Metric::new(name, quantile_sorted(&lags, q), "ms"));
    }
    out.push(Metric::new(
        "host.steal_rate",
        median_of(traced, SessionResult::steal_rate),
        "ms/s",
    ));
    out
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
