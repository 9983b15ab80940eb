//! CLI smoke tests: the educator-facing commands run end to end and produce
//! non-empty output, both through the library entry points and through the
//! compiled `traffic-warehouse` binary.

use std::process::Command as Process;
use tw_cli::{parse_args, run, usage, AnalyzeArgs, Command};

fn run_args(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let command = parse_args(&args).expect("arguments parse");
    run(&command).expect("command runs")
}

#[test]
fn curriculum_prints_units_with_prerequisites() {
    let output = run_args(&["curriculum"]);
    assert!(!output.trim().is_empty());
    assert!(output.contains("curriculum"), "header missing: {output}");
    assert!(
        output.contains("requires"),
        "prerequisite column missing: {output}"
    );
}

#[test]
fn figures_prints_the_pattern_gallery() {
    let output = run_args(&["figures"]);
    assert!(!output.trim().is_empty());
    assert!(output.contains("Figure"), "figure headers missing");
    // Every gallery row renders an actual matrix, so some traffic must show.
    assert!(
        output.lines().count() > 20,
        "gallery suspiciously short: {output}"
    );
}

#[test]
fn help_shows_usage_and_bad_args_error() {
    let output = run(&Command::Help).expect("help runs");
    assert_eq!(output, usage());
    let bogus = vec!["no-such-command".to_string()];
    assert!(parse_args(&bogus).is_err());
    // No arguments means "show help", matching the binary's behavior.
    assert_eq!(parse_args(&[]).unwrap(), Command::Help);
}

/// assert_cmd-style check against the real binary, via the path cargo bakes
/// into integration tests.
#[test]
fn compiled_binary_runs_curriculum_and_figures() {
    for subcommand in ["curriculum", "figures"] {
        let output = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
            .arg(subcommand)
            .output()
            .expect("binary spawns");
        assert!(output.status.success(), "{subcommand} exited nonzero");
        assert!(!output.stdout.is_empty(), "{subcommand} printed nothing");
    }
}

/// The acceptance flow from the paper's classroom workflow: record a DDoS
/// scenario once, then replay it without regenerating events.
#[test]
fn compiled_binary_records_and_replays_a_scenario() {
    let dir = std::env::temp_dir().join(format!("tw-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let zip = dir.join("out.zip");
    let zip_arg = zip.to_string_lossy().into_owned();

    let record = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args([
            "ingest",
            "--scenario",
            "ddos",
            "--windows",
            "8",
            "--record",
            &zip_arg,
        ])
        .output()
        .expect("binary spawns");
    assert!(record.status.success(), "ingest --record exited nonzero");
    let record_out = String::from_utf8_lossy(&record.stdout);
    assert!(record_out.contains("recorded 8 window(s)"), "{record_out}");
    assert!(zip.exists(), "recording was not written");

    let replay = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args(["replay", &zip_arg])
        .output()
        .expect("binary spawns");
    assert!(replay.status.success(), "replay exited nonzero");
    let replay_out = String::from_utf8_lossy(&replay.stdout);
    assert!(replay_out.contains("replayed 8 window(s)"), "{replay_out}");

    // The replayed window statistics match the recorded ones line for line.
    let windows = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("window "))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(windows(&record_out), windows(&replay_out));
    std::fs::remove_dir_all(&dir).ok();
}

/// The classroom acceptance flow: one scenario broadcast once to a full
/// class of 30 student sessions, live and from a recording.
#[test]
fn compiled_binary_serves_a_classroom() {
    let dir = std::env::temp_dir().join(format!("tw-cli-classroom-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Live: the ISSUE's acceptance command, shrunk to 4 windows for CI.
    let live = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args([
            "classroom",
            "--scenario",
            "ddos",
            "--students",
            "30",
            "--windows",
            "4",
            "--nodes",
            "128",
        ])
        .output()
        .expect("binary spawns");
    assert!(live.status.success(), "classroom exited nonzero");
    let live_out = String::from_utf8_lossy(&live.stdout);
    assert!(live_out.contains("30 student(s)"), "{live_out}");
    assert_eq!(
        live_out.lines().filter(|l| l.contains("student ")).count(),
        30,
        "{live_out}"
    );
    assert!(
        live_out.contains("4 window(s) served once to 30 subscriber(s)"),
        "{live_out}"
    );

    // Replay: record once, then broadcast the file.
    let zip = dir.join("class.zip");
    let zip_arg = zip.to_string_lossy().into_owned();
    let record = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args([
            "ingest",
            "--scenario",
            "ddos",
            "--windows",
            "4",
            "--nodes",
            "128",
            "--record",
            &zip_arg,
        ])
        .output()
        .expect("binary spawns");
    assert!(record.status.success(), "ingest --record exited nonzero");
    let replayed = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args(["classroom", "--replay", &zip_arg, "--students", "6"])
        .output()
        .expect("binary spawns");
    assert!(
        replayed.status.success(),
        "classroom --replay exited nonzero"
    );
    let replay_out = String::from_utf8_lossy(&replayed.stdout);
    assert!(replay_out.contains("replayed from"), "{replay_out}");
    assert!(
        replay_out.contains("4 window(s) served once to 6 subscriber(s)"),
        "{replay_out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The campus acceptance flow: record a capture once, serve it on an
/// ephemeral loopback port, and point 30 `connect` students at it — every
/// student follows the stream to the close frame, and the server prints
/// per-student accounting.
#[test]
fn compiled_binary_serves_a_campus_over_tcp() {
    use std::io::{BufRead, BufReader, Read};

    let dir = std::env::temp_dir().join(format!("tw-cli-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let zip = dir.join("campus.zip");
    let zip_arg = zip.to_string_lossy().into_owned();
    let record = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args([
            "ingest",
            "--scenario",
            "ddos",
            "--windows",
            "4",
            "--nodes",
            "128",
            "--record",
            &zip_arg,
        ])
        .output()
        .expect("binary spawns");
    assert!(record.status.success(), "ingest --record exited nonzero");

    let students = 30;
    let mut server = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--replay",
            &zip_arg,
            "--students",
            &students.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    // The listening line streams eagerly, before the serve blocks on the
    // roster gate; the ephemeral port rides on it.
    let mut server_stdout = BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    server_stdout
        .read_line(&mut banner)
        .expect("server prints its banner");
    assert!(banner.starts_with("listening on "), "{banner}");
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| {
            rest.split(':').next().map(|host| {
                let port = rest
                    .split(':')
                    .nth(1)
                    .and_then(|p| p.split_whitespace().next())
                    .expect("port in banner");
                format!("{host}:{port}")
            })
        })
        .expect("address in banner");

    let clients: Vec<_> = (0..students)
        .map(|_| {
            Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
                .args(["connect", &addr])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("client spawns")
        })
        .collect();
    for client in clients {
        let output = client.wait_with_output().expect("client runs");
        assert!(output.status.success(), "connect exited nonzero");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("connected to"), "{stdout}");
        assert_eq!(
            stdout.lines().filter(|l| l.starts_with("window ")).count(),
            4,
            "{stdout}"
        );
        assert!(
            stdout.contains("server closed: 4 window(s) broadcast"),
            "{stdout}"
        );
    }

    let mut rest = String::new();
    server_stdout
        .read_to_string(&mut rest)
        .expect("server accounting");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "serve exited nonzero");
    assert_eq!(
        rest.lines().filter(|l| l.contains("student ")).count(),
        students,
        "{rest}"
    );
    assert!(rest.contains("served 4 window(s)"), "{rest}");
    assert!(
        rest.contains(&format!("to {students} connection(s)")),
        "{rest}"
    );
    assert!(!rest.contains("WARNING"), "{rest}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The observability acceptance flow: serve with a metrics file and a wire
/// stats cadence, point a `connect --stats` student at it, and check the
/// exported snapshot parses and conserves — every window the server encoded
/// is delivered, dropped, or missed for the peer.
#[test]
fn compiled_binary_exports_conserving_metrics_over_loopback() {
    use std::io::{BufRead, BufReader, Read};

    let dir = std::env::temp_dir().join(format!("tw-cli-metrics-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics_path = dir.join("serve-metrics.json");

    let mut server = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--scenario",
            "ddos",
            "--nodes",
            "128",
            "--windows",
            "4",
            "--students",
            "1",
            "--stats-every",
            "2",
            "--metrics-json",
            &metrics_path.to_string_lossy(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut server_stdout = BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    server_stdout
        .read_line(&mut banner)
        .expect("server prints its banner");
    assert!(banner.starts_with("listening on "), "{banner}");
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address in banner")
        .trim_end_matches(':')
        .to_string();

    let client = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args(["connect", &addr, "--stats"])
        .output()
        .expect("client runs");
    assert!(client.status.success(), "connect --stats exited nonzero");
    let client_out = String::from_utf8_lossy(&client.stdout);
    assert!(
        client_out.lines().any(|l| l.starts_with("stats: ")),
        "no wire stats arrived: {client_out}"
    );
    assert!(
        client_out.contains("serve.windows_encoded=4"),
        "final wire snapshot missing the encode count: {client_out}"
    );

    let mut rest = String::new();
    server_stdout
        .read_to_string(&mut rest)
        .expect("server accounting");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "serve exited nonzero");
    assert!(rest.contains("metrics: "), "{rest}");

    // The exported snapshot parses and conserves: windows encoded equals
    // delivered + dropped + missed for the (only) peer.
    let text = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let value = tw_core::json::parse(&text).expect("metrics file parses");
    let snapshot = tw_core::metrics::MetricsSnapshot::from_json(&value).expect("snapshot decodes");
    let encoded = snapshot.counter("serve.windows_encoded");
    assert_eq!(encoded, 4, "{snapshot:?}");
    assert_eq!(
        snapshot.counter("serve.peer.0.delivered")
            + snapshot.counter("serve.peer.0.dropped")
            + snapshot.counter("serve.peer.0.missed"),
        encoded,
        "conservation must hold in the exported snapshot: {snapshot:?}"
    );
    assert_eq!(snapshot.counter("pipeline.windows"), encoded);
    assert_eq!(snapshot.counter("broadcast.windows"), encoded);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `ingest --json` transcript is machine-readable: one object per line.
#[test]
fn compiled_binary_emits_jsonl_ingest_transcripts() {
    let output = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args([
            "ingest",
            "--scenario",
            "scan",
            "--windows",
            "3",
            "--nodes",
            "128",
            "--json",
        ])
        .output()
        .expect("binary spawns");
    assert!(output.status.success(), "ingest --json exited nonzero");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 3, "pure JSONL expected: {stdout}");
    for line in lines {
        let value = tw_core::json::parse(line).expect("line parses");
        let object = value.as_object().expect("line is an object");
        assert!(object.get("events").is_some(), "{line}");
        assert!(object.get("window").is_some(), "{line}");
    }
}

/// The out-of-order acceptance flow: a skewed DDoS stream whose horizon
/// covers the disorder bound ingests with zero late drops.
#[test]
fn compiled_binary_ingests_a_skewed_scenario_losslessly() {
    let output = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args([
            "ingest",
            "--scenario",
            "ddos",
            "--skew-us",
            "5000",
            "--horizon-us",
            "20000",
            "--windows",
            "4",
            "--nodes",
            "256",
        ])
        .output()
        .expect("binary spawns");
    assert!(output.status.success(), "skewed ingest exited nonzero");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("reorder horizon 20000 us"),
        "horizon line missing: {stdout}"
    );
    assert!(
        stdout.contains(" 0 late"),
        "a covered horizon must lose nothing: {stdout}"
    );
    assert!(
        !stdout.contains(" 0 reordered,"),
        "a skewed stream should exercise the buffer: {stdout}"
    );
}

#[test]
fn compiled_binary_lists_scenarios() {
    let output = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .arg("scenarios")
        .output()
        .expect("binary spawns");
    assert!(output.status.success(), "scenarios exited nonzero");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in ["background", "ddos", "scan", "flash-crowd", "p2p", "mixed"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn compiled_binary_reports_errors_on_stderr() {
    let output = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .arg("no-such-command")
        .output()
        .expect("binary spawns");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error"), "stderr was: {stderr}");
    assert!(stderr.contains("Commands"), "usage missing from: {stderr}");
}

#[test]
fn analyze_args_parse() {
    let args: Vec<String> = ["analyze", "--deny-warnings", "--rule", "no-panic-in-lib"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(
        parse_args(&args).unwrap(),
        Command::Analyze(AnalyzeArgs {
            root: None,
            rule: Some("no-panic-in-lib".to_string()),
            json: None,
            deny_warnings: true,
            list_waivers: false,
        })
    );
    let bad: Vec<String> = ["analyze", "--rule"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(
        parse_args(&bad).is_err(),
        "--rule without a value must fail"
    );
    let bogus: Vec<String> = ["analyze", "--fast"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(
        parse_args(&bogus).is_err(),
        "unknown analyze flag must fail"
    );
}

#[test]
fn compiled_binary_analyze_is_clean_under_deny_warnings() {
    // The workspace's own source is the fixture: the analysis pass must pass
    // on it, or CI (which runs this same invocation) would be red.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let output = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args(["analyze", "--root", root, "--deny-warnings"])
        .output()
        .expect("binary spawns");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "analyze --deny-warnings failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("0 unwaived"), "summary missing: {stdout}");
    for rule in [
        "no-panic-in-lib",
        "hot-path-no-alloc",
        "metric-name-registry",
        "frame-kind-coverage",
        "lock-across-channel",
    ] {
        assert!(stdout.contains(rule), "rule {rule} missing from: {stdout}");
    }
}

#[test]
fn compiled_binary_keeps_usage_out_of_runtime_errors() {
    // Parse errors get the usage text (checked above); runtime failures must
    // not bury the actual error under it.
    let output = Process::new(env!("CARGO_BIN_EXE_traffic-warehouse"))
        .args(["validate", "/no/such/module.json"])
        .output()
        .expect("binary spawns");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error"), "stderr was: {stderr}");
    assert!(
        !stderr.contains("Commands"),
        "usage text leaked into a runtime error: {stderr}"
    );
}
