//! # tw-cli
//!
//! The `traffic-warehouse` command-line tool: the headless delivery vehicle
//! for the game. Educators use it to validate and preview module files and to
//! export the built-in library; students (or scripts) can play a bundle from
//! the terminal, and a class can stream, record, replay and serve traffic
//! scenarios.
//!
//! Every subcommand and flag is one entry in a declarative table that drives
//! parsing, the argument errors and the usage text. Run
//! `traffic-warehouse help` for the full list.

use std::fmt::Write as _;
use std::io::Write as _;
use tw_core::game::{
    BroadcastSummary, GameSession, TelemetryEvent, TelemetryHub, ViewState, WarehouseScene,
};
use tw_core::ingest::{Pipeline, PipelineConfig, Scenario, WindowStream, MAX_DIMENSION};
use tw_core::metrics::{MetricsRegistry, MetricsSnapshot};
use tw_core::module::{
    default_curriculum, from_json_maybe_obfuscated, to_obfuscated_json, validate,
};
use tw_core::patterns::{patterns_for_figure, Figure};
use tw_core::prelude::*;

/// A parsed command line: one variant per subcommand, carrying its arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Validate the module JSON file at this path.
    Validate(String),
    /// Render a module to ASCII (and optionally a PPM file).
    Render(RenderArgs),
    /// Auto-play a bundle and print the transcript.
    Play(PlayArgs),
    /// Write the initial library's ZIP bundles into this directory.
    ExportLibrary(String),
    /// Re-emit the module at this path with its correct answer obfuscated.
    Obfuscate(String),
    /// Run a named ingest scenario and print per-window statistics,
    /// optionally recording the window stream to a replayable ZIP.
    Ingest(IngestArgs),
    /// Replay a recorded window stream into the live warehouse view.
    Replay(ReplayArgs),
    /// Serve one scenario (live or replayed) to remote `connect` clients
    /// over TCP, framing the v2 window codec.
    Serve(ServeArgs),
    /// Join a `serve` session and follow its window stream.
    Connect(ConnectArgs),
    /// Serve one scenario (live or replayed) to a classroom of student
    /// sessions over the broadcast hub.
    Classroom(ClassroomArgs),
    /// Run the workspace static-analysis pass (tw-analyze).
    Analyze(AnalyzeArgs),
    /// List the ingest scenario catalog.
    Scenarios,
    /// Print the default curriculum with prerequisites.
    Curriculum,
    /// Print the figure gallery.
    Figures,
    /// Print usage.
    Help,
}

/// An error produced while parsing arguments or running a command.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// One command-line flag: the only place its spelling, value, default,
/// lower bound and help text are written.
struct Flag {
    /// Spellings with their dashes, `|`-separated (`--three-d|--3d`).
    name: &'static str,
    /// Value placeholder: `N` for a number, empty for a switch.
    value: &'static str,
    /// The value an absent flag takes; empty for none.
    default: &'static str,
    /// The least number the command line may give (0 = any).
    min: u64,
    help: &'static str,
}

const fn num(name: &'static str, default: &'static str, min: u64) -> Flag {
    Flag {
        name,
        value: "N",
        default,
        min,
        help: "",
    }
}

const fn text(name: &'static str, value: &'static str) -> Flag {
    Flag {
        value,
        ..num(name, "", 0)
    }
}

impl Flag {
    const fn help(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }
}

/// The live source ([`LiveArgs`]) that `ingest`, `classroom` and `serve`
/// share; `--nodes` is listed per command because its default differs.
const LIVE: Group = &[
    text("--scenario", "NAME").help("scenario to stream (list them with `scenarios`)"),
    num("--seed", "7", 0).help("scenario seed"),
    num("--shards", "0", 0).help("shard count, at most --nodes (0 = auto)"),
    num("--route-threads", "0", 0)
        .help("routing workers per batch, 0 = per hardware thread; fans out from 131072 events"),
    num("--window-us", "100000", 0).help("tumbling-window length in simulated us"),
    num("--skew-us", "0", 0).help("drift per-source clocks by up to N us (out-of-order stream)"),
    num("--horizon-us", "0", 0).help("watermark reordering horizon that absorbs the skew"),
];

/// The rest of the source for `classroom` and `serve`.
const CLASS: Group = &[
    num("--nodes", "256", 0).help("address-space size of a live scenario"),
    text("--replay", "FILE").help("stream a recording instead of --scenario"),
];

const SPEED: Flag =
    num("--speed", "", 1).help("pace at N x real time (default: as fast as possible)");

/// How much of the stream to serve, and how fast.
const PACING: Group = &[
    num("--windows", "", 1).help("windows to serve (default: 8 live, the whole recording)"),
    SPEED,
];

/// The metrics export that `ingest`, `classroom` and `serve` share.
const METRICS: Group = &[
    text("--metrics-json", "FILE").help("write the final metrics snapshot here"),
    num("--stats-every", "0", 0).help(
        "print a one-line metrics summary every N windows (serve also sends it to every client)",
    ),
];

const INGEST: Group = &[
    num("--nodes", "1024", 0).help("address-space size"),
    num("--windows", "4", 1).help("windows to emit"),
    num("--batch", "8192", 0).help("events per batch (the backpressure bound)"),
    text("--record", "FILE").help("also capture the window stream as a replayable ZIP"),
    num("--keyframe-every", "0", 0)
        .help("with --record: every N-th window in full, the rest as v3 deltas where smaller"),
    text("--json", "").help("one tw-json object per window instead of the transcript"),
];

const CLASSROOM: Group = &[
    num("--students", "8", 1).help("student sessions"),
    num("--late", "", 0)
        .help("students who join mid-scenario and catch up from the ring (default: one in five)"),
];

const SERVE: Group = &[
    text("--listen", "ADDR").help("address to listen on (required; port 0 picks a free port)"),
    num("--students", "0", 0).help("hold the first window until N clients have joined"),
    num("--keyframe-every", "0", 0)
        .help("every N-th window in full, the rest as v3 delta frames where smaller"),
];

const RENDER: Group = &[
    text("--three-d|--3d", "").help("render the 3-D warehouse view"),
    text("--colors", "").help("tint cells with the module's color plane"),
    text("--out", "FILE").help("also write the frame as a PPM image"),
];

const PLAY: Group = &[num("--seed", "0", 0).help("session seed")];

const CONNECT: Group = &[
    num("--windows", "", 1).help("leave after N windows"),
    text("--stats", "").help("print the server's Stats frames (it must serve with --stats-every)"),
];

const ANALYZE: Group = &[
    text("--root", "DIR").help("workspace root (default: the nearest analyze.toml)"),
    text("--rule", "NAME").help("run one rule"),
    text("--json", "FILE").help("also write the machine-readable report"),
    text("--deny-warnings", "").help("fail when any unwaived finding remains"),
    text("--list-waivers", "").help("print every active inline waiver and its justification"),
];

/// Flags that go together, listed once and shared by several commands.
type Group = &'static [Flag];

/// One subcommand: its spellings, operand, flag groups and summary.
struct Spec {
    name: &'static str,
    /// Placeholder of the one positional argument; empty for none.
    operand: &'static str,
    groups: &'static [Group],
    about: &'static str,
}

const fn cmd(name: &'static str, operand: &'static str, groups: &'static [Group]) -> Spec {
    Spec {
        name,
        operand,
        groups,
        about: "",
    }
}

impl Spec {
    const fn about(self, about: &'static str) -> Spec {
        Spec { about, ..self }
    }

    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    /// This command's block of the usage text.
    fn usage(&self) -> String {
        let head = format!("{} {}", self.name, self.operand);
        let mut out = format!("  {}\n      {}\n", head.trim_end(), self.about);
        for flag in self.flags() {
            let spelling = format!("{} {}", flag.name, flag.value);
            let _ = write!(out, "      {:<22} {}", spelling.trim_end(), flag.help);
            let _ = match flag.default {
                "" => writeln!(out),
                default => writeln!(out, " (default {default})"),
            };
        }
        out
    }
}

/// Every subcommand, in usage order.
const COMMANDS: &[Spec] = &[
    cmd("validate", "<module.json>", &[])
        .about("check a learning module against the authoring guidance"),
    cmd("render", "<module.json>", &[RENDER])
        .about("preview a module (ASCII to stdout, optional PPM)"),
    cmd("play", "<bundle.zip>", &[PLAY])
        .about("auto-play a module bundle and print the transcript"),
    cmd("export-library", "<directory>", &[])
        .about("write the built-in module bundles as .zip files"),
    cmd("obfuscate", "<module.json>", &[]).about("re-emit the module with its answer obfuscated"),
    cmd("ingest", "", &[LIVE, INGEST, METRICS])
        .about("stream a scenario through the sharded ingest pipeline and print per-window stats"),
    cmd("replay", "<file.zip>", &[&[SPEED]])
        .about("re-emit a recorded window stream into the live warehouse view, from disk"),
    cmd("classroom", "", &[LIVE, CLASS, PACING, CLASSROOM, METRICS])
        .about("fan one window stream out to student sessions over the broadcast hub"),
    cmd("serve", "", &[SERVE, LIVE, CLASS, PACING, METRICS])
        .about("serve one window stream to remote `connect` clients over TCP"),
    cmd("connect", "<addr>", &[CONNECT]).about("join a serve session and follow its window stream"),
    cmd("analyze", "", &[ANALYZE]).about("run the workspace static-analysis pass"),
    cmd("scenarios", "", &[]).about("list the ingest scenario catalog"),
    cmd("curriculum", "", &[]).about("print the default hierarchical curriculum"),
    cmd("figures", "", &[]).about("print every figure's traffic pattern"),
    cmd("help|--help|-h", "", &[]).about("show this message"),
];

/// The usage text, generated from the command table.
pub fn usage() -> String {
    let commands: String = COMMANDS.iter().map(Spec::usage).collect();
    format!("traffic-warehouse <command> [flags]\n\nCommands:\n{commands}")
}

/// Whether `arg` is one of the `|`-separated spellings in `names`.
fn spelled(names: &str, arg: &str) -> bool {
    names.split('|').any(|name| name == arg)
}

/// The one rule behind every lower bound on a number.
fn at_least(flag: &str, value: u64, min: u64) -> Result<(), CliError> {
    if value < min {
        return Err(CliError(format!("{flag} must be at least {min}")));
    }
    Ok(())
}

/// The one rule behind every upper bound on a number; `why` names the limit.
fn at_most(flag: &str, value: u64, max: u64, why: &str) -> Result<(), CliError> {
    if value > max {
        return Err(CliError(format!("{flag} must be at most {max}{why}")));
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError(format!("{flag} value {value:?} is not valid")))
}

/// A command line read against its [`Spec`]: the operand and every flag
/// given, each checked for spelling, a present value and numeric bounds.
struct Parsed<'a> {
    spec: &'static Spec,
    operand: String,
    given: Vec<(&'static Flag, &'a str)>,
}

impl<'a> Parsed<'a> {
    fn new(command: &str, args: &'a [String]) -> Result<Self, CliError> {
        let unknown = format!("unknown command {command:?}; run `traffic-warehouse help`");
        let spec = COMMANDS.iter().find(|spec| spelled(spec.name, command));
        let spec = spec.ok_or(CliError(unknown))?;
        let mut args = args.iter();
        let mut operand = String::new();
        if !spec.operand.is_empty() {
            let missing = || CliError(format!("{} needs {}", spec.name, spec.operand));
            operand.clone_from(args.next().ok_or_else(missing)?);
        }
        let mut given = Vec::new();
        while let Some(arg) = args.next() {
            let flag = spec.flags().find(|flag| spelled(flag.name, arg));
            let flag =
                flag.ok_or_else(|| CliError(format!("unknown flag {arg:?} for {}", spec.name)))?;
            let mut value = "";
            if !flag.value.is_empty() {
                let missing = || CliError(format!("{arg} needs a value ({})", flag.value));
                value = args.next().ok_or_else(missing)?;
            }
            if flag.value == "N" {
                at_least(arg, parse(arg, value)?, flag.min)?;
            }
            given.push((flag, value));
        }
        Ok(Parsed {
            spec,
            operand,
            given,
        })
    }

    /// The flag's last given value, else its default.
    fn value(&self, name: &str) -> Option<&str> {
        let flag = self.spec.flags().find(|flag| spelled(flag.name, name))?;
        let given = self.given.iter().rev().find(|(f, _)| f.name == flag.name);
        let default = (!flag.default.is_empty()).then_some(flag.default);
        given.map(|(_, value)| *value).or(default)
    }

    fn switch(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name).map(|value| parse(name, value)).transpose()
    }

    /// A value the command cannot do without: given, or a default.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let missing = || CliError(format!("{} needs {name}", self.spec.name));
        self.opt(name)?.ok_or_else(missing)
    }
}

/// Parse command-line arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some((name, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let p = Parsed::new(name, rest)?;
    let path = p.operand.clone();
    let command = match p.spec.name {
        "validate" => Command::Validate(path),
        "render" => Command::Render(RenderArgs {
            path,
            three_d: p.switch("--three-d"),
            colors: p.switch("--colors"),
            out: p.opt("--out")?,
        }),
        "play" => Command::Play(PlayArgs {
            path,
            seed: p.get("--seed")?,
        }),
        "export-library" => Command::ExportLibrary(path),
        "obfuscate" => Command::Obfuscate(path),
        "ingest" => Command::Ingest(IngestArgs::read(&p)?),
        "replay" => Command::Replay(ReplayArgs {
            path,
            speed: p.opt("--speed")?.unwrap_or(0),
        }),
        "serve" => Command::Serve(ServeArgs::read(&p)?),
        "connect" => Command::Connect(ConnectArgs {
            addr: path,
            windows: p.opt("--windows")?,
            stats: p.switch("--stats"),
        }),
        "classroom" => Command::Classroom(ClassroomArgs::read(&p)?),
        "analyze" => Command::Analyze(AnalyzeArgs {
            root: p.opt("--root")?,
            rule: p.opt("--rule")?,
            json: p.opt("--json")?,
            deny_warnings: p.switch("--deny-warnings"),
            list_waivers: p.switch("--list-waivers"),
        }),
        "scenarios" => Command::Scenarios,
        "curriculum" => Command::Curriculum,
        "figures" => Command::Figures,
        "help|--help|-h" => Command::Help,
        other => unreachable!("{other} is in the command table but has no Command"),
    };
    match &command {
        Command::Ingest(args) => args.validate()?,
        Command::Classroom(args) => args.validate()?,
        Command::Serve(args) => args.validate()?,
        _ => {}
    }
    Ok(command)
}

/// Run a command, returning the text to print.
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(usage()),
        Command::Validate(path) => Ok(render_validation(&load_module(path)?)),
        Command::Render(args) => {
            let (ascii, ppm) = render_module(&load_module(&args.path)?, args.three_d, args.colors);
            if let Some(out_path) = &args.out {
                std::fs::write(out_path, ppm).map_err(|e| CliError(format!("{out_path}: {e}")))?;
            }
            Ok(ascii)
        }
        Command::Play(args) => {
            let path = &args.path;
            let bytes = std::fs::read(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let bundle = tw_core::load_bundle(path, &bytes).map_err(|e| CliError(e.to_string()))?;
            play_bundle(bundle, args.seed)
        }
        Command::ExportLibrary(directory) => {
            std::fs::create_dir_all(directory)
                .map_err(|e| CliError(format!("{directory}: {e}")))?;
            let mut out = String::new();
            for (name, bytes) in tw_core::initial_library_zips() {
                let slug = name
                    .to_ascii_lowercase()
                    .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
                let path = format!("{directory}/{slug}.zip");
                std::fs::write(&path, &bytes).map_err(|e| CliError(format!("{path}: {e}")))?;
                let _ = writeln!(out, "wrote {path} ({} bytes)", bytes.len());
            }
            Ok(out)
        }
        Command::Obfuscate(path) => {
            to_obfuscated_json(&load_module(path)?).map_err(|e| CliError(e.to_string()))
        }
        Command::Ingest(args) => run_ingest(args),
        Command::Replay(args) => run_replay(&args.path, args.speed),
        Command::Serve(args) => run_serve(args),
        Command::Connect(args) => run_connect(&args.addr, args.windows, args.stats),
        Command::Classroom(args) => run_classroom(args),
        Command::Analyze(args) => run_analyze(args),
        Command::Scenarios => Ok(render_scenarios()),
        Command::Curriculum => Ok(render_curriculum()),
        Command::Figures => Ok(render_figures()),
    }
}

/// Read a module JSON file (plain or obfuscated).
fn load_module(path: &str) -> Result<LearningModule, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
    from_json_maybe_obfuscated(&text).map_err(|e| CliError(e.to_string()))
}

/// Arguments for `render`.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderArgs {
    /// Module JSON file.
    pub path: String,
    /// Render the 3-D warehouse view instead of the 2-D grid.
    pub three_d: bool,
    /// Tint cells with the module's color plane.
    pub colors: bool,
    /// Also write the frame as a PPM image here.
    pub out: Option<String>,
}

/// Arguments for `play`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayArgs {
    /// Bundle ZIP file.
    pub path: String,
    /// Session seed.
    pub seed: u64,
}

/// Arguments for `replay` ([`run_replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArgs {
    /// Recording ZIP file.
    pub path: String,
    /// Pace playback at N x real time (0 = as fast as possible).
    pub speed: u64,
}

/// Arguments for `connect` ([`run_connect`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectArgs {
    /// Server address.
    pub addr: String,
    /// Leave after this many windows (default: follow to the close).
    pub windows: Option<usize>,
    /// Print the server's Stats frames as they arrive.
    pub stats: bool,
}

/// Arguments for `analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Workspace root (default: the nearest directory with `analyze.toml`).
    pub root: Option<String>,
    /// Run only this rule.
    pub rule: Option<String>,
    /// Also write the machine-readable report here.
    pub json: Option<String>,
    /// Fail when any unwaived finding remains.
    pub deny_warnings: bool,
    /// Print every active inline waiver instead of the report.
    pub list_waivers: bool,
}

/// Run the workspace static-analysis pass and render its report.
///
/// Without `--root` the workspace is found by walking up from the current
/// directory to the nearest `analyze.toml`. With `--deny-warnings` an
/// unwaived finding is an error (non-zero exit), matching the CI gate.
fn run_analyze(args: &AnalyzeArgs) -> Result<String, CliError> {
    let root = match &args.root {
        Some(dir) => std::path::PathBuf::from(dir),
        None => tw_analyze::find_workspace_root(std::path::Path::new("."))
            .map_err(|e| CliError(e.to_string()))?,
    };
    let options = tw_analyze::Options {
        rule: args.rule.clone(),
    };
    let report = tw_analyze::analyze_with(&root, &options).map_err(|e| CliError(e.to_string()))?;
    if args.list_waivers {
        return Ok(report.render_waivers());
    }
    if let Some(path) = &args.json {
        std::fs::write(path, report.render_json())
            .map_err(|e| CliError(format!("writing {path}: {e}")))?;
    }
    let text = report.render_text();
    if args.deny_warnings && report.unwaived_count() > 0 {
        return Err(CliError(format!(
            "{text}analyze: --deny-warnings with {} unwaived finding(s)",
            report.unwaived_count()
        )));
    }
    Ok(text)
}

/// The flags `ingest`, `classroom` and `serve` share: the source — a
/// scenario generated live or, for `classroom` and `serve`, a recording in
/// its place — and the metrics export.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveArgs {
    /// Scenario name (required unless `replay` is given).
    pub scenario: Option<String>,
    /// Recording to stream instead of generating events live.
    pub replay: Option<String>,
    /// Address-space size of a live scenario.
    pub nodes: u32,
    /// Scenario seed.
    pub seed: u64,
    /// Shard count (0 = auto; at most `nodes`).
    pub shards: usize,
    /// Routing worker threads per batch (0 = one per hardware thread); batches
    /// under `2 * tw_ingest::shard::PAR_GRAIN` events route inline.
    pub route_threads: usize,
    /// Tumbling-window duration in simulated microseconds.
    pub window_us: u64,
    /// Watermark reordering horizon in simulated microseconds (0 = strict).
    pub horizon_us: u64,
    /// Per-source clock skew in simulated microseconds (0 = sorted stream).
    pub skew_us: u64,
    /// Write the final metrics snapshot (pretty tw-json) here.
    pub metrics_json: Option<String>,
    /// Print a one-line metrics summary every N windows (0 = never).
    pub stats_every: u64,
}

impl LiveArgs {
    fn read(p: &Parsed) -> Result<Self, CliError> {
        Ok(LiveArgs {
            scenario: p.opt("--scenario")?,
            replay: p.opt("--replay")?,
            nodes: p.get("--nodes")?,
            seed: p.get("--seed")?,
            shards: p.get("--shards")?,
            route_threads: p.get("--route-threads")?,
            window_us: p.get("--window-us")?,
            horizon_us: p.get("--horizon-us")?,
            skew_us: p.get("--skew-us")?,
            metrics_json: p.opt("--metrics-json")?,
            stats_every: p.get("--stats-every")?,
        })
    }

    /// Exactly one of a scenario and a recording; a live scenario must be
    /// known, and its geometry sane.
    fn validate(&self) -> Result<(), CliError> {
        let error = |message: &str| Err(CliError(message.to_string()));
        match (&self.scenario, &self.replay) {
            (Some(_), Some(_)) => error(
                "--scenario and --replay are mutually exclusive (a recording carries its own scenario)",
            ),
            (None, None) => error(
                "--scenario <name> is required (classroom and serve take --replay <file.zip> instead)",
            ),
            (None, Some(_)) if self.skew_us > 0 || self.horizon_us > 0 => error(
                "--skew-us/--horizon-us shape live ingestion; a recording was already windowed when it was captured",
            ),
            (None, Some(_)) => Ok(()),
            (Some(name), None) => {
                scenario_named(name)?;
                at_least("--nodes", self.nodes.into(), 20)?;
                at_least("--window-us", self.window_us, 1)?;
                let why = " (--nodes: shards partition rows, so extra ones would own none)";
                at_most("--shards", self.shards as u64, self.nodes.into(), why)
            }
        }
    }

    /// One registry for the whole run when any metrics output was asked for.
    fn registry(&self) -> Option<MetricsRegistry> {
        (self.metrics_json.is_some() || self.stats_every > 0).then(MetricsRegistry::new)
    }

    /// The live pipeline these flags describe, instrumented into `metrics`,
    /// with its scenario and the stream's disorder bound in microseconds.
    fn pipeline(
        &self,
        batch_size: usize,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<(Pipeline, Scenario, u64), CliError> {
        let scenario = scenario_named(self.scenario.as_deref().unwrap_or_default())?;
        let config = PipelineConfig {
            window_us: self.window_us,
            batch_size,
            shard_count: self.shards,
            reorder_horizon_us: self.horizon_us,
            route_threads: self.route_threads,
            ..PipelineConfig::default()
        };
        let (source, max_disorder_us) = scenario.skewed_source(self.nodes, self.seed, self.skew_us);
        let mut pipeline = Pipeline::new(source, config);
        if let Some(registry) = metrics {
            pipeline.instrument(registry);
        }
        Ok((pipeline, scenario, max_disorder_us))
    }

    /// The banner's warning when the horizon cannot absorb the disorder.
    fn horizon_warning(&self, max_disorder_us: u64) -> &'static str {
        if max_disorder_us > self.horizon_us {
            " [WARNING: horizon below the disorder bound; late drops expected]"
        } else {
            ""
        }
    }
}

fn scenario_named(name: &str) -> Result<Scenario, CliError> {
    Scenario::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = Scenario::all().iter().map(|s| s.name()).collect();
        let known = known.join(", ");
        CliError(format!(
            "unknown scenario {name:?}; known scenarios: {known}"
        ))
    })
}

/// The largest class `classroom` runs and `serve` waits for.
const MAX_STUDENTS: u64 = 10_000;

/// Recordings and serves codec-encode every window.
fn encodable(nodes: u32) -> Result<(), CliError> {
    let why = ", the window codec's dimension limit (--record and serve encode every window)";
    at_most("--nodes", nodes.into(), MAX_DIMENSION as u64, why)
}

/// Arguments for [`run_ingest`] (one scenario streamed through the pipeline).
#[derive(Debug, Clone, PartialEq)]
pub struct IngestArgs {
    /// The scenario, its geometry and the metrics export (`replay` stays
    /// `None`: ingest generates its stream).
    pub live: LiveArgs,
    /// Windows to emit.
    pub windows: usize,
    /// Batch size (the backpressure bound).
    pub batch: usize,
    /// Record the window stream to a replayable ZIP at this path.
    pub record: Option<String>,
    /// Key-frame cadence for the recorded archive: every K-th window is a
    /// self-contained key frame, the rest sparse v3 deltas against the
    /// previous window where smaller than in full (0 = every window full,
    /// a version-1 archive).
    pub keyframe_every: u64,
    /// Emit one tw-json object per window (machine-readable transcript)
    /// instead of the human per-window lines, banner and totals; also
    /// suppresses the `stats_every` lines, keeping the transcript pure JSONL.
    pub json: bool,
}

impl IngestArgs {
    /// The command-line defaults, for tests and embedding callers.
    pub fn new(scenario: &str) -> Self {
        let args = ["--scenario".to_string(), scenario.to_string()];
        let defaults = Parsed::new("ingest", &args).and_then(|p| IngestArgs::read(&p));
        defaults.expect("the flag table's defaults parse")
    }

    fn read(p: &Parsed) -> Result<Self, CliError> {
        Ok(IngestArgs {
            live: LiveArgs::read(p)?,
            windows: p.get("--windows")?,
            batch: p.get("--batch")?,
            record: p.opt("--record")?,
            keyframe_every: p.get("--keyframe-every")?,
            json: p.switch("--json"),
        })
    }

    fn validate(&self) -> Result<(), CliError> {
        self.live.validate()?;
        at_least("--batch", self.batch as u64, 1)?;
        match (&self.live.replay, &self.record) {
            (Some(_), _) => Err(CliError(
                "ingest generates its stream; `replay` plays a recording".to_string(),
            )),
            (None, Some(_)) => encodable(self.live.nodes),
            (None, None) if self.keyframe_every > 0 => Err(CliError(
                "--keyframe-every shapes the recorded archive; it needs --record".to_string(),
            )),
            (None, None) => Ok(()),
        }
    }
}

/// A `u64` as a tw-json number: exact while it fits the wire integer
/// (`i64`), a float beyond (same lossy convention as `MetricsSnapshot`).
fn json_u64(value: u64) -> tw_core::json::Value {
    use tw_core::json::{Number, Value};
    i64::try_from(value).map_or_else(
        |_| Value::Number(Number::Float(value as f64)),
        |v| Value::Number(Number::Int(v)),
    )
}

/// One window's [`IngestStats`] as a compact tw-json object (one line of
/// `ingest --json` output).
///
/// [`IngestStats`]: tw_core::ingest::IngestStats
fn ingest_stats_json(stats: &tw_core::ingest::IngestStats) -> String {
    use tw_core::json::{Map, Value};
    let mut object = Map::new();
    object.insert("window", json_u64(stats.window_index));
    object.insert("events", json_u64(stats.events));
    object.insert("packets", json_u64(stats.packets));
    object.insert("nnz", json_u64(stats.nnz as u64));
    object.insert("dropped_late", json_u64(stats.dropped_late));
    object.insert("reordered", json_u64(stats.reordered));
    object.insert("elapsed_us", json_u64(stats.elapsed.as_micros() as u64));
    tw_core::json::to_string(&Value::Object(object))
}

/// Write a final metrics snapshot where `--metrics-json` asked for it.
fn write_metrics_json(path: &str, snapshot: &MetricsSnapshot) -> Result<(), CliError> {
    let mut text = tw_core::json::to_string_pretty(&snapshot.to_json());
    text.push('\n');
    std::fs::write(path, text).map_err(|e| CliError(format!("{path}: {e}")))
}

/// The banner suffix of a paced stream.
fn paced_note(speed: u64) -> String {
    let note = (speed > 0).then(|| format!(", paced at {speed}x real time"));
    note.unwrap_or_default()
}

/// Stream a named scenario through the sharded ingest pipeline and render
/// per-window statistics; with `record`, also capture the window stream as
/// a replayable ZIP at that path. A non-zero `skew_us` drifts the source
/// clocks (an out-of-order stream) and `horizon_us` sets the watermark
/// reordering horizon that absorbs the disorder.
pub fn run_ingest(args: &IngestArgs) -> Result<String, CliError> {
    use tw_core::ingest::{ArchiveRecorder, RecordingMeta};

    args.validate()?;
    let live = &args.live;
    let registry = live.registry();
    let (mut pipeline, scenario, max_disorder_us) = live.pipeline(args.batch, registry.as_ref())?;
    let mut out = String::new();
    if !args.json {
        let _ = writeln!(
            out,
            "scenario {scenario} ({}): {} nodes, {} us windows, {} shard(s), batch {}, seed {}",
            scenario.describe(),
            live.nodes,
            live.window_us,
            pipeline.shard_count(),
            args.batch,
            live.seed,
        );
        if live.skew_us > 0 || live.horizon_us > 0 {
            let _ = writeln!(
                out,
                "out-of-order: clock skew up to {} us (max disorder {max_disorder_us} us), reorder horizon {} us{}",
                live.skew_us,
                live.horizon_us,
                live.horizon_warning(max_disorder_us),
            );
        }
    }
    let mut recorder = args.record.as_ref().map(|_| {
        ArchiveRecorder::new(RecordingMeta {
            scenario: scenario.name().to_string(),
            seed: live.seed,
            node_count: live.nodes as usize,
            window_us: live.window_us,
            keyframe_every: args.keyframe_every,
        })
    });
    // Pull windows one at a time (instead of the batch `run`) so periodic
    // stats lines interleave with the transcript at the cadence asked for.
    // Only the per-window stats are kept for the totals; each matrix goes
    // back to the pipeline's CSR pool once recorded, so the transcript run
    // holds one window in memory and rotation reuses the arrays. The
    // presize is capped like `Pipeline::run`'s: `--windows` comes from the
    // command line and may be far larger than the stream is ever pulled.
    let mut window_stats = Vec::with_capacity(args.windows.min(1024));
    while window_stats.len() < args.windows {
        let Some(report) = pipeline.next_window() else {
            break;
        };
        if args.json {
            let _ = writeln!(out, "{}", ingest_stats_json(&report.stats));
        } else {
            let _ = writeln!(out, "{}", report.stats.summary());
        }
        if let Some(recorder) = recorder.as_mut() {
            recorder
                .record(&report)
                .map_err(|e| CliError(e.to_string()))?;
        }
        pipeline.recycle_window(report.matrix);
        window_stats.push(report.stats);
        if !args.json
            && live.stats_every > 0
            && (window_stats.len() as u64).is_multiple_of(live.stats_every)
        {
            if let Some(registry) = &registry {
                let _ = writeln!(out, "stats: {}", registry.snapshot().one_line());
            }
        }
    }
    if !args.json {
        let events: u64 = window_stats.iter().map(|s| s.events).sum();
        let packets: u64 = window_stats.iter().map(|s| s.packets).sum();
        let late: u64 = window_stats.iter().map(|s| s.dropped_late).sum();
        let reordered: u64 = window_stats.iter().map(|s| s.reordered).sum();
        let peak_nnz = window_stats.iter().map(|s| s.nnz).max().unwrap_or(0);
        let elapsed: f64 = window_stats.iter().map(|s| s.elapsed.as_secs_f64()).sum();
        let _ = writeln!(
            out,
            "total: {events} events, {packets} packets, {late} late, {reordered} reordered, peak nnz {peak_nnz}, {:.2} ms wall ({:.2} M events/s)",
            elapsed * 1e3,
            if elapsed > 0.0 { events as f64 / elapsed / 1e6 } else { 0.0 },
        );
    }
    if let (Some(recorder), Some(path)) = (recorder, args.record.as_deref()) {
        let recorded = recorder.windows_recorded();
        let bytes = recorder.finish().map_err(|e| CliError(e.to_string()))?;
        std::fs::write(path, &bytes).map_err(|e| CliError(format!("{path}: {e}")))?;
        if !args.json {
            let _ = writeln!(
                out,
                "recorded {recorded} window(s) to {path} ({} bytes); replay with: traffic-warehouse replay {path}",
                bytes.len()
            );
        }
    }
    if let (Some(path), Some(registry)) = (live.metrics_json.as_deref(), &registry) {
        write_metrics_json(path, &registry.snapshot())?;
        if !args.json {
            let _ = writeln!(out, "wrote metrics snapshot to {path}");
        }
    }
    Ok(out)
}

/// Replay a recorded window stream into a live warehouse session, decoding
/// one window at a time from disk.
pub fn run_replay(path: &str, speed: u64) -> Result<String, CliError> {
    use tw_core::ingest::{FileReplaySource, Paced};

    let replay = FileReplaySource::open(path).map_err(|e| CliError(format!("{path}: {e}")))?;
    let manifest = replay.manifest().clone();
    // The recording streams incrementally: only the directory and manifest
    // are resident; each window entry is read, CRC-checked and decoded as it
    // is pulled. Pacing is the stream's job now — the Paced adapter holds
    // each window until its slot on the classroom cadence.
    let mut stream: Box<dyn WindowStream> = if speed > 0 {
        Box::new(Paced::new(replay, speed))
    } else {
        Box::new(replay)
    };
    // Paced playback (--speed) streams each line to stdout as its window is
    // replayed — the class watches the scenario build up live; buffering
    // everything into the returned string would sleep in silence and then
    // dump the whole transcript at once. Unpaced replay keeps the buffered
    // contract of every other subcommand.
    let mut out = String::new();
    let pacing = speed > 0;
    let mut emit = |line: std::fmt::Arguments<'_>| {
        if pacing {
            println!("{line}");
            let _ = std::io::stdout().flush();
        } else {
            let _ = writeln!(out, "{line}");
        }
    };
    emit(format_args!(
        "replaying {} ({}): {} nodes, {} us windows, {} window(s), seed {}",
        path,
        manifest.scenario,
        manifest.node_count,
        manifest.window_us,
        manifest.window_count(),
        manifest.seed,
    ));

    // The replayed stream drives the same live-warehouse path as a live
    // pipeline: every window re-pallets the 10x10 display scene.
    let mut session = GameSession::start(ModuleBundle::new(&manifest.scenario), manifest.seed)
        .map_err(|e| CliError(e.to_string()))?;
    session.subscribe_live(10);
    while let Some(report) = stream.next_window().map_err(|e| CliError(e.to_string()))? {
        session.ingest_window(&report);
        emit(format_args!("{}", report.stats.summary()));
    }
    let live = session.live().expect("subscribed above");
    emit(format_args!(
        "replayed {} window(s) onto the live warehouse (no events regenerated){}",
        live.windows_seen(),
        paced_note(speed),
    ));
    Ok(out)
}

/// The stream that `classroom` and `serve` share: one window stream (live
/// scenario or recording, paced when asked) plus the facts a serving front
/// end prints and sizes its buffers by.
struct ClassStream {
    stream: Box<dyn WindowStream>,
    scenario: String,
    description: String,
    node_count: usize,
    /// The seed the stream was generated with (a recording carries its own).
    seed: u64,
    /// Windows to broadcast: the whole recording by default, eight windows
    /// of an unbounded live scenario, and never more than a recording holds.
    planned: usize,
}

impl ClassStream {
    /// Open the stream `live` describes (already validated), planning
    /// `windows` and pacing at `speed` x real time (0 = as fast as possible).
    fn open(
        live: &LiveArgs,
        windows: Option<usize>,
        speed: u64,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<Self, CliError> {
        let mut class = match &live.replay {
            Some(path) => {
                let replay = tw_core::ingest::FileReplaySource::open(path)
                    .map_err(|e| CliError(format!("{path}: {e}")))?;
                let manifest = replay.manifest().clone();
                ClassStream {
                    stream: Box::new(replay),
                    scenario: manifest.scenario,
                    description: format!("replayed from {path}"),
                    node_count: manifest.node_count,
                    seed: manifest.seed,
                    planned: 0,
                }
            }
            None => {
                let batch_size = PipelineConfig::default().batch_size;
                let (pipeline, scenario, max_disorder_us) = live.pipeline(batch_size, metrics)?;
                let mut description = scenario.describe().to_string();
                if live.skew_us > 0 || live.horizon_us > 0 {
                    let _ = write!(
                        description,
                        "; clock skew {} us, horizon {} us{}",
                        live.skew_us,
                        live.horizon_us,
                        live.horizon_warning(max_disorder_us),
                    );
                }
                ClassStream {
                    stream: Box::new(pipeline),
                    scenario: scenario.name().to_string(),
                    description,
                    node_count: live.nodes as usize,
                    seed: live.seed,
                    planned: 0,
                }
            }
        };
        class.planned = match class.stream.remaining_windows() {
            Some(recorded) => windows.unwrap_or(recorded).min(recorded),
            None => windows.unwrap_or(8),
        };
        if class.planned == 0 {
            return Err(CliError("the recording holds no windows".to_string()));
        }
        if speed > 0 {
            class.stream = Box::new(tw_core::ingest::Paced::new(class.stream, speed));
        }
        Ok(class)
    }

    /// A dashboard buffer sized to the class — joins, detaches, the close,
    /// and one lag event per window per student — so the printed lag count
    /// is exact. The clamp bounds memory for absurd classes; beyond it the
    /// count can undercount, and the printed eviction count says so.
    fn telemetry(&self, students: usize) -> TelemetryHub {
        let per_student = self.planned.saturating_add(3);
        let events = students.max(1).saturating_mul(per_student);
        TelemetryHub::with_capacity(events.clamp(1024, 1 << 18))
    }
}

/// The closing lines `classroom` and `serve` share: `head` followed by the
/// roster totals and the lag and eviction counts (then `tail`), any
/// conservation failure, and the final metrics where some were recorded.
/// One accounting authority: the printed totals come from the same
/// arithmetic the conservation check audits.
fn close_report(
    out: &mut String,
    (head, tail): (String, String),
    summary: &BroadcastSummary,
    telemetry: &TelemetryHub,
    snapshot: Option<&MetricsSnapshot>,
    metrics_json: Option<&str>,
) -> Result<(), CliError> {
    let totals = summary.totals();
    let lagged = |e: &&TelemetryEvent| matches!(e, TelemetryEvent::SubscriberLagged { .. });
    let lag_events = telemetry.drain().iter().filter(lagged).count();
    // The eviction count prints unconditionally: a zero is the reader's
    // proof the lag count is exact, not merely what survived the telemetry
    // ring.
    let _ = writeln!(
        out,
        "{head}; {} delivered, {} dropped, {} missed, {lag_events} lag event(s), {} telemetry event(s) evicted{tail}",
        totals.delivered,
        totals.dropped,
        totals.missed,
        telemetry.dropped(),
    );
    if let Some(error) = summary.conservation_error() {
        let _ = writeln!(out, "WARNING: roster accounting out of balance: {error}");
    }
    if let Some(snapshot) = snapshot {
        let _ = writeln!(out, "metrics: {}", snapshot.one_line());
        if let Some(path) = metrics_json {
            write_metrics_json(path, snapshot)?;
            let _ = writeln!(out, "wrote metrics snapshot to {path}");
        }
    }
    Ok(())
}

/// Arguments for [`run_classroom`] (one scenario fanned out to N students).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassroomArgs {
    /// The stream: a live scenario or a recording, plus the metrics export
    /// (`stats_every` counts broadcast windows).
    pub live: LiveArgs,
    /// Number of student sessions.
    pub students: usize,
    /// Windows to broadcast (default: 8 live, the whole recording on replay).
    pub windows: Option<usize>,
    /// Pace the broadcast at N x real time (0 = as fast as possible).
    pub speed: u64,
    /// Students that join mid-scenario (default: one in five).
    pub late: Option<usize>,
}

impl ClassroomArgs {
    fn read(p: &Parsed) -> Result<Self, CliError> {
        Ok(ClassroomArgs {
            live: LiveArgs::read(p)?,
            students: p.get("--students")?,
            windows: p.opt("--windows")?,
            speed: p.opt("--speed")?.unwrap_or(0),
            late: p.opt("--late")?,
        })
    }

    fn validate(&self) -> Result<(), CliError> {
        self.live.validate()?;
        at_most("--students", self.students as u64, MAX_STUDENTS, "")
    }
}

/// Serve one scenario to a classroom: drive the stream once through the
/// broadcast hub on this thread while every student session consumes its own
/// subscription on its own thread; returns per-student summaries.
pub fn run_classroom(args: &ClassroomArgs) -> Result<String, CliError> {
    use tw_core::game::{BroadcastConfig, Broadcaster, StartOffset};

    args.validate()?;
    // One registry spans the pipeline and the hub when metrics output was
    // asked for.
    let registry = args.live.registry();
    // Build the one stream the whole class shares.
    let mut class = ClassStream::open(&args.live, args.windows, args.speed, registry.as_ref())?;
    let planned = class.planned;
    let telemetry = class.telemetry(args.students);
    let mut caster = Broadcaster::with_instrumentation(
        BroadcastConfig {
            channel_capacity: planned.clamp(64, 1024),
            ring_capacity: planned.clamp(32, 1024),
        },
        Some(telemetry.clone()),
        registry.as_ref(),
    );
    let handle = caster.handle();
    let late = args.late.unwrap_or(args.students / 5);
    let late = late.min(args.students.saturating_sub(1));
    let on_time = args.students - late;
    let late_at = (planned / 2) as u64;

    struct StudentLine {
        id: usize,
        joined: u64,
        seen: u64,
        last: Option<u64>,
        dropped: u64,
        missed: u64,
    }

    let (summary, lines) = std::thread::scope(|scope| {
        let consumers: Vec<_> = (0..args.students)
            .map(|sid| {
                // On-time students subscribe before the first window; late
                // ones wait for the scenario's midpoint, then catch up from
                // the ring.
                let early = (sid < on_time).then(|| caster.subscribe(StartOffset::Origin));
                let handle = handle.clone();
                let scenario_name = class.scenario.clone();
                let seed = args.live.seed;
                scope.spawn(move || {
                    let subscription = early.unwrap_or_else(|| {
                        while handle.windows_broadcast() < late_at && !handle.is_closed() {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        handle.subscribe(StartOffset::Window(late_at))
                    });
                    let joined = subscription.start_window();
                    let mut session =
                        GameSession::start(ModuleBundle::new(&scenario_name), seed ^ sid as u64)
                            .expect("empty bundle always loads");
                    session.join_broadcast(10, subscription);
                    session.follow_broadcast(usize::MAX);
                    let live = session.live().expect("joined above");
                    let subscription = session.subscription().expect("still joined");
                    StudentLine {
                        id: sid,
                        joined,
                        seen: live.windows_seen(),
                        last: live.last_stats().map(|s| s.window_index),
                        dropped: subscription.dropped(),
                        missed: subscription.missed(),
                    }
                })
            })
            .collect();
        // This thread is the producer: drive the stream once for everyone.
        let mut broadcast = 0usize;
        let mut stats_lines = Vec::new();
        let run = loop {
            if broadcast >= planned {
                break Ok(());
            }
            match caster.step(class.stream.as_mut()) {
                Ok(Some(_)) => {
                    broadcast += 1;
                    if args.live.stats_every > 0
                        && (broadcast as u64).is_multiple_of(args.live.stats_every)
                    {
                        if let Some(registry) = &registry {
                            stats_lines.push((broadcast, registry.snapshot().one_line()));
                        }
                    }
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        // An unpaced broadcast can outrun the roster: hold the summary until
        // every planned student has subscribed (late joiners still catch up
        // from the ring), so the final count covers the whole class. The
        // deadline only guards against a wedged student thread.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while handle.subscribers_joined() < args.students && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let summary = run.map(|()| caster.close());
        let mut lines: Vec<StudentLine> = consumers
            .into_iter()
            .map(|c| c.join().expect("student threads do not panic"))
            .collect();
        lines.sort_by_key(|l| l.id);
        (summary.map(|s| (s, stats_lines)), lines)
    });
    let (summary, stats_lines) = summary.map_err(|e| CliError(e.to_string()))?;

    let mut out = format!(
        "classroom: {} ({}) over {} nodes -> {} student(s) ({on_time} on time, {late} late at w{late_at})\n",
        class.scenario, class.description, class.node_count, args.students,
    );
    for (window, line) in &stats_lines {
        let _ = writeln!(out, "  stats after w{}: {line}", window - 1);
    }
    for line in &lines {
        let _ = writeln!(
            out,
            "  student {:>3}: joined w{:<4} {:>4} window(s)  dropped {:>3}  missed {:>3}  last {}",
            line.id,
            line.joined,
            line.seen,
            line.dropped,
            line.missed,
            line.last.map_or("-".to_string(), |w| format!("w{w}")),
        );
    }
    let head = format!(
        "broadcast: {} window(s) served once to {} subscriber(s)",
        summary.windows, summary.subscribers
    );
    close_report(
        &mut out,
        (head, paced_note(args.speed)),
        &summary,
        &telemetry,
        registry.map(|r| r.snapshot()).as_ref(),
        args.live.metrics_json.as_deref(),
    )?;
    Ok(out)
}

/// Arguments for [`run_serve`] (one scenario served to remote clients).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Address to listen on (e.g. `127.0.0.1:7000`; port 0 picks a free one).
    pub listen: String,
    /// The stream: a live scenario or a recording, plus the metrics export.
    /// `stats_every` also streams a Stats frame to every client after each
    /// N window frames; `connect --stats` prints them.
    pub live: LiveArgs,
    /// Hold the first window until this many clients have connected
    /// (0 = start streaming immediately).
    pub students: usize,
    /// Windows to serve (default: 8 live, the whole recording on replay).
    pub windows: Option<usize>,
    /// Pace the serve at N x real time (0 = as fast as possible).
    pub speed: u64,
    /// Key-frame cadence on the wire: every K-th window is served as a
    /// self-contained full frame, the rest as sparse v3 delta frames
    /// against the previous window where smaller than in full (0 = every
    /// window full).
    pub keyframe_every: u64,
}

impl ServeArgs {
    /// The command-line defaults, for tests and embedding callers.
    pub fn new(listen: &str) -> Self {
        let args = ["--listen".to_string(), listen.to_string()];
        let defaults = Parsed::new("serve", &args).and_then(|p| ServeArgs::read(&p));
        defaults.expect("the flag table's defaults parse")
    }

    fn read(p: &Parsed) -> Result<Self, CliError> {
        Ok(ServeArgs {
            listen: p.get("--listen")?,
            live: LiveArgs::read(p)?,
            students: p.get("--students")?,
            windows: p.opt("--windows")?,
            speed: p.opt("--speed")?.unwrap_or(0),
            keyframe_every: p.get("--keyframe-every")?,
        })
    }

    fn validate(&self) -> Result<(), CliError> {
        self.live.validate()?;
        at_most("--students", self.students as u64, MAX_STUDENTS, "")?;
        match self.live.replay {
            Some(_) => Ok(()),
            None => encodable(self.live.nodes),
        }
    }
}

/// Bind the listen address and serve one scenario over TCP.
pub fn run_serve(args: &ServeArgs) -> Result<String, CliError> {
    let listener = std::net::TcpListener::bind(&args.listen)
        .map_err(|e| CliError(format!("{}: {e}", args.listen)))?;
    run_serve_on(listener, args)
}

/// Serve one scenario on an already-bound listener: drive the stream once,
/// encode each window once, and fan identical frames out to every connected
/// client; returns per-student accounting once the serve ends.
pub fn run_serve_on(listener: std::net::TcpListener, args: &ServeArgs) -> Result<String, CliError> {
    use tw_core::serve::{serve, ServeConfig};

    args.validate()?;
    // One registry spans the pipeline, the hub and the server when metrics
    // output (file or wire) was asked for.
    let registry = args.live.registry();
    let mut class = ClassStream::open(&args.live, args.windows, args.speed, registry.as_ref())?;
    let planned = class.planned;
    let addr = listener.local_addr().map_err(|e| CliError(e.to_string()))?;
    // The listening line streams eagerly (like paced replay) so students —
    // and scripts parsing the bound port — see the address while the serve
    // itself blocks; the accounting below stays on the buffered contract.
    println!(
        "listening on {addr}: {} ({}) over {} nodes, {planned} window(s){}{}",
        class.scenario,
        class.description,
        class.node_count,
        if args.students > 0 {
            format!(", waiting for {} student(s)", args.students)
        } else {
            String::new()
        },
        paced_note(args.speed),
    );
    let _ = std::io::stdout().flush();

    let telemetry = class.telemetry(args.students);
    let config = ServeConfig {
        scenario: class.scenario.clone(),
        seed: class.seed,
        channel_capacity: planned.clamp(64, 1024),
        ring_capacity: planned.clamp(32, 1024),
        wait_for: args.students,
        max_windows: planned,
        // With a roster gate the class defines the session: once every
        // student has left there is no one to serve, even mid-stream.
        stop_when_empty: args.students > 0,
        metrics: registry.clone(),
        stats_every: args.live.stats_every,
        keyframe_every: args.keyframe_every,
        ..ServeConfig::default()
    };
    let summary = serve(
        listener,
        class.stream.as_mut(),
        &config,
        Some(telemetry.clone()),
    )
    .map_err(|e| CliError(e.to_string()))?;

    let mut out = String::new();
    for report in &summary.broadcast.reports {
        let _ = writeln!(
            out,
            "  student {:>3}: joined w{:<4} delivered {:>4}  dropped {:>3}  missed {:>3}{}",
            report.id,
            report.start_window,
            report.delivered,
            report.dropped,
            report.missed,
            if report.left_early {
                "  [left early]"
            } else {
                ""
            },
        );
    }
    let head = format!(
        "served {} window(s) ({} encoded bytes) to {} connection(s)",
        summary.windows(),
        summary.encoded_bytes,
        summary.connections(),
    );
    close_report(
        &mut out,
        (head, String::new()),
        &summary.broadcast,
        &telemetry,
        summary.snapshot.as_ref(),
        args.live.metrics_json.as_deref(),
    )?;
    Ok(out)
}

/// Join a serve session: follow the remote window stream into a live
/// warehouse view and report the server's close accounting. With `stats`,
/// the server's interleaved metrics snapshots (sent when it serves with
/// `--stats-every`) print as one-line summaries where they arrived.
pub fn run_connect(addr: &str, windows: Option<usize>, stats: bool) -> Result<String, CliError> {
    use tw_core::ingest::WindowStream;
    use tw_core::serve::ClientStream;

    let mut client = ClientStream::connect(addr).map_err(|e| CliError(format!("{addr}: {e}")))?;
    let manifest = client.manifest().clone();
    let mut out = format!(
        "connected to {addr}: {} over {} nodes, {} us windows, seed {}{}\n",
        manifest.scenario,
        manifest.node_count,
        manifest.window_us,
        manifest.seed,
        manifest
            .windows
            .map_or(String::new(), |w| format!(", {w} window(s) planned")),
    );
    // The remote stream drives the same live-warehouse path as a local
    // replay: every window re-pallets the 10x10 display scene.
    let mut session = GameSession::start(ModuleBundle::new(&manifest.scenario), manifest.seed)
        .map_err(|e| CliError(e.to_string()))?;
    session.subscribe_live(10);
    let cap = windows.unwrap_or(usize::MAX);
    let mut seen = 0usize;
    let mut stats_seen = 0usize;
    loop {
        let next = if seen < cap {
            client.next_window().map_err(|e| CliError(e.to_string()))?
        } else {
            None
        };
        if stats {
            for snapshot in client.take_stats() {
                stats_seen += 1;
                let _ = writeln!(out, "stats: {}", snapshot.one_line());
            }
        }
        match next {
            Some(report) => {
                session.ingest_window(&report);
                let _ = writeln!(out, "{}", report.stats.summary());
                seen += 1;
            }
            None => break,
        }
    }
    if stats {
        let _ = writeln!(out, "received {stats_seen} stats frame(s)");
    }
    let live = session.live().expect("subscribed above");
    match client.close_summary() {
        Some(close) => {
            let _ = writeln!(
                out,
                "server closed: {} window(s) broadcast; delivered {} dropped {} missed {} (saw {})",
                close.windows,
                close.delivered,
                close.dropped,
                close.missed,
                live.windows_seen(),
            );
        }
        None => {
            let _ = writeln!(
                out,
                "left after {} window(s) with the stream still live",
                live.windows_seen()
            );
        }
    }
    Ok(out)
}

/// The scenario catalog as printable text.
pub fn render_scenarios() -> String {
    use tw_core::ingest::Scenario;
    let mut out = String::from("Ingest scenario catalog:\n");
    for scenario in Scenario::all() {
        let _ = writeln!(out, "  {:<12} {}", scenario.name(), scenario.describe());
    }
    out.push_str(
        "\nrun one with:  traffic-warehouse ingest --scenario <name>\n\
         serve a class: traffic-warehouse classroom --scenario <name> --students 30\n",
    );
    out
}

/// Validation report as printable text.
pub fn render_validation(module: &LearningModule) -> String {
    let report = validate(module);
    let mut out = format!(
        "{} ({}x{}, by {}): ",
        module.name,
        module.dimension(),
        module.dimension(),
        module.author
    );
    if report.issues.is_empty() {
        out.push_str("OK, no issues\n");
    } else {
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s)",
            report.errors().count(),
            report.warnings().count()
        );
        for issue in &report.issues {
            let _ = writeln!(
                out,
                "  [{:?}] {}: {}",
                issue.severity, issue.field, issue.message
            );
        }
    }
    out
}

/// Render a module: returns `(ascii preview, ppm bytes)`.
pub fn render_module(module: &LearningModule, three_d: bool, colors: bool) -> (String, Vec<u8>) {
    if three_d {
        let scene = WarehouseScene::build(module);
        let mut view = ViewState::new();
        view.toggle_mode();
        view.colors_on = colors;
        let fb = scene.render(&view, 120, 60);
        (fb.to_ascii(), fb.to_ppm())
    } else {
        let color_plane = colors.then_some(&module.colors);
        let fb = render_matrix_2d(&module.matrix, color_plane);
        let ascii = module.matrix.to_ascii_with_colors(color_plane);
        (ascii, fb.to_ppm())
    }
}

/// Auto-play a bundle and produce a transcript.
pub fn play_bundle(bundle: ModuleBundle, seed: u64) -> Result<String, CliError> {
    let mut out = format!("Playing {:?}: {} module(s)\n", bundle.name, bundle.len());
    let mut session = GameSession::start(bundle, seed).map_err(|e| CliError(e.to_string()))?;
    while !session.is_finished() {
        let (name, question) = {
            let level = session.current_level().expect("not finished");
            (level.name().to_string(), level.question().cloned())
        };
        let _ = writeln!(out, "\n--- {} ---", name);
        match question {
            Some(q) => {
                out.push_str(&q.to_text());
                let outcome = session.answer(q.correct_index);
                let _ = writeln!(
                    out,
                    "answered: {} -> {:?}",
                    q.correct_answer(),
                    outcome.expect("answer accepted")
                );
            }
            None => {
                let _ = writeln!(out, "(no question; skipping)");
                session.skip().map_err(|e| CliError(e.to_string()))?;
                continue;
            }
        }
        session.advance().map_err(|e| CliError(e.to_string()))?;
    }
    let _ = writeln!(out, "\nFinal score: {}", session.score().summary());
    Ok(out)
}

fn render_curriculum() -> String {
    let curriculum = default_curriculum();
    let mut out = String::from("Default Traffic Warehouse curriculum:\n");
    for unit in curriculum
        .schedule()
        .expect("default curriculum is well-formed")
    {
        let _ = writeln!(
            out,
            "  {:<42} {:>2} module(s)   requires: {}",
            unit.name,
            unit.bundle.len(),
            if unit.prerequisites.is_empty() {
                "-".to_string()
            } else {
                unit.prerequisites.join(", ")
            }
        );
    }
    out
}

fn render_figures() -> String {
    let mut out = String::new();
    for figure in Figure::all() {
        let _ = writeln!(out, "Figure {}: {}", figure.number(), figure.title());
        for pattern in patterns_for_figure(figure) {
            let _ = writeln!(out, "\n[{}] {}", pattern.id, pattern.relevant_to);
            out.push_str(&pattern.matrix.to_ascii_with_colors(Some(&pattern.colors)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_commands_and_flags() {
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&args(&["validate", "m.json"])).unwrap(),
            Command::Validate("m.json".into())
        );
        assert_eq!(
            parse_args(&args(&[
                "render",
                "m.json",
                "--three-d",
                "--colors",
                "--out",
                "x.ppm"
            ]))
            .unwrap(),
            Command::Render(RenderArgs {
                path: "m.json".into(),
                three_d: true,
                colors: true,
                out: Some("x.ppm".into())
            })
        );
        assert_eq!(
            parse_args(&args(&["play", "b.zip", "--seed", "9"])).unwrap(),
            Command::Play(PlayArgs {
                path: "b.zip".into(),
                seed: 9
            })
        );
        assert_eq!(
            parse_args(&args(&["curriculum"])).unwrap(),
            Command::Curriculum
        );
        assert_eq!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--windows",
                "2",
                "--nodes",
                "256",
                "--seed",
                "3",
                "--shards",
                "4",
                "--batch",
                "512",
                "--window-us",
                "50000"
            ]))
            .unwrap(),
            Command::Ingest(IngestArgs {
                live: LiveArgs {
                    scenario: Some("ddos".into()),
                    replay: None,
                    nodes: 256,
                    seed: 3,
                    shards: 4,
                    window_us: 50_000,
                    horizon_us: 0,
                    skew_us: 0,
                    metrics_json: None,
                    stats_every: 0,
                    route_threads: 0,
                },
                windows: 2,
                batch: 512,
                record: None,
                keyframe_every: 0,
                json: false,
            })
        );
        // Defaults: 4 windows over 1024 nodes with auto shards.
        assert_eq!(
            parse_args(&args(&["ingest", "--scenario", "scan"])).unwrap(),
            Command::Ingest(IngestArgs {
                live: LiveArgs {
                    scenario: Some("scan".into()),
                    replay: None,
                    nodes: 1024,
                    seed: 7,
                    shards: 0,
                    window_us: 100_000,
                    horizon_us: 0,
                    skew_us: 0,
                    metrics_json: None,
                    stats_every: 0,
                    route_threads: 0,
                },
                windows: 4,
                batch: 8192,
                record: None,
                keyframe_every: 0,
                json: false,
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--record",
                "out.zip",
                "--keyframe-every",
                "4"
            ]))
            .unwrap(),
            Command::Ingest(IngestArgs {
                live: LiveArgs {
                    scenario: Some("ddos".into()),
                    replay: None,
                    nodes: 1024,
                    seed: 7,
                    shards: 0,
                    window_us: 100_000,
                    horizon_us: 0,
                    skew_us: 0,
                    metrics_json: None,
                    stats_every: 0,
                    route_threads: 0,
                },
                windows: 4,
                batch: 8192,
                record: Some("out.zip".into()),
                keyframe_every: 4,
                json: false,
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--skew-us",
                "5000",
                "--horizon-us",
                "20000"
            ]))
            .unwrap(),
            Command::Ingest(IngestArgs {
                live: LiveArgs {
                    scenario: Some("ddos".into()),
                    replay: None,
                    nodes: 1024,
                    seed: 7,
                    shards: 0,
                    window_us: 100_000,
                    horizon_us: 20_000,
                    skew_us: 5_000,
                    metrics_json: None,
                    stats_every: 0,
                    route_threads: 0,
                },
                windows: 4,
                batch: 8192,
                record: None,
                keyframe_every: 0,
                json: false,
            })
        );
        assert_eq!(
            parse_args(&args(&["replay", "out.zip"])).unwrap(),
            Command::Replay(ReplayArgs {
                path: "out.zip".into(),
                speed: 0
            })
        );
        assert_eq!(
            parse_args(&args(&["replay", "out.zip", "--speed", "4"])).unwrap(),
            Command::Replay(ReplayArgs {
                path: "out.zip".into(),
                speed: 4
            })
        );
        assert_eq!(
            parse_args(&args(&["scenarios"])).unwrap(),
            Command::Scenarios
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--scenario",
                "ddos",
                "--students",
                "30",
                "--windows",
                "6",
                "--speed",
                "4",
                "--keyframe-every",
                "8",
            ]))
            .unwrap(),
            Command::Serve(ServeArgs {
                live: LiveArgs {
                    scenario: Some("ddos".into()),
                    ..ServeArgs::new("127.0.0.1:0").live
                },
                students: 30,
                windows: Some(6),
                speed: 4,
                keyframe_every: 8,
                ..ServeArgs::new("127.0.0.1:0")
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "0.0.0.0:7000",
                "--replay",
                "c.zip",
            ]))
            .unwrap(),
            Command::Serve(ServeArgs {
                live: LiveArgs {
                    replay: Some("c.zip".into()),
                    ..ServeArgs::new("0.0.0.0:7000").live
                },
                ..ServeArgs::new("0.0.0.0:7000")
            })
        );
        assert_eq!(
            parse_args(&args(&["connect", "127.0.0.1:7000"])).unwrap(),
            Command::Connect(ConnectArgs {
                addr: "127.0.0.1:7000".into(),
                windows: None,
                stats: false
            })
        );
        assert_eq!(
            parse_args(&args(&["connect", "127.0.0.1:7000", "--windows", "5"])).unwrap(),
            Command::Connect(ConnectArgs {
                addr: "127.0.0.1:7000".into(),
                windows: Some(5),
                stats: false
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "classroom",
                "--scenario",
                "ddos",
                "--students",
                "30"
            ]))
            .unwrap(),
            Command::Classroom(ClassroomArgs {
                live: LiveArgs {
                    scenario: Some("ddos".into()),
                    replay: None,
                    nodes: 256,
                    seed: 7,
                    shards: 0,
                    window_us: 100_000,
                    horizon_us: 0,
                    skew_us: 0,
                    metrics_json: None,
                    stats_every: 0,
                    route_threads: 0,
                },
                students: 30,
                windows: None,
                speed: 0,
                late: None,
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "classroom",
                "--replay",
                "c.zip",
                "--windows",
                "4",
                "--speed",
                "8",
                "--late",
                "2",
                "--seed",
                "9",
                "--shards",
                "2",
                "--nodes",
                "128",
                "--window-us",
                "50000",
            ]))
            .unwrap(),
            Command::Classroom(ClassroomArgs {
                live: LiveArgs {
                    scenario: None,
                    replay: Some("c.zip".into()),
                    nodes: 128,
                    seed: 9,
                    shards: 2,
                    window_us: 50_000,
                    horizon_us: 0,
                    skew_us: 0,
                    metrics_json: None,
                    stats_every: 0,
                    route_threads: 0,
                },
                students: 8,
                windows: Some(4),
                speed: 8,
                late: Some(2),
            })
        );
    }

    #[test]
    fn parses_metrics_and_json_flags() {
        assert_eq!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--json",
                "--metrics-json",
                "m.json",
                "--stats-every",
                "2",
            ]))
            .unwrap(),
            Command::Ingest(IngestArgs {
                live: LiveArgs {
                    scenario: Some("ddos".into()),
                    replay: None,
                    nodes: 1024,
                    seed: 7,
                    shards: 0,
                    window_us: 100_000,
                    horizon_us: 0,
                    skew_us: 0,
                    metrics_json: Some("m.json".into()),
                    stats_every: 2,
                    route_threads: 0,
                },
                windows: 4,
                batch: 8192,
                record: None,
                keyframe_every: 0,
                json: true,
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--scenario",
                "ddos",
                "--metrics-json",
                "m.json",
                "--stats-every",
                "1",
            ]))
            .unwrap(),
            Command::Serve(ServeArgs {
                live: LiveArgs {
                    scenario: Some("ddos".into()),
                    metrics_json: Some("m.json".into()),
                    stats_every: 1,
                    ..ServeArgs::new("127.0.0.1:0").live
                },
                ..ServeArgs::new("127.0.0.1:0")
            })
        );
        assert_eq!(
            parse_args(&args(&["connect", "127.0.0.1:7000", "--stats"])).unwrap(),
            Command::Connect(ConnectArgs {
                addr: "127.0.0.1:7000".into(),
                windows: None,
                stats: true,
            })
        );
        match parse_args(&args(&[
            "classroom",
            "--scenario",
            "ddos",
            "--metrics-json",
            "m.json",
            "--stats-every",
            "3",
        ]))
        .unwrap()
        {
            Command::Classroom(ClassroomArgs {
                live:
                    LiveArgs {
                        metrics_json,
                        stats_every,
                        ..
                    },
                ..
            }) => {
                assert_eq!(metrics_json.as_deref(), Some("m.json"));
                assert_eq!(stats_every, 3);
            }
            other => panic!("parsed {other:?}"),
        }
        // Flags that need values reject their absence.
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--metrics-json"])).is_err());
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--stats-every"])).is_err());
        assert!(parse_args(&args(&[
            "ingest",
            "--scenario",
            "ddos",
            "--stats-every",
            "x"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "serve",
            "--listen",
            "a:0",
            "--scenario",
            "ddos",
            "--metrics-json"
        ]))
        .is_err());
        assert!(parse_args(&args(&["classroom", "--scenario", "ddos", "--stats-every"])).is_err());
    }

    #[test]
    fn ingest_json_mode_emits_parseable_window_objects() {
        use tw_core::json;
        let out = run_ingest(&IngestArgs {
            live: LiveArgs {
                nodes: 256,
                shards: 2,
                window_us: 50_000,
                ..IngestArgs::new("ddos").live
            },
            windows: 3,
            json: true,
            ..IngestArgs::new("ddos")
        })
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "pure JSONL, one object per window: {out}");
        for (index, line) in lines.iter().enumerate() {
            let value = json::parse(line).expect("each line parses alone");
            let object = value.as_object().expect("each line is one object");
            assert_eq!(
                object.get("window").and_then(json::Value::as_u64),
                Some(index as u64)
            );
            for field in [
                "events",
                "packets",
                "nnz",
                "dropped_late",
                "reordered",
                "elapsed_us",
            ] {
                assert!(
                    object.get(field).and_then(json::Value::as_u64).is_some(),
                    "{field} missing from {line}"
                );
            }
        }
    }

    #[test]
    fn ingest_metrics_land_in_the_file_and_the_transcript() {
        use tw_core::metrics::MetricsSnapshot;
        let dir = std::env::temp_dir().join(format!("tw-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ingest.json").to_string_lossy().into_owned();

        let out = run_ingest(&IngestArgs {
            live: LiveArgs {
                nodes: 256,
                shards: 2,
                window_us: 50_000,
                metrics_json: Some(path.clone()),
                stats_every: 2,
                ..IngestArgs::new("ddos").live
            },
            windows: 4,
            ..IngestArgs::new("ddos")
        })
        .unwrap();
        // Two interleaved one-line summaries (after windows 2 and 4).
        assert_eq!(
            out.lines().filter(|l| l.starts_with("stats: ")).count(),
            2,
            "{out}"
        );
        assert!(
            out.contains(&format!("wrote metrics snapshot to {path}")),
            "{out}"
        );

        // The file parses back into a snapshot whose counters match the
        // transcript's own totals.
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = MetricsSnapshot::from_json(&tw_core::json::parse(&text).unwrap()).unwrap();
        assert_eq!(snapshot.counter("pipeline.windows"), 4);
        let events: u64 = out
            .lines()
            .find(|l| l.starts_with("total: "))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .expect("total line carries the event count");
        assert_eq!(snapshot.counter("pipeline.events"), events);
        assert!(
            snapshot
                .histogram("pipeline.coalesce_ns")
                .is_some_and(|h| h.count == 4),
            "one coalesce sample per window"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classroom_metrics_balance_the_printed_roster() {
        use tw_core::metrics::MetricsSnapshot;
        let dir = std::env::temp_dir().join(format!("tw-cli-class-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("class.json").to_string_lossy().into_owned();

        let out = run_classroom(&ClassroomArgs {
            live: LiveArgs {
                scenario: Some("ddos".into()),
                replay: None,
                nodes: 128,
                seed: 7,
                shards: 2,
                window_us: 50_000,
                horizon_us: 0,
                skew_us: 0,
                metrics_json: Some(path.clone()),
                stats_every: 1,
                route_threads: 0,
            },
            students: 4,
            windows: Some(3),
            speed: 0,
            late: Some(0),
        })
        .unwrap();
        assert!(out.contains("metrics: "), "{out}");
        assert!(out.contains("telemetry event(s) evicted"), "{out}");
        assert_eq!(
            out.lines().filter(|l| l.contains("stats after w")).count(),
            3,
            "{out}"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = MetricsSnapshot::from_json(&tw_core::json::parse(&text).unwrap()).unwrap();
        assert_eq!(snapshot.counter("pipeline.windows"), 3);
        assert_eq!(snapshot.counter("broadcast.windows"), 3);
        // Nothing can lag at these capacities: the roster counters conserve.
        assert_eq!(snapshot.counter("broadcast.delivered"), 12);
        assert_eq!(snapshot.counter("broadcast.dropped"), 0);
        assert_eq!(snapshot.counter("broadcast.missed"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args(&["validate"])).is_err());
        assert!(parse_args(&args(&["render"])).is_err());
        assert!(parse_args(&args(&["render", "m.json", "--bogus"])).is_err());
        assert!(parse_args(&args(&["play", "b.zip", "--seed", "abc"])).is_err());
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(
            parse_args(&args(&["ingest"])).is_err(),
            "--scenario is required"
        );
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--windows", "0"])).is_err());
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--windows", "x"])).is_err());
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--bogus"])).is_err());
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--record"])).is_err());
        assert!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--keyframe-every",
                "4"
            ]))
            .is_err(),
            "--keyframe-every without --record has nothing to shape"
        );
        assert!(parse_args(&args(&[
            "ingest",
            "--scenario",
            "ddos",
            "--record",
            "o.zip",
            "--keyframe-every",
            "x"
        ]))
        .is_err());
        assert!(
            parse_args(&args(&["replay"])).is_err(),
            "replay needs a path"
        );
        assert!(parse_args(&args(&["replay", "o.zip", "--speed", "0"])).is_err());
        assert!(parse_args(&args(&["replay", "o.zip", "--speed", "x"])).is_err());
        assert!(parse_args(&args(&["replay", "o.zip", "--bogus"])).is_err());
        assert!(
            parse_args(&args(&["classroom"])).is_err(),
            "needs a scenario or a recording"
        );
        assert!(parse_args(&args(&[
            "classroom",
            "--scenario",
            "ddos",
            "--students",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "classroom",
            "--scenario",
            "ddos",
            "--windows",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&["classroom", "--scenario", "ddos", "--bogus"])).is_err());
        assert!(
            parse_args(&args(&["classroom", "--scenario", "ddos", "--speed", "0"])).is_err(),
            "a zero pace would serve nothing; rejected at parse time"
        );
        assert!(parse_args(&args(&["classroom", "--replay"])).is_err());
        assert!(
            parse_args(&args(&[
                "classroom",
                "--scenario",
                "ddos",
                "--replay",
                "c.zip"
            ]))
            .is_err(),
            "a recording carries its own scenario"
        );
        assert!(
            parse_args(&args(&["serve", "--scenario", "ddos"])).is_err(),
            "--listen is required"
        );
        assert!(
            parse_args(&args(&["serve", "--listen", "127.0.0.1:0"])).is_err(),
            "needs a scenario or a recording"
        );
        assert!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--scenario",
                "ddos",
                "--replay",
                "c.zip"
            ]))
            .is_err(),
            "a recording carries its own scenario"
        );
        assert!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--replay",
                "c.zip",
                "--skew-us",
                "100"
            ]))
            .is_err(),
            "skew applies to live ingestion only"
        );
        assert!(parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--scenario",
            "ddos",
            "--windows",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--scenario",
            "ddos",
            "--bogus"
        ]))
        .is_err());
        assert!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--scenario",
                "ddos",
                "--speed",
                "0"
            ]))
            .is_err(),
            "a zero pace would serve nothing; rejected at parse time"
        );
        assert!(parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--scenario",
            "ddos",
            "--keyframe-every",
            "x"
        ]))
        .is_err());
        assert!(
            parse_args(&args(&["connect"])).is_err(),
            "connect needs an address"
        );
        assert!(parse_args(&args(&["connect", "a:1", "--windows", "0"])).is_err());
        assert!(parse_args(&args(&["connect", "a:1", "--bogus"])).is_err());
        // Shards partition rows: more shards than nodes would own none (and
        // a huge count would try to allocate them all).
        assert!(parse_args(&args(&[
            "ingest",
            "--scenario",
            "ddos",
            "--nodes",
            "64",
            "--shards",
            "65"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "ingest",
            "--scenario",
            "ddos",
            "--nodes",
            "64",
            "--shards",
            "1152921504606846976"
        ]))
        .is_err());
        // Serving encodes every window, so the codec's dimension limit holds
        // for serve as it does for ingest --record.
        let err = parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--scenario",
            "background",
            "--nodes",
            "17000000",
            "--windows",
            "1",
        ]))
        .unwrap_err();
        assert!(err.0.contains("codec"), "{err}");
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--skew-us"])).is_err());
        assert!(parse_args(&args(&[
            "ingest",
            "--scenario",
            "ddos",
            "--horizon-us",
            "x"
        ]))
        .is_err());
        assert!(
            parse_args(&args(&[
                "classroom",
                "--replay",
                "c.zip",
                "--skew-us",
                "5000"
            ]))
            .is_err(),
            "skew applies to live ingestion only"
        );
        assert!(
            parse_args(&args(&[
                "classroom",
                "--replay",
                "c.zip",
                "--horizon-us",
                "100"
            ]))
            .is_err(),
            "horizon applies to live ingestion only"
        );
    }

    #[test]
    fn ingest_command_streams_windows() {
        let out = run(&Command::Ingest(IngestArgs {
            live: LiveArgs {
                scenario: Some("ddos".into()),
                replay: None,
                nodes: 256,
                seed: 7,
                shards: 2,
                window_us: 50_000,
                horizon_us: 0,
                skew_us: 0,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            },
            windows: 4,
            batch: 2048,
            record: None,
            keyframe_every: 0,
            json: false,
        }))
        .unwrap();
        assert!(out.contains("scenario ddos"));
        assert_eq!(out.lines().filter(|l| l.starts_with("window ")).count(), 4);
        assert!(out.contains("window   0:"));
        assert!(out.contains("window   3:"));
        assert!(out.contains("total: "));
        // Unknown scenarios name the catalog.
        let small = |scenario: &str, nodes, batch, window_us| IngestArgs {
            live: LiveArgs {
                nodes,
                seed: 1,
                window_us,
                ..IngestArgs::new(scenario).live
            },
            windows: 1,
            batch,
            ..IngestArgs::new(scenario)
        };
        let err = run_ingest(&small("wat", 256, 128, 1_000)).unwrap_err();
        assert!(err.0.contains("known scenarios"));
        assert!(
            run_ingest(&small("ddos", 4, 128, 1_000)).is_err(),
            "tiny address space"
        );
        assert!(
            run_ingest(&small("ddos", 256, 0, 1_000)).is_err(),
            "zero batch"
        );
        assert!(
            run_ingest(&small("ddos", 256, 128, 0)).is_err(),
            "zero window"
        );
    }

    #[test]
    fn ingest_with_skew_and_horizon_loses_nothing() {
        // The ISSUE's acceptance smoke: a skewed DDoS stream with a horizon
        // covering the disorder bound (5000 + 5000/4 = 6250 <= 20000)
        // ingests with zero late drops and a busy reordered counter.
        let out = run_ingest(&IngestArgs {
            live: LiveArgs {
                nodes: 256,
                shards: 2,
                window_us: 50_000,
                horizon_us: 20_000,
                skew_us: 5_000,
                ..IngestArgs::new("ddos").live
            },
            windows: 3,
            ..IngestArgs::new("ddos")
        })
        .unwrap();
        assert!(
            out.contains(
                "clock skew up to 5000 us (max disorder 6250 us), reorder horizon 20000 us"
            ),
            "{out}"
        );
        assert!(out.contains(" 0 late"), "{out}");
        assert!(!out.contains(" 0 reordered,"), "{out}");
        assert!(!out.contains("WARNING"), "{out}");

        // An undersized horizon warns up front and reports its drops.
        let out = run_ingest(&IngestArgs {
            live: LiveArgs {
                nodes: 256,
                window_us: 50_000,
                horizon_us: 100,
                skew_us: 20_000,
                ..IngestArgs::new("ddos").live
            },
            windows: 3,
            ..IngestArgs::new("ddos")
        })
        .unwrap();
        assert!(
            out.contains("WARNING: horizon below the disorder bound"),
            "{out}"
        );
    }

    #[test]
    fn record_then_replay_round_trips_the_window_stream() {
        let dir = std::env::temp_dir().join(format!("tw-cli-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let zip = dir.join("ddos.zip").to_string_lossy().into_owned();

        let ingest_out = run(&Command::Ingest(IngestArgs {
            live: LiveArgs {
                scenario: Some("ddos".into()),
                replay: None,
                nodes: 256,
                seed: 7,
                shards: 2,
                window_us: 50_000,
                horizon_us: 0,
                skew_us: 0,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            },
            windows: 8,
            batch: 2048,
            record: Some(zip.clone()),
            keyframe_every: 0,
            json: false,
        }))
        .unwrap();
        assert!(ingest_out.contains("recorded 8 window(s)"), "{ingest_out}");

        let replay_out = run(&Command::Replay(ReplayArgs {
            path: zip.clone(),
            speed: 0,
        }))
        .unwrap();
        assert!(replay_out.contains("replaying"), "{replay_out}");
        assert!(replay_out.contains("(ddos)"));
        assert!(replay_out.contains("8 window(s)"));
        assert!(replay_out.contains("replayed 8 window(s) onto the live warehouse"));

        // The replayed per-window lines reproduce the recorded statistics
        // exactly: same window indices, events, packets, nnz (the trailing
        // wall-clock columns are recorded values too, so whole lines match).
        let window_lines = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("window "))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(window_lines(&ingest_out), window_lines(&replay_out));

        // Paced playback streams each line to stdout as it replays, so the
        // returned (buffered) transcript is empty.
        let paced = run_replay(&zip, 1_000).unwrap();
        assert!(paced.is_empty(), "paced replay must stream, not buffer");

        // Recording refuses address spaces beyond the window codec's limit
        // up front instead of panicking mid-capture.
        let err = run_ingest(&IngestArgs {
            live: LiveArgs {
                nodes: u32::MAX,
                seed: 1,
                window_us: 1_000,
                ..IngestArgs::new("ddos").live
            },
            windows: 1,
            batch: 128,
            record: Some("never.zip".into()),
            ..IngestArgs::new("ddos")
        })
        .unwrap_err();
        assert!(err.0.contains("codec"), "{err}");

        // Replaying garbage fails cleanly.
        let junk = dir.join("junk.zip").to_string_lossy().into_owned();
        std::fs::write(&junk, b"not a zip").unwrap();
        assert!(run_replay(&junk, 0).is_err());
        assert!(run_replay(dir.join("missing.zip").to_string_lossy().as_ref(), 0).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_recordings_replay_like_full_ones() {
        // A cadence-3 archive (key frames at w0/w3/w6; the ddos windows
        // between fall back to full wherever a delta would be larger)
        // replays the identical per-window statistics lines.
        let dir = std::env::temp_dir().join(format!("tw-cli-delta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let zip = dir.join("delta.zip").to_string_lossy().into_owned();
        let ingest_out = run_ingest(&IngestArgs {
            live: LiveArgs {
                nodes: 256,
                shards: 2,
                window_us: 50_000,
                ..IngestArgs::new("ddos").live
            },
            windows: 7,
            batch: 2048,
            record: Some(zip.clone()),
            keyframe_every: 3,
            ..IngestArgs::new("ddos")
        })
        .unwrap();
        assert!(ingest_out.contains("recorded 7 window(s)"), "{ingest_out}");
        let replay_out = run_replay(&zip, 0).unwrap();
        assert!(
            replay_out.contains("replayed 7 window(s) onto the live warehouse"),
            "{replay_out}"
        );
        let window_lines = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("window "))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(window_lines(&ingest_out), window_lines(&replay_out));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenarios_lists_the_whole_catalog() {
        let out = run(&Command::Scenarios).unwrap();
        use tw_core::ingest::Scenario;
        for scenario in Scenario::all() {
            assert!(out.contains(scenario.name()), "{out}");
            assert!(out.contains(scenario.describe()), "{out}");
        }
        assert!(out.contains("classroom"));
    }

    #[test]
    fn classroom_serves_live_and_replayed_scenarios() {
        // Live: 6 students, one late, 3 windows.
        let out = run_classroom(&ClassroomArgs {
            live: LiveArgs {
                scenario: Some("ddos".into()),
                replay: None,
                nodes: 128,
                seed: 7,
                shards: 2,
                window_us: 50_000,
                horizon_us: 0,
                skew_us: 0,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            },
            students: 6,
            windows: Some(3),
            speed: 0,
            late: Some(1),
        })
        .unwrap();
        assert!(
            out.contains("6 student(s) (5 on time, 1 late at w1)"),
            "{out}"
        );
        assert_eq!(
            out.lines().filter(|l| l.contains("student ")).count(),
            6,
            "{out}"
        );
        assert!(out.contains("3 window(s) served once to 6 subscriber(s)"));
        // On-time students saw all 3 windows; the late one joined at w1.
        assert!(out.contains("joined w0       3 window(s)"), "{out}");
        assert!(out.contains("joined w1       2 window(s)"), "{out}");

        // Replay: record 4 windows, broadcast the file to 4 students.
        let dir = std::env::temp_dir().join(format!("tw-cli-classroom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let zip = dir.join("class.zip").to_string_lossy().into_owned();
        run_ingest(&IngestArgs {
            live: LiveArgs {
                nodes: 128,
                seed: 3,
                shards: 2,
                window_us: 50_000,
                ..IngestArgs::new("scan").live
            },
            windows: 4,
            batch: 2048,
            record: Some(zip.clone()),
            ..IngestArgs::new("scan")
        })
        .unwrap();
        let out = run_classroom(&ClassroomArgs {
            live: LiveArgs {
                scenario: None,
                replay: Some(zip.clone()),
                nodes: 256,
                seed: 7,
                shards: 0,
                window_us: 100_000,
                horizon_us: 0,
                skew_us: 0,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            },
            students: 4,
            windows: None,
            speed: 0,
            late: Some(0),
        })
        .unwrap();
        assert!(out.contains("scan (replayed from"), "{out}");
        assert!(out.contains("4 window(s) served once to 4 subscriber(s)"));
        assert!(out.contains("(4 on time, 0 late"), "{out}");

        // Errors: unknown scenario, missing recording, tiny address space.
        let bad = |scenario: Option<&str>, replay: Option<String>, nodes| {
            run_classroom(&ClassroomArgs {
                live: LiveArgs {
                    scenario: scenario.map(String::from),
                    replay,
                    nodes,
                    seed: 1,
                    shards: 0,
                    window_us: 1_000,
                    horizon_us: 0,
                    skew_us: 0,
                    metrics_json: None,
                    stats_every: 0,
                    route_threads: 0,
                },
                students: 2,
                windows: Some(1),
                speed: 0,
                late: None,
            })
        };
        assert!(bad(Some("wat"), None, 128)
            .unwrap_err()
            .0
            .contains("known scenarios"));
        assert!(bad(
            None,
            Some(dir.join("gone.zip").to_string_lossy().into_owned()),
            128
        )
        .is_err());
        assert!(bad(Some("ddos"), None, 4).is_err(), "tiny address space");

        // A skewed live classroom: the whole class still sees every window.
        let out = run_classroom(&ClassroomArgs {
            live: LiveArgs {
                scenario: Some("ddos".into()),
                replay: None,
                nodes: 128,
                seed: 7,
                shards: 2,
                window_us: 50_000,
                horizon_us: 20_000,
                skew_us: 5_000,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            },
            students: 3,
            windows: Some(2),
            speed: 0,
            late: Some(0),
        })
        .unwrap();
        assert!(
            out.contains("clock skew 5000 us, horizon 20000 us"),
            "{out}"
        );
        assert!(!out.contains("WARNING"), "covered horizon: {out}");
        assert!(out.contains("2 window(s) served once to 3 subscriber(s)"));

        // An undersized horizon warns up front, like `ingest` does.
        let out = run_classroom(&ClassroomArgs {
            live: LiveArgs {
                scenario: Some("ddos".into()),
                replay: None,
                nodes: 128,
                seed: 7,
                shards: 1,
                window_us: 50_000,
                horizon_us: 100,
                skew_us: 20_000,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            },
            students: 1,
            windows: Some(1),
            speed: 0,
            late: Some(0),
        })
        .unwrap();
        assert!(
            out.contains("WARNING: horizon below the disorder bound"),
            "{out}"
        );

        // Programmatic callers hit the same skew-vs-replay guard as the parser.
        let err = run_classroom(&ClassroomArgs {
            live: LiveArgs {
                scenario: None,
                replay: Some(zip.clone()),
                nodes: 128,
                seed: 1,
                shards: 0,
                window_us: 1_000,
                horizon_us: 0,
                skew_us: 5_000,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            },
            students: 1,
            windows: Some(1),
            speed: 0,
            late: None,
        })
        .unwrap_err();
        assert!(err.0.contains("live ingestion"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_connect_round_trip_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let args = ServeArgs {
            live: LiveArgs {
                scenario: Some("ddos".into()),
                nodes: 128,
                shards: 2,
                window_us: 50_000,
                ..ServeArgs::new("127.0.0.1:0").live
            },
            students: 2,
            windows: Some(3),
            ..ServeArgs::new("127.0.0.1:0")
        };
        let (serve_out, client_outs) = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || run_connect(&addr, None, false).unwrap())
                })
                .collect();
            let out = run_serve_on(listener, &args).unwrap();
            let outs: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
            (out, outs)
        });
        assert!(serve_out.contains("served 3 window(s)"), "{serve_out}");
        assert!(
            serve_out.contains("telemetry event(s) evicted"),
            "{serve_out}"
        );
        assert_eq!(
            serve_out.lines().filter(|l| l.contains("student ")).count(),
            2,
            "{serve_out}"
        );
        assert!(!serve_out.contains("WARNING"), "{serve_out}");
        for out in &client_outs {
            assert!(out.contains("connected to"), "{out}");
            assert_eq!(
                out.lines().filter(|l| l.starts_with("window ")).count(),
                3,
                "{out}"
            );
            assert!(
                out.contains("delivered 3 dropped 0 missed 0 (saw 3)"),
                "{out}"
            );
        }

        // Error paths: an unbindable address, an unreachable server, and the
        // same stream validation the classroom applies.
        assert!(run_serve(&ServeArgs {
            live: LiveArgs {
                scenario: Some("ddos".into()),
                ..ServeArgs::new("256.0.0.1:0").live
            },
            ..ServeArgs::new("256.0.0.1:0")
        })
        .is_err());
        assert!(
            run_connect("127.0.0.1:1", None, false).is_err(),
            "nothing listens"
        );
        assert!(run_serve(&ServeArgs {
            live: LiveArgs {
                scenario: Some("wat".into()),
                ..ServeArgs::new("127.0.0.1:0").live
            },
            ..ServeArgs::new("127.0.0.1:0")
        })
        .unwrap_err()
        .0
        .contains("known scenarios"));
        assert!(
            run_serve(&ServeArgs {
                live: LiveArgs {
                    scenario: Some("ddos".into()),
                    nodes: 4,
                    ..ServeArgs::new("127.0.0.1:0").live
                },
                ..ServeArgs::new("127.0.0.1:0")
            })
            .is_err(),
            "tiny address space"
        );
        let err = run_serve(&ServeArgs {
            live: LiveArgs {
                scenario: Some("background".into()),
                nodes: 17_000_000,
                ..ServeArgs::new("127.0.0.1:0").live
            },
            windows: Some(1),
            ..ServeArgs::new("127.0.0.1:0")
        })
        .unwrap_err();
        assert!(err.0.contains("codec"), "{err}");
    }

    #[test]
    fn serve_streams_stats_frames_that_connect_can_print() {
        use tw_core::metrics::MetricsSnapshot;
        let dir = std::env::temp_dir().join(format!("tw-cli-wire-stats-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.json").to_string_lossy().into_owned();

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let args = ServeArgs {
            live: LiveArgs {
                scenario: Some("ddos".into()),
                nodes: 128,
                shards: 2,
                window_us: 50_000,
                metrics_json: Some(path.clone()),
                stats_every: 1,
                ..ServeArgs::new("127.0.0.1:0").live
            },
            students: 1,
            windows: Some(3),
            ..ServeArgs::new("127.0.0.1:0")
        };
        let (serve_out, client_out) = std::thread::scope(|scope| {
            let client = {
                let addr = addr.clone();
                scope.spawn(move || run_connect(&addr, None, true).unwrap())
            };
            let out = run_serve_on(listener, &args).unwrap();
            (out, client.join().unwrap())
        });

        // The client printed interleaved one-line snapshots: one per window
        // plus the final frame.
        assert_eq!(
            client_out
                .lines()
                .filter(|l| l.starts_with("stats: "))
                .count(),
            4,
            "{client_out}"
        );
        assert!(
            client_out.contains("received 4 stats frame(s)"),
            "{client_out}"
        );
        assert!(
            client_out.contains("serve.windows_encoded=3"),
            "the final wire snapshot carries the full encode count: {client_out}"
        );

        // The server wrote the same final snapshot to disk, and its books
        // balance: windows encoded == delivered + dropped + missed per peer.
        assert!(serve_out.contains("metrics: "), "{serve_out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = MetricsSnapshot::from_json(&tw_core::json::parse(&text).unwrap()).unwrap();
        let encoded = snapshot.counter("serve.windows_encoded");
        assert_eq!(encoded, 3);
        assert_eq!(
            snapshot.counter("serve.peer.0.delivered")
                + snapshot.counter("serve.peer.0.dropped")
                + snapshot.counter("serve.peer.0.missed"),
            encoded,
            "{snapshot:?}"
        );
        assert_eq!(snapshot.counter("serve.connections"), 1);
        assert_eq!(snapshot.counter("pipeline.windows"), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readme_command_lines_parse_and_usage_lists_every_flag() {
        // Every `cargo run --release -p tw-cli -- …` line in README's code
        // blocks (with `\` continuations joined, `#` comments dropped) is a
        // command line the table accepts.
        let prefix = "cargo run --release -p tw-cli --";
        let mut commands = Vec::new();
        let mut pending: Option<String> = None;
        let mut in_block = false;
        for line in include_str!("../../../README.md").lines() {
            if line.trim_start().starts_with("```") {
                in_block = !in_block;
                continue;
            }
            let code = line.split(" #").next().unwrap_or_default().trim();
            if !in_block || (pending.is_none() && !code.starts_with(prefix)) {
                continue;
            }
            let joined = pending.get_or_insert_with(String::new);
            joined.push_str(code.trim_end_matches('\\'));
            joined.push(' ');
            if !code.ends_with('\\') {
                commands.extend(pending.take());
            }
        }
        assert!(commands.len() >= 20, "{commands:?}");
        for command in &commands {
            let words: Vec<String> = command[prefix.len()..]
                .split_whitespace()
                .map(String::from)
                .collect();
            if let Err(err) = parse_args(&words) {
                panic!("README's `{command}` does not parse: {err}");
            }
        }

        // The generated usage names every flag under each subcommand that
        // takes it.
        let text = usage();
        for spec in COMMANDS {
            let block = spec.usage();
            assert!(text.contains(&block), "{} missing from usage", spec.name);
            for flag in spec.flags() {
                assert!(
                    block.contains(&format!("      {} ", flag.name)),
                    "{} missing from {}'s usage:\n{block}",
                    flag.name,
                    spec.name
                );
            }
        }
    }

    #[test]
    fn validate_and_render_helpers() {
        let module = tw_core::module::template_10x10();
        let report = render_validation(&module);
        assert!(report.contains("OK, no issues"));

        let (ascii_2d, ppm_2d) = render_module(&module, false, true);
        assert!(ascii_2d.contains("WS1"));
        assert!(ppm_2d.starts_with(b"P6\n"));
        let (ascii_3d, ppm_3d) = render_module(&module, true, true);
        assert!(!ascii_3d.is_empty());
        assert!(ppm_3d.len() > ppm_2d.len() / 4);
    }

    #[test]
    fn play_transcript_reports_the_score() {
        let bundle = tw_core::module::library::figure_bundle(Figure::Posture);
        let transcript = play_bundle(bundle, 3).unwrap();
        assert!(transcript.contains("3/3 correct"));
        assert!(transcript.contains("Security"));
        assert!(transcript.contains("Deterrence"));
    }

    #[test]
    fn curriculum_and_figures_render() {
        let curriculum = render_curriculum();
        assert!(curriculum.contains("DDoS"));
        assert!(curriculum.contains("requires"));
        let figures = render_figures();
        assert!(figures.contains("Figure 10: Graph Theory"));
        assert!(figures.contains("ddos/attack"));
    }

    #[test]
    fn file_commands_round_trip_through_a_temp_directory() {
        let dir = std::env::temp_dir().join(format!("tw-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let module_path = dir.join("module.json");
        std::fs::write(&module_path, tw_core::module::template_6x6().to_json()).unwrap();

        let validate_out = run(&Command::Validate(
            module_path.to_string_lossy().into_owned(),
        ))
        .unwrap();
        assert!(validate_out.contains("OK"));

        let obfuscated = run(&Command::Obfuscate(
            module_path.to_string_lossy().into_owned(),
        ))
        .unwrap();
        assert!(obfuscated.contains("correct_answer_token"));

        let export_out = run(&Command::ExportLibrary(
            dir.join("library").to_string_lossy().into_owned(),
        ))
        .unwrap();
        assert_eq!(export_out.lines().count(), 6);
        let play_target = dir.join("library/ddos_attack.zip");
        assert!(play_target.exists());
        let play_out = run(&Command::Play(PlayArgs {
            path: play_target.to_string_lossy().into_owned(),
            seed: 1,
        }))
        .unwrap();
        assert!(play_out.contains("4/4 correct"));

        let missing = run(&Command::Validate(
            dir.join("nope.json").to_string_lossy().into_owned(),
        ));
        assert!(missing.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
